"""Verification laboratory for fractional matching extendability.

Exact graph and matching machinery lives in `graphs`, `graph6`, `matching`,
and `corpus`; floating point stays inside `spectral`; `theorems` ties both
sides together into checkable statements.  The command line front end is
`fracext.cli`.
"""
from .graphs import (
    CapacityError,
    ExtremalParams,
    Graph,
    MAX_VERTICES,
    complete,
    cycle,
    disjoint_union,
    empty_graph,
    extremal_edge_count,
    extremal_graph,
    isolated_count,
    join,
    matches_extremal,
    neighbourhood,
    path,
)
from .graph6 import Graph6Error, emit_graph6, from_triangle_bits, parse_graph6
from .matching import (
    Verdict,
    extend_matching,
    fractional_pm_exists,
    has_k_matching,
    is_fext_definitional,
    verify_witness,
)
from .spectral import (
    Cubic,
    FAMILIES,
    QuotientMatrix,
    SpectralReport,
    charpoly3,
    closed_form,
    largest_eigenvalue,
    largest_real_root,
    quotient,
    spectral_report,
)
from .corpus import are_isomorphic
from .theorems import (
    CheckResult,
    GridReport,
    LEMMA_IDS,
    SampleReport,
    SharpnessReport,
    SweepReport,
    THEOREM_IDS,
    TheoremSpec,
    check_theorem,
    lemma_grid,
    probe_gap_region,
    sample_spanning_subgraphs,
    sharpness,
    sweep,
    theorem_spec,
)

__version__ = "0.1.0"
