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
    GraphStats,
    MAX_VERTICES,
    complement,
    complete,
    cycle,
    disjoint_union,
    embeds_in_extremal,
    empty_graph,
    extremal_edge_count,
    extremal_graph,
    graph_stats,
    induced,
    delete_vertices,
    distance_matrix,
    is_connected,
    isolated_count,
    join,
    matches_extremal,
    path,
    wiener_index,
)
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .matching import (
    Verdict,
    extend_matching,
    fractional_pm_exists,
    has_k_matching,
    is_fext_definitional,
    is_fext_lemma,
    matching_number,
    verify_witness,
)
from .spectral import (
    Cubic,
    DEFAULT_TOL,
    FAMILIES,
    QuotientMatrix,
    SpectralReport,
    charpoly3,
    closed_form,
    largest_eigenvalue,
    largest_real_root,
    quotient,
    spectral_report,
    wiener_g3,
)
from .corpus import (
    all_graphs,
    are_isomorphic,
    canonical_form,
    complement_corpus,
    connected_graphs,
    sparse_graphs,
)
from .theorems import (
    CheckResult,
    GridReport,
    IdentityReport,
    LEMMA_IDS,
    SampleReport,
    SharpnessReport,
    SweepReport,
    THEOREM_IDS,
    TheoremSpec,
    check_theorem,
    edge_count_identities,
    lemma_grid,
    probe_gap_region,
    sample_spanning_subgraphs,
    sharpness,
    sweep,
    theorem_spec,
)

__version__ = "0.1.0"
