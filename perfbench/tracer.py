"""Outside-in layer tracer for the fracext package.

The tracer changes no program file.  It replaces every public function of
each fracext module with a timing wrapper, in every fracext namespace that
binds that function by name (so `theorems.largest_eigenvalue`, imported from
`spectral`, is wrapped where `theorems` looks it up), and wraps
`Graph.__init__` and `Graph.from_edges`.  A span stack turns durations into
self time: a span's duration minus the time its child spans cover.  Calls
and self time are aggregated in memory and read once, after the timed
section, through `metrics()`.

Layers are the modules.  Eigenvalue spans are keyed by the matrix order,
bucketed as le20, 21to64 and gt64.
"""
from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("graphs", "graph6", "matching", "spectral", "corpus", "theorems", "cli")
ORACLES = ("matching.is_fext_lemma", "matching.is_fext_definitional")
EIGEN = "spectral.largest_eigenvalue"

# (key, report calls) for every function the benchmark reports by name;
# self time is reported for all of them
REPORTED = (
    ("corpus.canonical_form", True),
    ("corpus.all_graphs", False),
    (EIGEN + ".le20", True),
    (EIGEN + ".21to64", True),
    (EIGEN + ".gt64", True),
    ("spectral.signless_laplacian", False),
    ("spectral.adjacency_matrix", False),
    ("spectral.distance_matrix_array", False),
    ("spectral.family_q_matrix", False),
    ("spectral.family_distance_matrix", False),
    ("spectral.closed_form", True),
    ("spectral.largest_real_root", True),
    ("graphs.Graph.__init__", True),
    ("graphs.Graph.from_edges", True),
    ("graphs.distance_matrix", True),
    ("graphs.is_connected", True),
    ("graphs.graph_stats", True),
    ("graph6.emit_graph6", True),
    ("graph6.parse_graph6", True),
    ("matching.is_fext_lemma", True),
    ("matching.is_fext_definitional", True),
    ("matching.fractional_pm_exists", True),
    ("theorems.check_theorem", True),
    ("theorems.sweep", False),
    ("theorems.lemma_grid", False),
    ("theorems.sample_spanning_subgraphs", False),
    ("cli.main", True),
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric `Tracer.metrics` returns, in order.

    Calls and self times are per pass: a pass is the workload's fixed unit
    of work, so runs that fit different numbers of passes into their
    seconds stay comparable.
    """
    names = []
    for key, with_calls in REPORTED:
        if with_calls:
            names.append((f"{key}.calls", "calls/pass"))
        names.append((f"{key}.self_s", "s/pass"))
    names += [("corpus.forms_per_class", "ratio"),
              ("matching.fpm_per_definitional", "ratio"),
              ("matching.capacity_errors", "count"),
              ("theorems.oracle_reach_ratio", "ratio")]
    names += [(f"{layer}.self_s", "s/pass") for layer in LAYERS]
    names += [("untraced.self_s", "s/pass"), ("bench.pass_s", "s/pass"),
              ("bench.items_per_s", "items/s")]
    return names


def _eigen_bucket(matrix) -> str:
    n = len(matrix)
    if n <= 20:
        return "le20"
    return "21to64" if n <= 64 else "gt64"


class Tracer:
    """Span-stack timing of fracext's public functions, installed from outside."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.classes_kept: dict[int, int] = {}   # all_graphs order -> classes
        self.capacity_errors = 0
        self.oracle_calls_in_check = 0
        self._stack = [0.0]          # child time per open span; [0] is the root
        self._open_checks = 0
        self._seen_errors: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._capacity_error = None

    # -- spans ---------------------------------------------------------------

    def _span(self, key, fn, args, kwargs):
        stack = self._stack
        if key == EIGEN:
            key = f"{EIGEN}.{_eigen_bucket(args[0] if args else kwargs['M'])}"
        elif key in ORACLES and self._open_checks:
            self.oracle_calls_in_check += 1
        is_check = key == "theorems.check_theorem"
        self._open_checks += is_check
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._capacity_error as exc:
            if key.startswith("matching.") and id(exc) not in self._seen_errors:
                self._seen_errors.add(id(exc))
                self.capacity_errors += 1
            raise
        finally:
            dur = time.perf_counter() - t0
            child = stack.pop()
            stack[-1] += dur
            self._open_checks -= is_check
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + dur - child
        if key == "corpus.all_graphs":
            n = args[0] if args else kwargs["n"]
            self.classes_kept[n] = len(result)
        return result

    def _wrap(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._span(key, fn, args, kwargs)

        traced.__traced__ = fn
        return traced

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public fracext function wherever it is bound by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("fracext")
        modules = {layer: importlib.import_module(f"fracext.{layer}") for layer in LAYERS}
        self._capacity_error = modules["matching"].OracleCapacityError
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for ns in (package, *modules.values()):
            for name, obj in list(vars(ns).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(ns, name, entry[1])
        graph = modules["graphs"].Graph
        self._patch(graph, "__init__", self._wrap("graphs.Graph.__init__", graph.__init__))
        from_edges = vars(graph)["from_edges"].__func__
        self._patch(graph, "from_edges",
                    classmethod(self._wrap("graphs.Graph.from_edges", from_edges)))

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        """Restore every original binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def metrics(self, timed_s: float, passes: int, items: int) -> dict[str, float]:
        """Per-layer metrics of a timed section of `passes` passes and `items` items.

        Layer self times and untraced.self_s add up to bench.pass_s, the
        timed wall time per pass; bench.items_per_s is the traced
        throughput, which the tracing overhead is read from.
        """
        out: dict[str, float] = {}
        for key, with_calls in REPORTED:
            if with_calls:
                out[f"{key}.calls"] = self.calls.get(key, 0) / passes
            out[f"{key}.self_s"] = self.self_s.get(key, 0.0) / passes

        def ratio(num, den):
            return num / den if den else 0.0

        classes = sum(c for n, c in self.classes_kept.items() if n >= 2)
        out["corpus.forms_per_class"] = ratio(self.calls.get("corpus.canonical_form", 0), classes)
        out["matching.fpm_per_definitional"] = ratio(
            self.calls.get("matching.fractional_pm_exists", 0),
            self.calls.get("matching.is_fext_definitional", 0))
        out["matching.capacity_errors"] = self.capacity_errors
        out["theorems.oracle_reach_ratio"] = ratio(
            self.oracle_calls_in_check, self.calls.get("theorems.check_theorem", 0))
        layer_s = {layer: 0.0 for layer in LAYERS}
        for key, s in self.self_s.items():
            layer_s[key.split(".", 1)[0]] += s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer] / passes
        out["untraced.self_s"] = (timed_s - sum(layer_s.values())) / passes
        out["bench.pass_s"] = timed_s / passes
        out["bench.items_per_s"] = items / timed_s
        return out


def installed_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper anywhere in fracext (should be none)."""
    package = importlib.import_module("fracext")
    found = []
    for ns in (package, *(importlib.import_module(f"fracext.{m}") for m in LAYERS)):
        for name, obj in vars(ns).items():
            if hasattr(obj, "__traced__"):
                found.append(f"{ns.__name__}.{name}")
    graph = importlib.import_module("fracext.graphs").Graph
    for name in ("__init__", "from_edges"):
        if hasattr(getattr(graph, name), "__traced__"):
            found.append(f"Graph.{name}")
    return found
