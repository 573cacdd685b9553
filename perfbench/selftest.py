"""Self-test of the outside-in tracer: it must change no answer and leave no trace.

    python3 perfbench/selftest.py

Runs small slices of the four workloads' call paths untraced, then traced,
and checks that the outputs are identical, that the tracer saw calls in the
layers each slice exercises, that self times add up to the traced wall
time, and that every wrapper is gone afterwards.  Exits 0 on success.
"""
from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.setdefault("FRACEXT_JOBS", "1")

from fracext import theorems  # noqa: E402
from fracext.graphs import ExtremalParams, Graph  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import CheckMixed, call_cli  # noqa: E402


def slices():
    """(name, thunk, layers it must reach) for one short run of each path."""
    spec = theorems.theorem_spec("mu", 1)
    checks = [c for c in CheckMixed(3).inputs(0)[0] if len(c[0]) <= 20][:12]
    return [
        ("sweep", lambda: call_cli(["sweep", "--theorem", "q_1", "-k", "1",
                                    "complement:8:3", "--format", "json"]),
         ("corpus", "theorems", "spectral", "graphs", "graph6", "cli")),
        ("grid", lambda: [call_cli(["grid", "--lemma", lemma, "-k", "1", "-n", n, *extra,
                                    "--format", "json"])
                          for lemma, n, extra in (("q1q2", "20", []),
                                                  ("mu_compare", "40", ["--delta", "3"]))],
         ("spectral", "theorems", "cli")),
        ("sample", lambda: theorems.sample_spanning_subgraphs(
            ExtremalParams(35, 1, 3), spec, samples=30, seed=5),
         ("theorems", "graphs", "graph6", "spectral")),
        ("check", lambda: [call_cli(["check", g6, "-k", str(k), "--format", "json"])
                           for g6, k in checks],
         ("matching", "spectral", "graph6", "cli")),
    ]


def main() -> int:
    graph_init, graph_from_edges = vars(Graph)["__init__"], vars(Graph)["from_edges"]
    failures = []
    for name, thunk, layers in slices():
        plain = thunk()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = thunk()
            wall = time.perf_counter() - t0
        finally:
            tracer.remove()
        if traced != plain:
            failures.append(f"{name}: traced output differs from untraced output")
        m = tracer.metrics(wall, 1, 1)
        for layer in layers:
            if m[f"{layer}.self_s"] <= 0.0:
                failures.append(f"{name}: no self time recorded in layer {layer}")
        layer_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        if not 0.0 <= m["untraced.self_s"] <= 0.05 * wall + 0.01:
            failures.append(f"{name}: layers cover {layer_sum:.4f} s of {wall:.4f} s")
        left = tracing.installed_wrappers()
        if left:
            failures.append(f"{name}: wrappers left installed: {left}")
        print(f"{name}: identical outputs, {sum(tracer.calls.values())} spans, "
              f"untraced remainder {m['untraced.self_s']:.4f} s of {wall:.3f} s")
    if vars(Graph)["__init__"] is not graph_init or vars(Graph)["from_edges"] is not graph_from_edges:
        failures.append("Graph.__init__ or Graph.from_edges was not restored")
    for failure in failures:
        print("FAIL", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
