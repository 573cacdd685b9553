"""One benchmark run of one fracext workload, in a fresh interpreter.

Started by run.py, which sets the environment (PYTHONPATH to the checkout's
src, one BLAS thread, FRACEXT_JOBS=1):

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up (imports and the first pass's inputs) ends with the line "ready" on
stdout; --setup-only exits there.  Otherwise the timed section runs whole
passes of the workload until SECONDS have been spent in them, then the
outputs are checked against known answers, and the last stdout line is one
JSON object with the run's figures.  In an untraced run a speed probe
(speed.py) samples the machine every quarter second of the timed section,
and each operation's time is scaled to nominal machine speed.  With TRACE=1
the outside-in tracer is installed for the timed section instead, and its
per-layer metrics, in unscaled seconds, are added.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time

from fracext import cli, theorems
from fracext.corpus import are_isomorphic
from fracext.graph6 import parse_graph6
from fracext.graphs import ExtremalParams, extremal_graph
from fracext.matching import Verdict, verify_witness

from speed import SpeedProbe
from tracer import Tracer

# samples the machine's speed during untraced timed sections (speed.py)
SPEED: SpeedProbe | None = None


def call_cli(argv: list[str]) -> tuple[int, str]:
    """`fracext <argv>` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)   # looked up at call time, so a tracer sees it
    return rc, buf.getvalue()


def timed(fn, *args, **kwargs):
    """(interval, result) of one call: the interval is its start and end
    (perf_counter) and the seconds the speed probe spent inside it."""
    spent = SPEED.spent_s if SPEED else 0.0
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    t1 = time.perf_counter()
    return (t0, t1, SPEED.spent_s - spent if SPEED else 0.0), out


def op_time(interval) -> float:
    """Seconds of a timed call: wall time without the speed probe's samples,
    scaled to nominal machine speed in untraced runs (speed.py)."""
    t0, t1, spent = interval
    return SPEED.nominal_s(t0, t1, spent) if SPEED else t1 - t0 - spent


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
#
# Each workload generates the inputs of one pass from (seed, pass index),
# runs a pass as a list of operations, each timed on its own, and checks
# the collected outputs afterwards.  check() returns (items, attempted,
# failed, notes): items feed items_per_s, attempted/failed the error rate.

class SweepConn8:
    """The README's sweep: q_1 bound over all 11117 connected order-8 graphs."""
    argv = ["sweep", "--theorem", "q_1", "-k", "1", "connected:8", "--format", "json"]
    uses_seed = False
    # the corpus is cached per interpreter, so a second pass would skip the
    # enumeration every CLI call pays for: one pass per process
    single_pass = True

    def __init__(self, seed: int):
        pass

    def inputs(self, index: int):
        return [self.argv]

    def run_pass(self, argvs):
        return [timed(call_cli, argv) for argv in argvs]

    def check(self, outputs):
        notes = []
        items = failed = 0
        expected = extremal_graph(ExtremalParams(8, 1, 2))
        for rc, text in outputs:
            doc = json.loads(text) if rc in (0, 1) else {}
            s = doc.get("summary", {})
            items += s.get("scanned", 0)
            eq = [r for r in doc.get("results", []) if r.get("status") == "equality_case"]
            ok = (rc == 0 and s.get("scanned") == 11117 and s.get("counterexamples") == 0
                  and s.get("equality_cases") == 1 and len(eq) == 1
                  and are_isomorphic(parse_graph6(eq[0]["graph6"]), expected))
            if not ok:
                failed += 1
                notes.append(f"sweep: rc={rc} summary={s}")
        return items, len(outputs), failed, notes


class GridDelta:
    """The three comparison grids, family matrices up to order 90.

    q1q2 is the `report --full` command; q1q3 and mu_compare stop at k = 1,
    delta = 3 (the full-size pair takes about 24 s, too long to repeat in
    a run, and a single pass per run varied by a quarter between runs).
    """
    commands = [
        (["grid", "--lemma", "q1q2", "-k", "3", "-n", "40", "--format", "json"], 1001),
        (["grid", "--lemma", "q1q3", "-k", "1", "-n", "90", "--delta", "3",
          "--format", "json"], 1757),
        (["grid", "--lemma", "mu_compare", "-k", "1", "-n", "90", "--delta", "3",
          "--format", "json"], 1596),
    ]
    uses_seed = False
    single_pass = False

    def __init__(self, seed: int):
        pass

    def inputs(self, index: int):
        return self.commands

    def run_pass(self, commands):
        return [timed(call_cli, argv) for argv, _ in commands]

    def check(self, outputs):
        notes = []
        items = failed = 0
        for i, (rc, text) in enumerate(outputs):
            argv, points = self.commands[i % len(self.commands)]
            s = json.loads(text)["summary"] if rc in (0, 1) else {}
            items += s.get("scanned", 0)
            ok = (rc == 0 and s.get("scanned") == points and s.get("counterexamples") == 0
                  and s.get("max_crosscheck_error", 1.0) < 1e-8)
            if not ok:
                failed += 1
                notes.append(f"grid {argv[2]}: rc={rc} summary={s}")
        return items, len(outputs), failed, notes


class SampleMu35:
    """Spanning subgraphs of the order-35 distance-bound families, s = 3, 4, 5.

    A call draws 100 samples, not the 3000 of `report --full`: a pass of
    three calls then takes about 0.3 s, a run holds some sixty passes, and
    each call's median over them keeps bursts of machine noise out.  The
    fixed part of a call (building the family graph and its edge list)
    costs under 1 ms, about 1% of a 100-sample call.
    """
    samples_per_call = 100
    uses_seed = True
    single_pass = False

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = theorems.theorem_spec("mu", 1)

    def inputs(self, index: int):
        rng = random.Random(f"sample-mu35:{self.seed}:{index}")
        return [(ExtremalParams(35, 1, s), rng.getrandbits(32)) for s in (3, 4, 5)]

    def run_pass(self, calls):
        return [timed(theorems.sample_spanning_subgraphs, p, self.spec,
                      samples=self.samples_per_call, seed=seed) for p, seed in calls]

    def check(self, outputs):
        notes = []
        attempted = failed = 0
        for rep in outputs:
            statuses = dict(rep.statuses)
            attempted += rep.samples
            bad = (len(rep.counterexamples) + statuses.get("oracle_capacity", 0)
                   + abs(rep.samples - sum(statuses.values())))
            if bad or not rep.ok:
                failed += max(bad, 1)
                notes.append(f"sample {rep.params}: statuses={statuses}")
        return attempted, attempted, failed, notes


def _graph6(n: int, rows: list[int]) -> str:
    """graph6 encoding, written here so input generation needs no fracext code."""
    bits = [(rows[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[i:i + 6] for i in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def random_connected_graph6(rng: random.Random, n: int, density: float) -> str:
    """Random spanning tree on shuffled labels plus each other pair with p=density."""
    rows = [0] * n
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(1, n):
        a, b = perm[i], perm[rng.randrange(i)]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return _graph6(n, rows)


class CheckMixed:
    """Single-graph `fracext check` calls on seeded connected graphs.

    Every pass holds the same 120 strata, one graph per (order, density, k)
    for orders 10-20, five densities and k in {1, 2}, so the seed changes
    the graphs but not the mix of costs; sparse graphs are mostly not
    extendable, dense ones mostly are.  Order 20 is listed twice: its
    checks cost several times more than order 19's, and with a single
    order-20 stratum the 90th percentile sat on the boundary between the
    two and jumped from seed to seed.
    """
    orders = (*range(10, 21), 20)
    densities = (0.05, 0.2, 0.4, 0.6, 0.85)
    uses_seed = True
    single_pass = False

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, index: int):
        rng = random.Random(f"check-mixed:{self.seed}:{index}")
        checks = [(random_connected_graph6(rng, n, d), k)
                  for n in self.orders for d in self.densities for k in (1, 2)]
        # run in shuffled order, so a burst of machine noise is spread over
        # the strata instead of landing on one order
        order = list(range(len(checks)))
        rng.shuffle(order)
        return checks, order

    def run_pass(self, pending):
        checks, order = pending
        out = [None] * len(checks)
        for i in order:
            g6, k = checks[i]
            dt, (rc, text) = timed(call_cli, ["check", g6, "-k", str(k), "--format", "json"])
            out[i] = (dt, (g6, k, rc, text))
        return out

    def check(self, outputs):
        notes = []
        failed = negatives = 0
        for g6, k, rc, text in outputs:
            try:
                if not self._verdict_holds(g6, k, rc, text):
                    raise ValueError("wrong verdict or witness")
            except (ValueError, KeyError, TypeError) as exc:
                failed += 1
                notes.append(f"check {g6} k={k}: rc={rc} {exc}")
            negatives += rc == 1
        notes.append(f"checks: {len(outputs) - negatives} exit 0, {negatives} exit 1")
        return len(outputs), len(outputs), failed, notes

    @staticmethod
    def _verdict_holds(g6: str, k: int, rc: int, text: str) -> bool:
        if rc not in (0, 1):
            return False
        doc = json.loads(text)
        oracles = [r for r in doc["results"] if "oracle" in r]
        if len(oracles) != 2 or doc["summary"]["confirmed"] != (rc == 0):
            return False
        g = parse_graph6(g6)
        for row in oracles:
            if row["extendable"] != (rc == 0):
                return False
            if rc == 1:
                vertices = row.get("witness_set")
                matching = row.get("witness_matching")
                verdict = Verdict(
                    False, row["reason"],
                    witness_set=None if vertices is None else sum(1 << v for v in vertices),
                    witness_matching=None if matching is None else tuple(map(tuple, matching)))
                if not verify_witness(g, k, verdict):
                    return False
        return True


WORKLOADS = {
    "sweep-conn8": SweepConn8,
    "grid-delta": GridDelta,
    "sample-mu35": SampleMu35,
    "check-mixed": CheckMixed,
}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """q-th percentile by linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    global SPEED
    workload = WORKLOADS[name](seed)
    pending = workload.inputs(0)
    print("ready", flush=True)

    tracer = Tracer() if trace else None
    SPEED = None if trace else SpeedProbe()
    latencies: list[list[tuple]] = []   # per pass, per operation: timed()'s interval
    outputs = []
    timed_s = 0.0
    passes = 0
    with SPEED or contextlib.nullcontext():
        if tracer:
            tracer.install()
        try:
            while True:
                t0 = time.perf_counter()
                results = workload.run_pass(pending)
                timed_s += time.perf_counter() - t0
                passes += 1
                latencies.append([t for t, _ in results])
                outputs += [out for _, out in results]
                if workload.single_pass or timed_s >= seconds:
                    break
                pending = workload.inputs(passes)   # outside the timed section
        finally:
            if tracer:
                tracer.remove()
    scale = SPEED.scale() if SPEED else 1.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    items, attempted, failed, notes = workload.check(outputs)
    # Every pass runs the same operations (the seed varies the graphs, not
    # the strata), so each operation's time is its median over the passes:
    # that keeps short bursts of machine noise out of the figures.
    op_s = [statistics.median(map(op_time, col)) for col in zip(*latencies)]
    result = {
        "workload": name,
        "seed": seed if workload.uses_seed else None,
        "passes": passes,
        "operations": sum(map(len, latencies)),
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed_s,
        "speed_scale": scale,
        "items_per_s": items / passes / sum(op_s),
        "latency_p50_ms": 1000.0 * statistics.median(op_s),
        "latency_p90_ms": 1000.0 * percentile(op_s, 90),
        "peak_rss_mb": peak_rss_mb,
        "notes": notes[-20:],
    }
    if tracer:
        result["layers"] = tracer.metrics(timed_s, passes, items)
    return result


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}", file=sys.stderr)
        return 2
    if "--setup-only" in argv[4:]:
        WORKLOADS[name](seed).inputs(0)
        print("ready", flush=True)
        return 0
    print(json.dumps(run(name, seed, seconds, trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
