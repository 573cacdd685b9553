"""fracext benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-conn8, grid-delta, sample-mu35, check-mixed (see
perfbench/record.json for what each runs and why).  Every run happens in a
fresh interpreter (perfbench/workloads.py) whose environment pins one BLAS
thread and FRACEXT_JOBS=1 and puts the checkout's src/ first on the path.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s (median of thirteen fresh set-ups, spread over the run), items_per_s, latency_p50_ms,
latency_p90_ms and peak_rss_mb, the times scaled to a nominal machine speed
measured by a reference loop (perfbench/speed.py).  With --trace 1 it
carries the per-layer metrics of the outside-in tracer instead.  The exit code is 0 when every
output passed the workload's correctness gate, 1 when one did not, and 2
when the run could not be made at all (no fracext source beside the
benchmark, a crashed or timed-out child).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "workloads.py"
WORKLOADS = ("sweep-conn8", "grid-delta", "sample-mu35", "check-mixed")
SETUP_PROBES = 6          # set-up-only interpreters before and again after the run
DEADLINE_S = 170.0        # a run must end within 180 s
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FRACEXT_JOBS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = (("setup_s", "s"), ("items_per_s", "items/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class RunError(RuntimeError):
    """The run could not be made; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one child; returns (seconds until it printed "ready", its stdout)."""
    cmd = [sys.executable, str(CHILD), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{' '.join(args)}: no result within the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RunError(f"{' '.join(args)}: exit {proc.returncode}\n{err[-2000:]}")
    return setup_s, rest


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(child result, metrics) for one run."""
    deadline = time.monotonic() + DEADLINE_S
    base = [workload, str(seed), str(seconds), "1" if trace else "0"]
    probes = 0 if trace else SETUP_PROBES
    speed = SpeedProbe()
    setups = []   # (start, seconds) of each set-up

    def timed_spawn(args: list[str]) -> str:
        t0 = time.perf_counter()
        setup_s, out = spawn(args, deadline)
        setups.append((t0, setup_s))
        speed.sample(2)
        return out

    # probes on both sides of the measured run, so that the machine's speed
    # drift over the run is sampled rather than one moment of it
    for _ in range(probes):
        timed_spawn(base + ["--setup-only"])
    out = timed_spawn(base)
    for _ in range(probes):
        timed_spawn(base + ["--setup-only"])
    result = json.loads(out.strip().splitlines()[-1])
    if trace:
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u in metric_names()}
    else:
        # scaled to nominal machine speed by the reference loop timed in
        # this process between the set-ups (speed.py)
        result["setup_s"] = statistics.median(speed.nominal_s(t0, t0 + s, 0.0)
                                              for t0, s in setups)
        metrics = {n: {"value": result[n], "unit": u} for n, u in END_TO_END}
    return result, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fracext" / "cli.py").is_file():
        print(f"error: no fracext source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in result["notes"]:
        print(note, file=sys.stderr)
    scaling = ("traced, times not scaled" if args.trace else
               f"times scaled by {result['speed_scale']:.4f} to nominal machine speed")
    print(f"{args.workload}: {result['passes']} pass(es), {result['operations']} operations, "
          f"{result['items']} items in {result['timed_s']:.3f} s; {scaling}", file=sys.stderr)
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
