"""Repeat benchmark runs and summarise each metric's median and spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--out FILE]

Runs perfbench/run.py once per (workload, seed), one run at a time, with
the run length from BENCHMARK.json, and prints per workload and metric the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median.  --out also
writes every run's result line, with the factor its times were scaled by
to nominal machine speed (perfbench/speed.py), and the summary as JSON.
Run it from the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            line = json.loads(lines[-1])
            scale = re.search(r"times scaled by ([0-9.]+)", proc.stderr)
            runs.setdefault(workload, []).append(
                {"seed": seed, "speed_scale": scale and float(scale.group(1)), **line})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()
                              if args.trace == 0)
            print(f"{workload} seed {seed}: correct={line['correct']} {values}", file=sys.stderr)

    summary = {}
    for workload, results in runs.items():
        names = results[0]["metrics"]
        summary[workload] = {n: summarise([r["metrics"][n]["value"] for r in results])
                             for n in names}
        if args.trace == 0:
            for n, s in summary[workload].items():
                print(f"{workload:12s} {n:16s} median={s['median']:.6g} "
                      f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
