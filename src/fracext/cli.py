"""Command line front door: inspect one graph, sweep corpora, run the grids.

Commands: check, extremal, sweep, grid, polys, report.  Output formats are
text (default), json, and csv; json follows one fixed schema
{command, config, results[], summary{scanned, confirmed, equality_cases,
counterexamples}}.  Exit codes: 0 clean, 1 negative finding (not extendable,
counterexample, grid violation), 2 usage or input error, 141 (128 +
SIGPIPE) when the reader closes stdout early.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

from .graphs import ExtremalParams, extremal_graph
from .graph6 import emit_graph6, parse_graph6
from .matching import BAD_MATCHING, BAD_SET, Verdict, is_fext_definitional
from .spectral import FAMILIES, closed_form, family_cubic, largest_real_root, spectral_report
from .corpus import complement_stack, connected_stack
from .theorems import (LEMMA_IDS, THEOREM_IDS, edge_certificates, lemma_grid,
                       probe_gap_region, sample_spanning_subgraphs, sharpness,
                       sweep, theorem_spec)


def _fmt(x) -> str:
    """12 significant digits for floats, p/q for rationals."""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _jsonable(x, strict: bool):
    """x as plain data: dataclasses as dicts, rationals as p/q text and
    floats at 12 significant digits.  A non-finite float (a grid or probe
    with no strict row leaves +inf, and so does a grid point whose bracket
    neither certificate proves) becomes None when strict, as JSON cannot
    carry it, and stays as it is for text and csv, which print it."""
    if isinstance(x, (str, int)) or x is None:
        return x
    if isinstance(x, float):
        if math.isfinite(x):
            return float(f"{x:.12g}")
        return None if strict else x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, strict) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v, strict) for k, v in x.items()}
    if isinstance(x, Fraction):
        return str(x)
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name), strict) for f in fields(x)}
    return x


def _flatten(row: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in row.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, name + "."))
        elif isinstance(val, list):
            out[name] = ";".join(_fmt(v) if not isinstance(v, (dict, list)) else json.dumps(v)
                                 for v in val)
        else:
            out[name] = val
    return out


def _emit(doc: dict, fmt: str, out) -> None:
    """Write doc as json, csv or text; its values are normalised here, once."""
    doc = _jsonable(doc, strict=fmt == "json")
    if fmt == "json":
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    if fmt == "csv":
        rows = [_flatten(r) for r in doc.get("results", [])]
        names = list(dict.fromkeys(k for r in rows for k in r))   # in first-seen order
        w = csv.DictWriter(out, fieldnames=names)
        w.writeheader()
        for r in rows:
            w.writerow({k: _fmt(v) if isinstance(v, float) else v for k, v in r.items()})
        return
    # text: config and summary first, then a compact row dump; a null is left out
    out.write(f"command: {doc['command']}\n")
    for key, val in doc.get("config", {}).items():
        if val is not None:
            out.write(f"  {key}: {val}\n")
    for key, val in doc.get("summary", {}).items():
        if val is not None:
            out.write(f"{key}: {_fmt(val)}\n")
    for r in doc.get("results", []):
        line = ", ".join(f"{k}={_fmt(v)}" for k, v in _flatten(r).items()
                         if v is not None and v != "")
        out.write(line + "\n")


def _vertices(mask: int | None):
    if mask is None:
        return None
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _verdict_row(name: str, verdict) -> dict:
    row = {"oracle": name, "extendable": verdict.answer, "reason": verdict.reason}
    if verdict.witness_set is not None:
        row["witness_set"] = _vertices(verdict.witness_set)
    if verdict.witness_matching is not None:
        row["witness_matching"] = [list(e) for e in verdict.witness_matching]
    return row


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args, out) -> int:
    line = sys.stdin.readline() if args.graph == "-" else args.graph
    g = parse_graph6(line)
    rep = spectral_report(g)
    rows = [{"spectral": rep}]
    verdict = is_fext_definitional(g, args.k)
    # one verdict, one row per form of the condition, each with its own witness
    by_set = by_matching = verdict
    if verdict.reason == BAD_MATCHING:
        by_set = Verdict(False, BAD_SET, witness_set=verdict.witness_set)
        by_matching = replace(verdict, witness_set=None)
    rows.append(_verdict_row("set_condition", by_set))
    rows.append(_verdict_row("definitional", by_matching))
    answer = verdict.answer
    doc = {
        "command": "check",
        "config": {"k": args.k},
        "results": rows,
        "summary": {"scanned": 1, "confirmed": int(answer),
                    "equality_cases": 0, "counterexamples": 0},
    }
    _emit(doc, args.format, out)
    return 0 if answer else 1


def cmd_extremal(args, out) -> int:
    s = args.s
    if s is None:
        raise ValueError("need -s or --delta")
    p = ExtremalParams(n=args.n, k=args.k, s=s)
    g = extremal_graph(p)
    rep = spectral_report(g)
    row = {
        "graph6": emit_graph6(g),
        "n": rep.n, "e": rep.e, "min_degree": rep.min_degree,
        "q": rep.q_radius, "mu": rep.distance_radius,
        "q_poly": family_cubic("q", args.n, args.k, s).coefficients(),
        "mu_poly": family_cubic("mu", args.n, args.k, s).coefficients(),
    }
    doc = {
        "command": "extremal",
        "config": {"n": args.n, "k": args.k, "s": s},
        "results": [row],
        "summary": {"scanned": 1, "confirmed": 0,
                    "equality_cases": 1, "counterexamples": 0},
    }
    _emit(doc, args.format, out)
    return 0


def _load_corpus(arg: str):
    """Corpus argument: path, '-', 'connected:N', or 'complement:N:BUDGET'."""
    if arg == "-":
        return sys.stdin.buffer, "stdin"
    kind, _, rest = arg.partition(":")
    # a generated corpus goes to sweep as the adjacency stack it is built as
    generated = {"connected": ("connected:N", connected_stack),
                 "complement": ("complement:N:BUDGET", complement_stack)}
    if kind in generated:
        form, build = generated[kind]
        fields = rest.split(":")
        if len(fields) != form.count(":") or not all(f.isascii() and f.isdigit() for f in fields):
            raise ValueError(f"corpus {arg!r}: expected {form} with non-negative integers")
        return build(*map(int, fields)), arg
    # bytes: sweep decodes each line itself and records bad ones by number
    return open(arg, "rb"), arg


def cmd_sweep(args, out) -> int:
    spec = theorem_spec(args.theorem, args.k)
    corpus, name = _load_corpus(args.corpus)
    try:
        rep = sweep(corpus, spec)
    finally:
        if args.corpus != "-" and hasattr(corpus, "close"):
            corpus.close()
    doc = {
        "command": "sweep",
        "config": {"theorem": args.theorem, "k": args.k, "corpus": name},
        "results": rep.equality_cases + rep.counterexamples,
        "summary": {
            "scanned": rep.scanned,
            "hypothesis_met": rep.hypothesis_met,
            "bound_met": rep.bound_met,
            "confirmed": rep.confirmed,
            "equality_cases": len(rep.equality_cases),
            "counterexamples": len(rep.counterexamples),
            "parse_errors": len(rep.parse_errors),
        },
    }
    if rep.parse_errors:
        doc["parse_errors"] = [{"line": no, "error": msg} for no, msg in rep.parse_errors]
    _emit(doc, args.format, out)
    return 0 if rep.ok else 1


def cmd_grid(args, out) -> int:
    rep = lemma_grid(args.lemma, k_max=args.k, n_max=args.n, delta_max=args.delta)
    doc = {
        "command": "grid",
        "config": {"lemma": args.lemma, "k_max": args.k, "n_max": args.n,
                   "delta_max": args.delta},
        "results": rep.violations,
        "summary": {
            "scanned": rep.points,
            "confirmed": rep.points - len(rep.violations),
            "equality_cases": rep.equality_points,
            "counterexamples": len(rep.violations),
            "max_crosscheck_error": rep.max_crosscheck_error,
            "min_strict_margin": rep.min_strict_margin,
        },
    }
    _emit(doc, args.format, out)
    return 0 if rep.ok else 1


def cmd_polys(args, out) -> int:
    kwargs = {"k": args.k, **{name: getattr(args, name) for name in ("n", "s", "delta")
                              if getattr(args, name) is not None}}
    cubic = closed_form(args.family, **kwargs)
    doc = {
        "command": "polys",
        "config": {"family": args.family, **kwargs},
        "results": [{"coefficients": cubic.coefficients(),
                     "largest_root": largest_real_root(cubic)}],
        "summary": {"scanned": 1, "confirmed": 1,
                    "equality_cases": 0, "counterexamples": 0},
    }
    _emit(doc, args.format, out)
    return 0


def cmd_report(args, out) -> int:
    """One composite run: the edge proof, sharpness, grids, probes, sampling."""
    k = args.k
    full = args.full
    results = []
    passed = []  # one entry per section: did its own check hold

    certificates = edge_certificates()   # the same rows at every k
    proven = sum(row[-1] for row in certificates)
    passed.append(proven == len(certificates))
    results.append({"section": "edge_proof", "certificates": len(certificates), "proven": proven,
                    "constants": [C[0, 0, 0].item() for *_, C, _ in certificates],
                    "claim": "the edge comparison and edge_1's k-matching premise at every order"})

    # each bound is sharp at its family member of least order
    d0 = 2 * k + 1
    for tid in ("edge_1", "q_1", "edge_2", "q_2", "mu"):
        spec = theorem_spec(tid, k)
        p = spec.family(spec.min_order(d0), d0)
        rep = sharpness(p, spec)
        passed.append(rep.ok)
        results.append({"section": "sharpness", "theorem": tid,
                        "params": [p.n, p.k, p.s], "ok": rep.ok,
                        "value": rep.value, "threshold": rep.threshold})

    grids = [("q1q2", dict(k_max=3 if full else 2, n_max=40 if full else 24)),
             ("q1q3", dict(k_max=2 if full else 1, n_max=90 if full else 40,
                           delta_max=7 if full else 4)),
             ("mu_compare", dict(k_max=2 if full else 1, n_max=90 if full else 45,
                                 delta_max=7 if full else 3))]
    for lemma, bounds in grids:
        rep = lemma_grid(lemma, **bounds)
        passed.append(rep.ok)
        results.append({"section": "grid", "lemma": lemma, **bounds,
                        "points": rep.points, "violations": len(rep.violations),
                        "max_crosscheck_error": rep.max_crosscheck_error})

    for kind in ("q", "mu"):
        probe = probe_gap_region(kind, k, d0)
        passed.append(True)  # a probe asserts nothing
        results.append({"section": "gap_probe", "kind": kind, "delta": d0,
                        "rows": probe.points, "min_margin": probe.min_strict_margin,
                        "all_hold": probe.ok, "asserted": False})

    spec = theorem_spec("mu", k)
    n_mu = spec.min_order(d0)
    samples = 10_000 if full else 500
    for s in (d0, d0 + 1, d0 + 2):
        p = ExtremalParams(n=n_mu, k=k, s=s)
        rep = sample_spanning_subgraphs(p, spec, samples=samples,
                                        seed=args.seed)
        passed.append(rep.ok)
        results.append({"section": "sampling", "params": [p.n, p.k, p.s],
                        "samples": rep.samples, "statuses": dict(rep.statuses),
                        "counterexamples": len(rep.counterexamples)})

    confirmed = sum(passed)
    doc = {
        "command": "report",
        "config": {"k": k, "full": full, "seed": args.seed},
        "results": results,
        "summary": {"scanned": len(results),
                    "confirmed": confirmed,
                    "equality_cases": 0,
                    "counterexamples": len(passed) - confirmed},
    }
    _emit(doc, args.format, out)
    return 0 if confirmed == len(passed) else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("-k", type=int, default=1, help="matching size parameter")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--output", "-o", default=None, help="write here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: building it costs
    some forty parses."""
    ap = argparse.ArgumentParser(prog="fracext",
                                 description=__doc__.splitlines()[0])
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="classify one graph6 line ('-' reads stdin)")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("extremal", help="emit a family graph and its invariants")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-s", "--delta", dest="s", type=int, default=None,
                   help="join clique size (the minimum degree)")
    _add_common(p)
    p.set_defaults(fn=cmd_extremal)

    p = subs.add_parser("sweep", help="run one bound over a graph6 corpus")
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("corpus",
                   help="path, '-', 'connected:N', or 'complement:N:BUDGET'")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("grid", help="verify a comparison inequality on a grid")
    p.add_argument("--lemma", choices=LEMMA_IDS, required=True)
    p.add_argument("-n", type=int, required=True, help="largest order")
    p.add_argument("--delta", type=int, default=None, help="largest minimum degree")
    _add_common(p)
    p.set_defaults(fn=cmd_grid)

    p = subs.add_parser("polys", help="closed-form characteristic coefficients")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-s", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_polys)

    p = subs.add_parser("report", help="composite verification run")
    p.add_argument("--full", action="store_true",
                   help="acceptance-size grids and 10k samples per point")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stdout = out = sys.stdout
    try:
        if args.output is not None:
            out = open(args.output, "w", encoding="utf-8")
        return args.fn(args, out)
    except BrokenPipeError:
        # the reader is gone: silence the interpreter's final stdout flush
        sys.stdout = open(os.devnull, "w")
        return 141
    except (ValueError, OSError, RuntimeError) as exc:
        # Graph6Error and CapacityError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not stdout:
            out.close()


if __name__ == "__main__":
    raise SystemExit(main())
