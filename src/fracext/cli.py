"""Command line front door: inspect one graph, sweep corpora, run the grids.

Commands: check, extremal, sweep, grid, polys, report.  Output formats are
text (default), json, and csv; json follows one fixed schema
{command, config, results[], summary{scanned, confirmed, equality_cases,
counterexamples}}.  Exit codes: 0 clean, 1 negative finding (not extendable,
counterexample, grid violation), 2 usage or input error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .graphs import ExtremalParams, extremal_graph, graph_stats
from .graph6 import emit_graph6, parse_graph6
from .matching import LEMMA_MAX_ORDER, is_fext_definitional, is_fext_lemma
from .spectral import (FAMILIES, closed_form, distance_matrix_array,
                       largest_eigenvalue, largest_real_root, signless_laplacian,
                       spectral_report)
from .corpus import complement_corpus, connected_graphs
from .theorems import (LEMMA_IDS, THEOREM_IDS, edge_count_identities, lemma_grid,
                       probe_gap_region, sample_spanning_subgraphs, sharpness,
                       sweep, theorem_spec)


def _fmt(x) -> str:
    """12 significant digits for floats, p/q for rationals."""
    if isinstance(x, bool) or x is None:
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _jsonable(x):
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, Fraction):
        return _fmt(x)
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
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
    if fmt == "json":
        json.dump(doc, out, indent=2, sort_keys=False)
        out.write("\n")
        return
    if fmt == "csv":
        rows = [_flatten(r) for r in doc.get("results", [])]
        names: list[str] = []
        for r in rows:
            for k in r:
                if k not in names:
                    names.append(k)
        w = csv.DictWriter(out, fieldnames=names)
        w.writeheader()
        for r in rows:
            w.writerow({k: _fmt(v) if isinstance(v, (float, Fraction)) else v
                        for k, v in r.items()})
        return
    # text: summary first, then anything negative, then a compact row dump
    s = doc.get("summary", {})
    out.write(f"command: {doc['command']}\n")
    for key, val in doc.get("config", {}).items():
        out.write(f"  {key}: {val}\n")
    for key, val in s.items():
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
    rows = [{"spectral": _jsonable(rep)}]
    verdict = is_fext_definitional(g, args.k)
    if g.n <= LEMMA_MAX_ORDER:
        # the set-condition table is an independent cross-check where it reaches
        cross = is_fext_lemma(g, args.k)
        if cross.answer != verdict.answer:
            raise RuntimeError("oracles disagree; this should be impossible")
        rows.append(_verdict_row("set_condition", cross))
    rows.append(_verdict_row("definitional", verdict))
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
    s = args.delta if args.s is None else args.s
    if s is None:
        raise ValueError("need -s or --delta")
    p = ExtremalParams(n=args.n, k=args.k, s=s)
    g = extremal_graph(p)
    st = graph_stats(g)
    q = largest_eigenvalue(signless_laplacian(g))
    mu = largest_eigenvalue(distance_matrix_array(g))
    if args.n >= 2 * s - 2 * args.k + 2:
        q_poly = closed_form("f_pi_1", n=args.n, k=args.k, s=s)
    else:
        q_poly = closed_form("f_pi_prime_1", k=args.k, s=s)
    mu_poly = closed_form("phi_B1", n=args.n, k=args.k, s=s)
    row = {
        "graph6": emit_graph6(g) if g.n <= 62 else None,
        "n": st.n, "e": st.e, "min_degree": st.min_degree,
        "q": q, "mu": mu,
        "q_poly": [_fmt(c) for c in q_poly.coefficients()],
        "mu_poly": [_fmt(c) for c in mu_poly.coefficients()],
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
    if arg.startswith("connected:"):
        n = int(arg.split(":", 1)[1])
        return connected_graphs(n), arg
    if arg.startswith("complement:"):
        _, n, budget = arg.split(":")
        return complement_corpus(int(n), int(budget)), arg
    # bytes: sweep decodes each line itself and records bad ones by number
    return open(arg, "rb"), arg


def cmd_sweep(args, out) -> int:
    spec = theorem_spec(args.theorem, args.k)
    corpus, name = _load_corpus(args.corpus)
    try:
        rep = sweep(corpus, spec, corpus_name=name, jobs=args.jobs)
    finally:
        if args.corpus != "-" and hasattr(corpus, "close"):
            corpus.close()
    results = [_jsonable(r) for r in rep.equality_cases + rep.counterexamples]
    doc = {
        "command": "sweep",
        "config": _config(args, theorem=args.theorem, k=args.k, corpus=name),
        "results": results,
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
    rep = lemma_grid(args.lemma, k_max=args.k, n_max=args.n,
                     delta_max=args.delta, jobs=args.jobs)
    results = [_jsonable(v) for v in rep.violations]
    doc = {
        "command": "grid",
        "config": _config(args, lemma=args.lemma, k_max=args.k, n_max=args.n,
                          delta_max=args.delta),
        "results": results,
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
    kwargs = {"k": args.k}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.s is not None:
        kwargs["s"] = args.s
    if args.delta is not None:
        kwargs["delta"] = args.delta
    cubic = closed_form(args.family, **kwargs)
    coeffs = [_fmt(c) for c in cubic.coefficients()]
    root = largest_real_root(cubic)
    doc = {
        "command": "polys",
        "config": {"family": args.family, **kwargs},
        "results": [{"coefficients": coeffs, "largest_root": root}],
        "summary": {"scanned": 1, "confirmed": 1,
                    "equality_cases": 0, "counterexamples": 0},
    }
    if args.format == "text":
        out.write(", ".join(coeffs) + f"\nlargest root: {_fmt(root)}\n")
        return 0
    _emit(doc, args.format, out)
    return 0


def cmd_report(args, out) -> int:
    """One composite run: identities, sharpness, grids, probes, sampling."""
    k = args.k
    full = args.full
    results = []
    ok = True

    ident_points = [(k, s, n, d)
                    for s in range(2 * k, 2 * k + 5)
                    for d in range(2 * k, s + 1)
                    for n in range(2 * s - 2 * k + 1, 2 * s + 10, 3)]
    bad = sum(0 if edge_count_identities(k, s, n, d).ok else 1
              for k, s, n, d in ident_points)
    ok &= bad == 0
    results.append({"section": "edge_identities",
                    "points": len(ident_points), "failures": bad})

    d0 = 2 * k + 1
    sharp_points = {
        "edge_1": ExtremalParams(n=2 * k + 9, k=k, s=2 * k),
        "q_1": ExtremalParams(n=2 * k + 6, k=k, s=2 * k),
        "edge_2": ExtremalParams(n=6 * d0, k=k, s=d0),
        "q_2": ExtremalParams(n=-(-13 * d0 // 2), k=k, s=d0),
        "mu": ExtremalParams(n=12 * d0 - 2 * k + 1, k=k, s=d0),
    }
    for tid, p in sharp_points.items():
        rep = sharpness(p, theorem_spec(tid, k))
        ok &= rep.ok
        results.append({"section": "sharpness", "theorem": tid,
                        "params": [p.n, p.k, p.s], "ok": rep.ok,
                        "value": rep.value, "threshold": rep.threshold})

    grids = [("q1q2", dict(k_max=3 if full else 2, n_max=40 if full else 24)),
             ("q1q3", dict(k_max=2 if full else 1, n_max=90 if full else 40,
                           delta_max=7 if full else 4)),
             ("mu_compare", dict(k_max=2 if full else 1, n_max=90 if full else 45,
                                 delta_max=7 if full else 3))]
    for lemma, bounds in grids:
        rep = lemma_grid(lemma, jobs=args.jobs, **bounds)
        ok &= rep.ok
        results.append({"section": "grid", "lemma": lemma, **bounds,
                        "points": rep.points, "violations": len(rep.violations),
                        "max_crosscheck_error": rep.max_crosscheck_error})

    for kind in ("q", "mu"):
        probe = probe_gap_region(kind, k, d0)
        results.append({"section": "gap_probe", "kind": kind, "delta": d0,
                        "rows": len(probe.rows), "min_margin": probe.min_margin,
                        "all_hold": probe.all_hold, "asserted": False})

    n_mu = 12 * d0 - 2 * k + 1
    spec = theorem_spec("mu", k)
    samples = 10_000 if full else 500
    for s in (d0, d0 + 1, d0 + 2):
        p = ExtremalParams(n=n_mu, k=k, s=s)
        rep = sample_spanning_subgraphs(p, spec, samples=samples,
                                        seed=args.seed)
        ok &= rep.ok
        results.append({"section": "sampling", "params": [p.n, p.k, p.s],
                        "samples": rep.samples, "statuses": dict(rep.statuses),
                        "counterexamples": len(rep.counterexamples)})

    doc = {
        "command": "report",
        "config": _config(args, k=k, full=full, seed=args.seed),
        "results": results,
        "summary": {"scanned": len(results),
                    "confirmed": sum(1 for r in results if r.get("ok", True)),
                    "equality_cases": 0,
                    "counterexamples": 0 if ok else 1},
    }
    _emit(doc, args.format, out)
    return 0 if ok else 1


def _config(args, **extra) -> dict:
    cfg = dict(extra)
    # jobs changes nothing observable, so the deterministic flag hides it
    if not args.deterministic:
        cfg["jobs"] = args.jobs
    return cfg


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("-k", type=int, default=1, help="matching size parameter")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--output", "-o", default=None, help="write here instead of stdout")


def _add_parallel(sub, jobs_default):
    # only sweep, grid and report fan work out to processes
    sub.add_argument("--jobs", type=int, default=jobs_default,
                     help="worker processes (FRACEXT_JOBS)")
    sub.add_argument("--deterministic", action="store_true",
                     help="byte-identical output across runs and --jobs values")


def build_parser() -> argparse.ArgumentParser:
    jobs_default = int(os.environ.get("FRACEXT_JOBS", "1"))
    ap = argparse.ArgumentParser(prog="fracext",
                                 description=__doc__.splitlines()[0])
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="classify one graph6 line ('-' reads stdin)")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("extremal", help="emit a family graph and its invariants")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-s", type=int, default=None, help="join clique size")
    p.add_argument("--delta", type=int, default=None, help="alias for -s")
    _add_common(p)
    p.set_defaults(fn=cmd_extremal)

    p = subs.add_parser("sweep", help="run one bound over a graph6 corpus")
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("corpus",
                   help="path, '-', 'connected:N', or 'complement:N:BUDGET'")
    _add_common(p)
    _add_parallel(p, jobs_default)
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("grid", help="verify a comparison inequality on a grid")
    p.add_argument("--lemma", choices=LEMMA_IDS, required=True)
    p.add_argument("-n", type=int, required=True, help="largest order")
    p.add_argument("--delta", type=int, default=None, help="largest minimum degree")
    _add_common(p)
    _add_parallel(p, jobs_default)
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
    _add_parallel(p, jobs_default)
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.output is not None:
            out = open(args.output, "w", encoding="utf-8")
        return args.fn(args, out)
    except (ValueError, OSError, RuntimeError) as exc:
        # Graph6Error and CapacityError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    raise SystemExit(main())
