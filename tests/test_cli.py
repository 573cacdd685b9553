import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from fracext import (ExtremalParams, Verdict, complete, cycle, emit_graph6, extremal_graph,
                     parse_graph6, verify_witness)
from fracext.cli import build_parser, main
from fracext.theorems import GridViolation
from helpers import with_member_cubic

G2_11 = emit_graph6(extremal_graph(ExtremalParams(11, 1, 2)))


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_exit_codes(capsys):
    code, out, _ = run(["check", emit_graph6(complete(6)), "-k", "1"], capsys)
    assert code == 0 and "extendable=True" in out
    code, out, _ = run(["check", G2_11, "-k", "1"], capsys)
    assert code == 1
    code, _, err = run(["check", "{{{", "-k", "1"], capsys)
    assert code == 2 and "error:" in err


def test_check_json_schema(capsys):
    code, out, _ = run(["check", G2_11, "-k", "1", "--format", "json"], capsys)
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "results", "summary"}
    assert doc["command"] == "check"
    assert set(doc["summary"]) == {"scanned", "confirmed", "equality_cases",
                                   "counterexamples"}
    oracles = [r for r in doc["results"] if "oracle" in r]
    assert {r["oracle"] for r in oracles} == {"set_condition", "definitional"}
    assert all(r["extendable"] is False for r in oracles)
    assert oracles[0]["witness_set"] == [0, 1]


def test_check_above_order_20_prints_both_rows(capsys):
    code, out, _ = run(["check", emit_graph6(complete(21)), "-k", "1",
                        "--format", "json"], capsys)
    assert code == 0
    oracles = [r for r in json.loads(out)["results"] if "oracle" in r]
    assert oracles == [{"oracle": name, "extendable": True, "reason": "extendable"}
                       for name in ("set_condition", "definitional")]


def test_check_odd_cycle_above_order_20_has_both_witnesses(capsys):
    g = cycle(21)
    code, out, _ = run(["check", emit_graph6(g), "-k", "1", "--format", "json"], capsys)
    assert code == 1
    by_set, by_matching = [r for r in json.loads(out)["results"] if "oracle" in r]
    assert by_set["oracle"] == "set_condition" and by_set["reason"] == "violating_set"
    assert "witness_matching" not in by_set
    assert by_matching["oracle"] == "definitional"
    assert by_matching["reason"] == "unextendable_matching"
    assert "witness_set" not in by_matching
    s = sum(1 << v for v in by_set["witness_set"])
    assert verify_witness(g, 1, Verdict(False, "violating_set", witness_set=s))
    m = tuple(map(tuple, by_matching["witness_matching"]))
    assert verify_witness(g, 1, Verdict(False, "unextendable_matching", witness_matching=m))


def test_check_dense_k4_keeps_set_condition_verdict(capsys):
    # K_16 has 1351350 4-matchings; the one verdict fills both rows
    code, out, _ = run(["check", emit_graph6(complete(16)), "-k", "4",
                        "--format", "json"], capsys)
    assert code == 0
    oracles = [r for r in json.loads(out)["results"] if "oracle" in r]
    assert oracles == [{"oracle": name, "extendable": True, "reason": "extendable"}
                       for name in ("set_condition", "definitional")]


def test_check_unwritable_output_is_an_input_error(tmp_path, capsys):
    code, out, err = run(["check", G2_11, "-o", str(tmp_path / "no" / "x")], capsys)
    assert code == 2 and err.startswith("error:") and out == ""


def test_check_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(cycle(8)) + "\n"))
    code, out, _ = run(["check", "-", "-k", "1"], capsys)
    assert code == 0


def test_extremal_round_trip(capsys):
    code, out, _ = run(["extremal", "-n", "11", "-k", "1", "-s", "2",
                        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert row["e"] == 47 and row["min_degree"] == 2
    assert parse_graph6(row["graph6"]) == extremal_graph(ExtremalParams(11, 1, 2))
    assert row["q_poly"] == ["1", "-29", "212", "-288"]
    assert row["q"] == pytest.approx(18.2462112512, abs=1e-9)


def test_extremal_reads_its_invariants_from_the_spectral_report(capsys, monkeypatch):
    from fracext import cli
    reports = []

    def recording(g):
        reports.append(cli_spectral_report(g))
        return reports[-1]

    cli_spectral_report = cli.spectral_report
    monkeypatch.setattr(cli, "spectral_report", recording)
    for n, k, s in ((11, 1, 3), (36, 1, 5), (90, 2, 7)):
        reports.clear()
        code, out, _ = run(["extremal", "-n", str(n), "-k", str(k), "-s", str(s),
                            "--format", "json"], capsys)
        [row], [rep] = json.loads(out)["results"], reports
        assert code == 0 and rep == cli_spectral_report(extremal_graph(ExtremalParams(n, k, s)))
        assert (row["n"], row["e"], row["min_degree"]) == (rep.n, rep.e, rep.min_degree)
        # json carries floats at 12 significant digits
        assert (row["q"], row["mu"]) == (float(f"{rep.q_radius:.12g}"),
                                         float(f"{rep.distance_radius:.12g}"))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extremal_at_k_2k_plus_1(k, capsys):
    # s = 2k at the least order 2k+1 is the complete graph K_{2k+1}, q = 4k
    code, out, err = run(["extremal", "-n", str(2 * k + 1), "-k", str(k), "-s", str(2 * k),
                          "--format", "json"], capsys)
    assert code == 0, err
    [row] = json.loads(out)["results"]
    assert row["e"] == k * (2 * k + 1) and row["min_degree"] == 2 * k
    assert row["q"] == pytest.approx(4 * k, abs=1e-9)
    assert row["mu"] == pytest.approx(2 * k, abs=1e-9)


def test_closed_stdout_is_not_an_error():
    # a reader that exits before the first write (``fracext ... | head -0``)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fracext.cli", "extremal", "-n", "35", "-k", "1",
         "-s", "3", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert code not in (1, 2), (code, err)
    assert "error:" not in err, err


def test_extremal_large_order_graph6_round_trips(capsys):
    code, out, _ = run(["extremal", "-n", "70", "-k", "1", "--delta", "3",
                        "--format", "json"], capsys)
    assert code == 0
    g6 = json.loads(out)["results"][0]["graph6"]
    assert parse_graph6(g6) == extremal_graph(ExtremalParams(70, 1, 3))


def test_check_reads_order_100(capsys):
    g = cycle(100)
    code, _, _ = run(["check", emit_graph6(g), "-k", "1"], capsys)
    assert code == 0
    code, out, _ = run(["check", emit_graph6(g), "-k", "2", "--format", "json"], capsys)
    assert code == 1
    by_set, by_matching = [r for r in json.loads(out)["results"] if "oracle" in r]
    s = sum(1 << v for v in by_set["witness_set"])
    assert verify_witness(g, 2, Verdict(False, by_set["reason"], witness_set=s))
    m = tuple(map(tuple, by_matching["witness_matching"]))
    assert verify_witness(g, 2, Verdict(False, by_matching["reason"], witness_matching=m))


def test_check_malformed_long_header_exits_2(capsys):
    code, _, err = run(["check", "~??}" + "?" * 314, "-k", "1"], capsys)
    assert code == 2 and "error:" in err and "byte offset 1" in err


def test_extremal_clique_size_is_one_option(capsys):
    # -s and --delta spell one option, so the later one wins like any repeat
    for argv, s in ((["-s", "2", "--delta", "5"], 5), (["--delta", "5", "-s", "2"], 2)):
        code, out, _ = run(["extremal", "-n", "11", "-k", "1", *argv, "--format", "json"],
                           capsys)
        assert code == 0 and json.loads(out)["config"]["s"] == s


def test_extremal_requires_clique_size(capsys):
    code, _, err = run(["extremal", "-n", "11", "-k", "1"], capsys)
    assert code == 2 and "error:" in err


def test_extremal_order_error_names_the_requested_order(capsys):
    # n = 200 with s = 3 has an inner clique of order 195; the error is about 200
    code, _, err = run(["extremal", "-n", "200", "-k", "1", "-s", "3"], capsys)
    assert code == 2 and "order 200 outside 0..128" in err


def test_polys_text_and_errors(capsys):
    code, out, _ = run(["polys", "f2", "-n", "11", "-k", "1"], capsys)
    assert code == 0
    assert out.splitlines()[:4] == ["command: polys", "  family: f2", "  k: 1", "  n: 11"]
    assert out.splitlines()[-1] == "coefficients=1;-29;212;-288, largest_root=18.2462112512"
    code, _, err = run(["polys", "f2", "-n", "3", "-k", "1"], capsys)
    assert code == 2 and "error:" in err
    # a parameter the family does not take is an error, not silently dropped
    code, out, err = run(["polys", "f2", "-n", "11", "-k", "1", "-s", "5", "--delta", "9"],
                         capsys)
    assert code == 2 and out == "" and "f2 takes no s" in err
    code, _, err = run(["polys", "f_pi_prime_1", "-n", "7", "-k", "1", "-s", "3"], capsys)
    assert code == 2 and "f_pi_prime_1 takes no n" in err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["polys", "nope", "-k", "1"])


@pytest.mark.parametrize("argv, md5", [
    ("polys f2 -n 11 -k 1", "75fe05e4f766287b18536ab91b43acf4"),
    ("polys f_pi_1 -n 11 -k 1 -s 3", "fa9280c894b9cf4a95bb693599073f36"),
    ("polys f_pi_prime_1 -k 2 -s 5", "9ce2fbd6810e2206be614abe298d608a"),
    ("polys f3_q -n 20 -k 1 --delta 3", "eea152537eb9ccd3c78baa87284016e5"),
    ("polys phi_B1 -n 11 -k 1 -s 3", "6fe2e82840f04cb63e51a8c5b4343d54"),
    ("polys phi_B3_case1 -n 35 -k 1 --delta 3", "cd700923807ec45d9dc2479540698566"),
    ("polys phi_B3_case2 -k 1 -s 4 --delta 3", "87763d32ce0587319468e567c000c553"),
    ("extremal -n 35 -k 1 -s 3", "5662256fdac1e7635107b2bde025fcab"),
])
def test_polys_and_extremal_json_bytes_are_pinned(argv, md5, capsys):
    code, out, _ = run(argv.split() + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_polys_orders_stop_below_two_to_the_eighteen(capsys):
    # family_coefficients's int64 guard: every closed form is one member's cubic
    code, out, _ = run(["polys", "f2", "-n", "262143", "-k", "1", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["config"]["n"] == 262143
    code, out, err = run(["polys", "f2", "-n", "262144", "-k", "1"], capsys)
    assert code == 2 and out == "" and err.startswith("error:")
    # an order past int64 is refused the same way, not overflowed
    code, out, err = run(["polys", "phi_B1", "-n", str(10 ** 22), "-k", "1", "-s", "3"], capsys)
    assert code == 2 and out == "" and err.startswith("error:")


def test_sweep_file_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("# demo corpus\n" + G2_11 + "\nbroken line\n"
                      + emit_graph6(complete(11)) + "\n")
    code, out, _ = run(["sweep", "--theorem", "edge_1", "-k", "1",
                        str(corpus), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["scanned"] == 2
    assert doc["summary"]["equality_cases"] == 1
    assert doc["summary"]["parse_errors"] == 1
    assert doc["parse_errors"][0]["line"] == 3
    assert doc["results"][0]["status"] == "equality_case"


def test_sweep_above_order_62_carries_graph6(tmp_path, capsys):
    family = extremal_graph(ExtremalParams(100, 1, 2))
    corpus = tmp_path / "c.g6"
    corpus.write_text(emit_graph6(family) + "\n" + emit_graph6(cycle(100)) + "\n")
    code, out, _ = run(["sweep", "--theorem", "edge_1", "-k", "1",
                        str(corpus), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["scanned"] == 2
    eq = [r for r in doc["results"] if r["status"] == "equality_case"]
    assert len(eq) == 1 and parse_graph6(eq[0]["graph6"]) == family


def test_sweep_stdin(capsys, monkeypatch):
    import io
    # a text stream over bytes, like the real stdin: sweep reads its buffer
    lines = G2_11 + "\n" + emit_graph6(cycle(11)) + "\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(lines.encode())))
    code, out, _ = run(["sweep", "--theorem", "edge_1", "-k", "1", "-",
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["scanned"] == 2


def test_sweep_non_ascii_line_is_a_parse_error(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    bad = G2_11.encode()[:4] + b"\xff" + G2_11.encode()[5:]
    corpus.write_bytes(b"\n".join([G2_11.encode(), bad, emit_graph6(cycle(11)).encode(), b""]))
    code, out, _ = run(["sweep", "--theorem", "edge_1", "-k", "1",
                        str(corpus), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["scanned"] == 2 and doc["summary"]["parse_errors"] == 1
    assert doc["parse_errors"][0]["line"] == 2
    assert doc["parse_errors"][0]["error"].endswith("(byte offset 4)")


def test_sweep_missing_file(capsys):
    code, _, err = run(["sweep", "--theorem", "edge_1", "-k", "1",
                        "/no/such/file.g6"], capsys)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("corpus, form", [
    ("complement:6:-2", "complement:N:BUDGET"),   # negative budget
    ("complement:6", "complement:N:BUDGET"),      # missing field
    ("connected:x", "connected:N"),               # not an integer
    ("connected:-1", "connected:N"),              # negative order
    ("connected:8:1", "connected:N"),             # extra field
])
def test_sweep_malformed_generated_corpus(corpus, form, capsys):
    code, out, err = run(["sweep", "--theorem", "edge_1", "-k", "1", corpus], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and form in err


@pytest.mark.parametrize("corpus", ["connected:129", "complement:129:0"])
def test_sweep_generated_corpus_above_the_order_cap_exits_2(corpus, capsys):
    # the order is checked before any smaller order is enumerated
    code, out, err = run(["sweep", "--theorem", "q_1", corpus], capsys)
    assert code == 2 and out == ""
    assert err == "error: order 129 outside 0..128\n"


def test_sweep_connected_0_scans_the_order_0_graph(capsys):
    code, out, _ = run(["sweep", "--theorem", "q_1", "connected:0", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["summary"]["scanned"] == 1


def test_generated_sweeps_skip_the_graph_decoder(monkeypatch, capsys):
    # the sweep path does not decode forms one by one: with
    # from_triangle_bits refusing, both pinned sweeps still print their
    # pinned bytes
    import fracext
    from fracext import corpus, graph6

    def refuse(*args):
        raise AssertionError("called on the sweep path")

    decoder = graph6.from_triangle_bits
    for module in (fracext, *(getattr(fracext, name) for name in
                              ("graphs", "graph6", "matching", "spectral", "corpus", "theorems", "cli"))):
        for name, value in list(vars(module).items()):
            if value is decoder:
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(corpus, "_ALL_CACHE", {})
    for argv, md5 in (("q_1 connected:8", "4cac817ffbafb016d0e53d3819c8ff67"),
                      ("edge_1 complement:11:8", "fdda3589a41af84e8542f2e6b800f873")):
        theorem, corpus_arg = argv.split()
        code, out, _ = run(["sweep", "--theorem", theorem, corpus_arg, "--format", "json"], capsys)
        assert code == 0 and hashlib.md5(out.encode()).hexdigest() == md5


def test_sweep_keeps_input_order_over_several_chunks(tmp_path):
    # 200 graphs each of orders 11 and 12, alternating: two chunks per order
    # (186 and 170 graphs fill one), with equality cases at both orders
    per_order = [[extremal_graph(ExtremalParams(n, 1, 2)), complete(n), cycle(n),
                  extremal_graph(ExtremalParams(n, 1, 3))] for n in (11, 12)]
    lines = [emit_graph6(per_order[i % 2][(i // 2) % 4]) for i in range(400)]
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(line + "\n" for line in lines))
    out_file = tmp_path / "r.json"
    assert main(["sweep", "--theorem", "edge_1", "-k", "1", str(corpus),
                 "--format", "json", "-o", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["summary"]["scanned"] == 400
    assert [r["n"] for r in doc["results"]][:4] == [11, 12, 11, 12]


def test_grid_text_and_csv(capsys):
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "14"], capsys)
    assert code == 0 and "counterexamples: 0" in out
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "14",
                        "--format", "csv"], capsys)
    assert code == 0
    assert out.strip() == ""  # no violations means no csv rows beyond none


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_grid_without_strict_rows_is_strict_json(capsys):
    for argv in (["--lemma", "q1q2", "-k", "1", "-n", "7"],
                 ["--lemma", "mu_compare", "-k", "1", "-n", "10", "--delta", "3"]):
        code, out, _ = run(["grid", *argv, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["summary"]["scanned"] == 0
        assert doc["summary"]["min_strict_margin"] is None
        code, out, _ = run(["grid", *argv], capsys)
        assert code == 0 and "min_strict_margin: inf\n" in out
    code, out, err = run(["grid", "--lemma", "q1q2", "-k", "0", "-n", "20"], capsys)
    assert code == 2 and out == "" and "k must be at least 1" in err


def test_grid_rejects_a_delta_bound_its_lemma_does_not_take(capsys):
    # q1q2 has no delta, so a --delta there is an error, not echoed and ignored
    code, out, err = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "10", "--delta", "5"],
                         capsys)
    assert code == 2 and out == "" and "q1q2 grid takes no delta bound" in err
    code, out, err = run(["grid", "--lemma", "q1q3", "-k", "1", "-n", "40"], capsys)
    assert code == 2 and out == "" and "q1q3 grid needs a delta bound" in err


def _floats(x):
    """Every float inside parsed json."""
    if isinstance(x, float):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _floats(v)
    elif isinstance(x, list):
        for v in x:
            yield from _floats(v)


@pytest.mark.parametrize("argv", [
    ["check", "J~~~~~~~}??", "-k", "1"],
    ["extremal", "-n", "11", "-k", "1", "-s", "3"],
    ["sweep", "--theorem", "q_1", "-k", "1", "-"],
    ["grid", "--lemma", "q1q2", "-k", "1", "-n", "12"],
    ["polys", "f2", "-n", "11", "-k", "1"],
    ["report", "-k", "1"],
], ids=lambda argv: argv[0])
def test_json_floats_carry_12_significant_digits(argv, capsys, monkeypatch):
    # the sweep reads the q_1 equality case of order 8, whose value is a float
    g6 = emit_graph6(extremal_graph(ExtremalParams(8, 1, 2))) + "\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(g6.encode())))
    code, out, err = run([*argv, "--format", "json"], capsys)
    assert code in (0, 1), err
    floats = list(_floats(json.loads(out, parse_constant=_reject_constant)))
    assert floats
    assert all(float(f"{x:.12g}") == x for x in floats), floats


def test_emit_writes_a_non_finite_float_as_null_in_json_only():
    from fracext.cli import _emit
    doc = {"command": "t", "config": {}, "results": [{"a": float("inf"), "b": 1.0}],
           "summary": {"scanned": 1}}
    out = io.StringIO()
    _emit(doc, "json", out)
    assert json.loads(out.getvalue(), parse_constant=_reject_constant)["results"] == [
        {"a": None, "b": 1.0}]
    out = io.StringIO()
    _emit(doc, "text", out)
    assert out.getvalue().splitlines()[-1] == "a=inf, b=1"
    out = io.StringIO()
    _emit(doc, "csv", out)
    assert list(csv.DictReader(io.StringIO(out.getvalue()))) == [{"a": "inf", "b": "1"}]


def test_text_leaves_nulls_out_of_config_and_summary(capsys):
    from fracext.cli import _emit
    doc = {"command": "t", "config": {"a": None, "b": 2}, "results": [{"c": None, "d": 1}],
           "summary": {"x": None, "y": 1.5}}
    out = io.StringIO()
    _emit(doc, "text", out)
    assert out.getvalue() == "command: t\n  b: 2\ny: 1.5\nd=1\n"
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "7"], capsys)
    assert code == 0 and "None" not in out and "delta_max" not in out
    assert out.startswith("command: grid\n  lemma: q1q2\n  k_max: 1\n  n_max: 7\nscanned: 0\n")


def test_grid_csv_rows_on_forced_violations(capsys, monkeypatch):
    # an absurd crosscheck tolerance turns every grid point into a violation
    from fracext import theorems
    monkeypatch.setattr(theorems, "CROSSCHECK_TOL", 1e-18)
    violations = theorems.lemma_grid("q1q2", k_max=1, n_max=12).violations
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "12",
                        "--format", "csv"], capsys)
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(violations) > 0
    assert {"kind", "row.lhs"} <= set(rows[0])
    assert [r["kind"] for r in rows] == [v.kind for v in violations]


def test_report_quick(capsys):
    code, out, _ = run(["report", "-k", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    sections = {r["section"] for r in doc["results"]}
    assert sections == {"edge_identities", "sharpness", "grid", "gap_probe",
                        "sampling"}
    probes = [r for r in doc["results"] if r["section"] == "gap_probe"]
    assert probes == [
        {"section": "gap_probe", "kind": "q", "delta": 3, "rows": 13,
         "min_margin": 1.19636602346, "all_hold": True, "asserted": False},
        {"section": "gap_probe", "kind": "mu", "delta": 3, "rows": 174,
         "min_margin": 0.832498093404, "all_hold": True, "asserted": False}]
    assert doc["config"] == {"k": 1, "full": False, "seed": 0}
    assert doc["summary"]["confirmed"] == doc["summary"]["scanned"] == 14


def test_report_shows_a_failing_probe_and_still_confirms_it(capsys, monkeypatch):
    # one mu probe row falls below its right-hand side: the section says so,
    # but a probe asserts nothing, so the summary and exit code are unchanged
    from fracext import theorems
    monkeypatch.setattr(theorems, "family_coefficients", with_member_cubic(
        theorems.family_coefficients, "mu", (19, 1, 5), (-23, 62, -40)))   # (x-20)(x-2)(x-1)
    code, out, _ = run(["report", "-k", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    probes = {r["kind"]: r for r in doc["results"] if r["section"] == "gap_probe"}
    assert probes["q"]["all_hold"] is True
    assert probes["mu"]["all_hold"] is False and probes["mu"]["min_margin"] < 0
    assert doc["summary"] == {"scanned": 14, "confirmed": 14, "equality_cases": 0,
                              "counterexamples": 0}


# the benchmark's grid-delta commands
GRID_DELTA_ARGV = (["grid", "--lemma", "q1q2", "-k", "3", "-n", "40"],
                   ["grid", "--lemma", "q1q3", "-k", "1", "-n", "90", "--delta", "3"],
                   ["grid", "--lemma", "mu_compare", "-k", "1", "-n", "90", "--delta", "3"])


@pytest.mark.parametrize("argv, md5", zip(GRID_DELTA_ARGV, (
    "1a20820d54769c21e887739093fead04",
    "19cbf41b248902ec048decca2800256e",
    "ea144e7790b204dc250962b66e44dd3f")))
def test_grid_delta_json_bytes_are_pinned(argv, md5, capsys):
    # int64 cubics and bisection only, no LAPACK: the bytes do not depend on the BLAS build
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize("fmt, md5", [
    ("json", "34034f190a71cabb84f3f5e0f012f2c2"),
    ("csv", "b2d6c4b152d328a89d0a6a2efeb94b32"),
])
def test_grid_crosscheck_violation_bytes_are_pinned(fmt, md5, capsys, monkeypatch):
    # an absurd crosscheck tolerance makes every grid point a violation row
    from fracext import theorems
    monkeypatch.setattr(theorems, "CROSSCHECK_TOL", 1e-18)
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "12", "--format", fmt],
                       capsys)
    assert code == 1
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize("fmt, md5", [
    ("json", "604447f5ae29641e695e9d77437a1e9b"),
    ("csv", "b25f8c1a8a816e6caa14c051bbcf3139"),
])
def test_grid_inequality_violation_bytes_are_pinned(fmt, md5, capsys, monkeypatch):
    # one left-hand member's mu drops to 20, below its right-hand side
    from fracext import theorems
    monkeypatch.setattr(theorems, "family_coefficients", with_member_cubic(
        theorems.family_coefficients, "mu", (36, 1, 5), (-23, 62, -40)))   # (x-20)(x-2)(x-1)
    code, out, _ = run(["grid", "--lemma", "mu_compare", "-k", "1", "-n", "40", "--delta", "3",
                        "--format", fmt], capsys)
    assert code == 1 and out.count("inequality") == 1
    assert hashlib.md5(out.encode()).hexdigest() == md5


def _counting(monkeypatch, module, name):
    """A list that grows by one at each call of module.name."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_grid_rows_are_built_for_violations_only(capsys, monkeypatch):
    from fracext import theorems
    rows, compares = (_counting(monkeypatch, theorems, name) for name in ("GridRow", "_compare"))
    for argv in GRID_DELTA_ARGV:
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0 and json.loads(out)["summary"]["scanned"] > 1000
    assert len(rows) == 0 and len(compares) == 3   # one _compare per grid
    monkeypatch.setattr(theorems, "CROSSCHECK_TOL", 1e-18)
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "12", "--format", "json"],
                       capsys)
    assert code == 1 and len(rows) == json.loads(out)["summary"]["scanned"] > 0
    assert len(compares) == 4


def test_sweep_certificates_leave_few_graphs_to_the_eigensolver(capsys, monkeypatch):
    from fracext import theorems
    settled, solved = [], []
    real_sides, real_eig = theorems._bound_sides, theorems.largest_eigenvalues

    def sides(*args):
        values, thr, out = real_sides(*args)
        settled.extend("open" if value is not None else side for value, side in zip(values, out))
        return values, thr, out

    monkeypatch.setattr(theorems, "_bound_sides", sides)
    monkeypatch.setattr(theorems, "largest_eigenvalues", lambda M: solved.append(len(M)) or real_eig(M))
    # every connected graph of order 8 is past q_1's hypotheses at k = 1: the
    # certificates at t = 2 prove all but 7 of them below or above the bound,
    # and the eigensolver sees those 7 only, the equality case among them
    code, out, _ = run(["sweep", "--theorem", "q_1", "-k", "1", "connected:8", "--format", "json"],
                       capsys)
    assert code == 0 and json.loads(out)["summary"]["equality_cases"] == 1
    assert Counter(settled) == {-1: 11_097, 1: 13, "open": 7} and sum(solved) == 7
    # no graph of order 7 is, so its stacks skip the bound test
    settled.clear()
    solved.clear()
    code, _, _ = run(["sweep", "--theorem", "q_1", "-k", "1", "connected:7", "--format", "json"],
                     capsys)
    assert code == 0 and not settled and not solved
    # every draw of the order-35 samplers past the hypotheses is proven above mu's bound
    for s in (3, 4, 5):
        rep = theorems.sample_spanning_subgraphs(ExtremalParams(35, 1, s),
                                                 theorems.theorem_spec("mu", 1), samples=1000)
        assert dict(rep.statuses)["bound_not_met"] > 0
    assert settled and set(settled) == {1} and not solved


@pytest.mark.parametrize("argv,md5", [
    (["sweep", "--theorem", "q_1", "-k", "1", "connected:8"],
     "4cac817ffbafb016d0e53d3819c8ff67"),
    (["sweep", "--theorem", "edge_1", "-k", "1", "complement:11:8"],
     "fdda3589a41af84e8542f2e6b800f873"),
])
def test_sweep_json_bytes_are_pinned(argv, md5, capsys):
    # the kept results carry the graph6 of the corpus's own vertex labels
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize("k_max, md5", [
    (1, "ed228f84c06a8d12dedd14fc9c1fdbc6"),
    (2, "b25c65f04bc23e87062bcbaae3302911"),
])
def test_report_json_bytes_are_pinned(k_max, md5, capsys):
    # the sampling sections' draws, rejections and statuses are in these bytes
    code, out, _ = run(["report", "-k", str(k_max), "--format", "json"], capsys)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_report_counts_a_failing_grid_as_unconfirmed(capsys, monkeypatch):
    # one violation per grid: three of the fourteen sections fail their check
    from fracext import cli
    real_grid = cli.lemma_grid

    def failing_grid(*args, **kwargs):
        rep = real_grid(*args, **kwargs)
        return replace(rep, violations=(GridViolation("inequality", rep.rows[0]),))

    monkeypatch.setattr(cli, "lemma_grid", failing_grid)
    code, out, _ = run(["report", "-k", "1", "--format", "json"], capsys)
    assert code == 1
    summary = json.loads(out)["summary"]
    assert summary["confirmed"] < summary["scanned"]
    assert summary == {"scanned": 14, "confirmed": 11, "equality_cases": 0,
                       "counterexamples": 3}


@pytest.mark.parametrize("k_max", [1, 2])
def test_empty_grid_scans_nothing(k_max, capsys):
    # no order reaches the least order 2k+6, so the grid has no member to solve
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", str(k_max), "-n", "5"],
                       capsys)
    assert code == 0 and "scanned: 0\n" in out


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--theorem", "q_1", "connected:4"],
     {"theorem": "q_1", "k": 1, "corpus": "connected:4"}),
    (["grid", "--lemma", "q1q2", "-n", "7"],
     {"lemma": "q1q2", "k_max": 1, "n_max": 7, "delta_max": None}),
])
def test_config_carries_no_job_count(argv, config, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0 and json.loads(out)["config"] == config


def test_parser_is_built_once():
    assert build_parser() is build_parser()
