import json

import pytest

from fracext import ExtremalParams, complete, cycle, emit_graph6, extremal_graph, parse_graph6
from fracext.cli import build_parser, main

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


def test_check_above_scan_order_runs_definitional_only(capsys):
    code, out, _ = run(["check", emit_graph6(complete(21)), "-k", "1",
                        "--format", "json"], capsys)
    assert code == 0
    oracles = [r for r in json.loads(out)["results"] if "oracle" in r]
    assert [r["oracle"] for r in oracles] == ["definitional"]
    assert oracles[0]["extendable"] is True


def test_check_dense_k4_keeps_set_condition_verdict(capsys):
    # K_16 has 1351350 4-matchings; both oracles decide it
    code, out, _ = run(["check", emit_graph6(complete(16)), "-k", "4",
                        "--format", "json"], capsys)
    assert code == 0
    oracles = [r for r in json.loads(out)["results"] if "oracle" in r]
    assert oracles == [{"oracle": name, "extendable": True, "reason": "extendable"}
                       for name in ("set_condition", "definitional")]


def test_check_unwritable_output_is_an_input_error(tmp_path, capsys):
    code, out, err = run(["check", G2_11, "-o", str(tmp_path / "no" / "x")], capsys)
    assert code == 2 and err.startswith("error:") and out == ""


def test_tol_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", G2_11, "--tol", "1e-9"])
    assert exc.value.code == 2


def test_parallel_options_only_where_they_act(capsys):
    for cmd in (["check", G2_11], ["extremal", "-n", "11", "-s", "2"], ["polys", "f2", "-n", "11"]):
        for opt in (["--jobs", "2"], ["--deterministic"]):
            with pytest.raises(SystemExit) as exc:
                main(cmd + opt)
            assert exc.value.code == 2
    args = build_parser().parse_args(["report", "--jobs", "2", "--deterministic"])
    assert args.jobs == 2 and args.deterministic


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


def test_extremal_large_order_has_no_graph6(capsys):
    code, out, _ = run(["extremal", "-n", "70", "-k", "1", "--delta", "3",
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["graph6"] is None


def test_extremal_requires_clique_size(capsys):
    code, _, err = run(["extremal", "-n", "11", "-k", "1"], capsys)
    assert code == 2 and "error:" in err


def test_polys_text_and_errors(capsys):
    code, out, _ = run(["polys", "f2", "-n", "11", "-k", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "1, -29, 212, -288"
    code, _, err = run(["polys", "f2", "-n", "3", "-k", "1"], capsys)
    assert code == 2 and "error:" in err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["polys", "nope", "-k", "1"])


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


def test_sweep_deterministic_across_jobs(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(line + "\n" for line in
                              [G2_11, emit_graph6(complete(11)),
                               emit_graph6(cycle(11))] * 4))
    outs = []
    for jobs in ("1", "3"):
        out_file = tmp_path / f"r{jobs}.json"
        code = main(["sweep", "--theorem", "edge_1", "-k", "1", str(corpus),
                     "--jobs", jobs, "--deterministic", "--format", "json",
                     "-o", str(out_file)])
        assert code == 0
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_grid_text_and_csv(capsys):
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "14"], capsys)
    assert code == 0 and "counterexamples: 0" in out
    code, out, _ = run(["grid", "--lemma", "q1q2", "-k", "1", "-n", "14",
                        "--format", "csv"], capsys)
    assert code == 0
    assert out.strip() == ""  # no violations means no csv rows beyond none


def test_grid_csv_rows_on_forced_violations(capsys):
    # cheat the crosscheck tolerance to produce rows worth printing
    from fracext.theorems import lemma_grid
    rep = lemma_grid("q1q2", k_max=1, n_max=12, crosscheck_tol=1e-18)
    assert rep.violations


def test_report_quick(capsys):
    code, out, _ = run(["report", "-k", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    sections = {r["section"] for r in doc["results"]}
    assert sections == {"edge_identities", "sharpness", "grid", "gap_probe",
                        "sampling"}
    probes = [r for r in doc["results"] if r["section"] == "gap_probe"]
    assert all(r["asserted"] is False for r in probes)


def test_jobs_default_from_environment(monkeypatch):
    monkeypatch.setenv("FRACEXT_JOBS", "7")
    args = build_parser().parse_args(["grid", "--lemma", "q1q2", "-n", "12"])
    assert args.jobs == 7
    monkeypatch.delenv("FRACEXT_JOBS")
    args = build_parser().parse_args(["grid", "--lemma", "q1q2", "-n", "12"])
    assert args.jobs == 1
