import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import coeffs

from nterm.approx import FunctionClassSpec, class_best_nterm_sp
from nterm.cli import main
from nterm.weights import WeightFunction


def test_shells_frozen_csv(capsys):
    assert main(["shells", "--d", "1", "--m-max", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "m,nu,V\n0,1,1\n1,2,3\n2,2,5\n3,2,7\n"


def test_shells_json_mirror(tmp_path, capsys):
    jpath = tmp_path / "shells.json"
    assert main(["shells", "--d", "2", "--m-max", "4", "--r", "1",
                 "--json-out", str(jpath)]) == 0
    capsys.readouterr()
    doc = json.loads(jpath.read_text())
    assert doc["metadata"]["command"] == "shells"
    assert doc["metadata"]["m_max"] == 4
    assert doc["metadata"]["r"] == 1.0
    assert doc["metadata"]["d"] == 2
    assert doc["result"]["nu"] == [1, 4, 8, 12, 16]
    assert doc["result"]["V"] == [1, 5, 13, 25, 41]
    assert "M0" in doc["result"]["fit"]


def test_metadata_round_trips_every_flag(tmp_path, capsys):
    jpath = tmp_path / "h.json"
    argv = ["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5",
            "--r", "inf", "--d", "1", "--p-power", "2.0", "--tol", "1e-8",
            "--scan-budget", "50000", "--json-out", str(jpath)]
    assert main(argv) == 0
    capsys.readouterr()
    meta = json.loads(jpath.read_text())["metadata"]
    assert meta["psi"] == "power:s=2"
    assert meta["n"] == 4
    assert meta["s"] == 0.5
    assert meta["r"] == "inf"
    assert meta["p_power"] == 2.0
    assert meta["tol"] == 1e-8
    assert meta["scan_budget"] == 50000
    assert meta["budget"] is None


def test_parse_and_validation_exit_2(capsys):
    assert main(["en-class", "--q", "1", "--p", "1", "--n", "2"]) == 2
    assert "missing required flags" in capsys.readouterr().err
    assert main(["hfunc", "--psi", "bogus:weight", "--n", "2", "--s", "0.5"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["shells", "--m-max", "4", "--r", "-3"]) == 2
    capsys.readouterr()
    assert main(["shells", "--m-max", "0"]) == 2
    capsys.readouterr()


def test_greedy_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"entries": [3, -4, 1]}))
    assert main(["greedy", "--in", str(path), "--n", "0", "--p", "2"]) == 2
    assert "cannot read coefficient file" in capsys.readouterr().err


@pytest.mark.parametrize("entries, named", [
    ('{"k": [0], "re": NaN, "im": 0.0}, {"k": [1], "re": 1.0, "im": 0.0}',
     "coefficient entry 0 (k=[0]): coefficient (nan+0j) is not finite"),
    ('{"k": [1], "re": 1.0, "im": 0.0}, {"k": [0.7], "re": 1.0, "im": 0.0}',
     "coefficient entry 1 (k=[0.7]): index component 0.7 is not an integer"),
    ('{"k": [2], "re": 1.0, "im": 0.0}, {"k": [3], "re": 1.0, "im": 0.0}, {"k": [2.0], "re": 5.0, "im": 0.0}',
     "coefficient entries 0 and 2 repeat the index [2]"),
    ('{"k": [9223372036854775808], "re": 1.0, "im": 0.0}',
     "coefficient entry 0 (k=[9223372036854775808]): index component 9223372036854775808 is not an integer"),
    ('{"k": [1], "re": "1.0", "im": 0.0}', "coefficient entry 0: re='1.0' is not a finite number"),
])
def test_greedy_rejects_bad_coefficient_file(entries, named, tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(f'{{"d": 1, "entries": [{entries}]}}')
    assert main(["greedy", "--in", str(path), "--n", "1", "--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"cannot read coefficient file {path}: {named}" in err


def test_greedy_order_sorts_the_support(tmp_path, capsys):
    keys = [(a, b) for a in range(-4, 5) for b in range(-3, 4)]
    entries = {k: complex((3 * k[0] + k[1]) % 5, k[0] % 2) / (1 + abs(k[1])) for k in keys}
    fpath = tmp_path / "f.json"
    fpath.write_text(coeffs(2, entries).to_json())
    jpath = tmp_path / "g.json"
    assert main(["greedy", "--in", str(fpath), "--n", "5", "--p", "1", "--json-out", str(jpath)]) == 0
    capsys.readouterr()
    order = [tuple(k) for k in json.loads(jpath.read_text())["result"]["order"]]
    support = [k for k, v in entries.items() if v != 0]
    assert sorted(order) == sorted(support)
    amps = [abs(entries[k]) for k in order]
    assert amps == sorted(amps, reverse=True)


def test_overflowing_scaled_log_exit_1_json_record(capsys):
    # s * log psi beyond the float range is a typed error naming the
    # weight and s, not a RuntimeWarning and an unrelated NoThresholdError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["hfunc", "--psi", "power:s=1e306", "--n", "5", "--s", "200"]) == 1
        assert main(["hfunc", "--psi", "power:s=1e302", "--n", "5", "--s", "1.0000001"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    records = [json.loads(line)["error"] for line in err.strip().splitlines()]
    assert records == [
        {"type": "OverflowError",
         "message": "s=200 times the log of weight power:s=1e+306 leaves the float range"},
        {"type": "OverflowError",
         "message": "s'=1e+07 times the log of weight power:s=1e+302 leaves the float range"},
    ]


def test_compute_error_exit_1_json_record(capsys):
    # p < q with a divergent convergence condition
    code = main(["en-class", "--psi", "power:s=1", "--q", "1", "--p", "0.5", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    record = json.loads(captured.err.strip())
    assert record["error"]["type"] == "DivergentTailError"
    assert record["error"]["message"]

    # a generic quasi-norm order forces lattice enumeration, so the
    # point budget applies
    code = main(["shells", "--d", "2", "--r", "1.5", "--m-max", "200", "--budget", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err.strip())["error"]["type"] == "BudgetExceededError"


def test_greedy_frozen(tmp_path, capsys):
    f = coeffs(1, {(0,): 3.0, (2,): -4.0})
    fpath = tmp_path / "f.json"
    fpath.write_text(f.to_json())
    jpath = tmp_path / "g.json"
    assert main(["greedy", "--in", str(fpath), "--n", "0,1,2", "--p", "2",
                 "--json-out", str(jpath)]) == 0
    out = capsys.readouterr().out
    assert out == "n,remainder\n0,5\n1,3\n2,0\n"
    doc = json.loads(jpath.read_text())
    assert doc["result"]["order"] == [[2], [0]]
    assert main(["greedy", "--in", str(tmp_path / "missing.json"), "--n", "1", "--p", "2"]) == 2
    capsys.readouterr()


def test_en_class_matches_library(capsys):
    assert main(["en-class", "--psi", "power:s=2", "--q", "1", "--p", "2",
                 "--n", "2,4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "n,en"
    psi = WeightFunction("power", s=2.0)
    spec = FunctionClassSpec(q=1.0, r=math.inf, psi=psi, d=1)
    for line, n in zip(lines[1:], (2, 4)):
        got = float(line.split(",")[1])
        want = class_best_nterm_sp(spec, n, 2.0, tol=1e-9, scan_budget=1_000_000).value
        assert got == pytest.approx(want, rel=1e-15)


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psi": "power:s=2", "n": "4", "s": 0.25, "d": 1}))
    assert main(["hfunc", "--config", str(cfg), "--s", "0.5"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["metadata"]["s"] == 0.5          # explicit flag wins
    assert merged["metadata"]["psi"] == "power:s=2"
    assert merged["metadata"]["n"] == 4

    assert main(["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert merged["result"] == direct["result"]

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["hfunc", "--config", str(bad), "--psi", "power:s=2",
                 "--n", "4", "--s", "0.5"]) == 2
    capsys.readouterr()


def test_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psi": "power:s=2", "n": "4", "s": "0.5", "d": "1", "r": "inf"}))
    assert main(["hfunc", "--config", str(cfg)]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert (meta["n"], meta["s"], meta["d"], meta["r"]) == (4, 0.5, 1, "inf")

    cfg.write_text(json.dumps({"psi": "power:s=2", "n": "4.5", "s": 0.5}))
    assert main(["hfunc", "--config", str(cfg)]) == 2
    assert "--n" in capsys.readouterr().err

    cfg.write_text(json.dumps({"psi": "power:s=2", "n": 4, "s": 0.5, "tolerance": 1e-3}))
    assert main(["hfunc", "--config", str(cfg)]) == 2
    assert "tolerance" in capsys.readouterr().err

    # a key of a flag that hfunc does not take, as in older metadata blocks
    cfg.write_text(json.dumps({"psi": "power:s=2", "n": 4, "s": 0.5, "seed": 0}))
    assert main(["hfunc", "--config", str(cfg)]) == 2
    assert "unknown config key 'seed'" in capsys.readouterr().err

    cfg.write_text(json.dumps({"command": "rates", "psi": "power:s=2", "n": 4, "s": 0.5}))
    assert main(["hfunc", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_config_explicit_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psi": "power:s=2", "q": 1, "p": 2, "n": [2, 8], "tol": 1e-3}))
    assert main(["en-class", "--config", str(cfg), "--n", "4", "--tol", "1e-7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,en\n4,") and out.count("\n") == 2
    assert main(["en-class", "--config", str(cfg), "--n", "4", "--tol=1e-7", "--json-out",
                 str(tmp_path / "e.json")]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "e.json").read_text())["metadata"]["tol"] == 1e-7


@pytest.mark.parametrize("argv", [
    ["rates", "--quantity", "class_sp", "--psi", "power:s=2", "--n-grid", "4,16",
     "--q", "2", "--p", "1", "--r", "1", "--d", "2", "--tol", "1e-10"],
    ["lemma51", "--n-grid", "8,16", "--p", "2,3", "--trials", "2", "--seed", "5"],
    ["hfunc", "--psi", "exp:R=1.5", "--n", "7", "--s", "2", "--p-power", "1.5"],
])
def test_metadata_block_as_config_reproduces_result(argv, tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--json-out", str(first)]) == 0
    capsys.readouterr()
    doc = json.loads(first.read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc["metadata"]))
    assert main([argv[0], "--config", str(cfg), "--json-out", str(second)]) == 0
    capsys.readouterr()
    again = json.loads(second.read_text())
    assert json.dumps(again["result"]) == json.dumps(doc["result"])


@pytest.mark.parametrize("argv, limit", [
    (["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5", "--p-power", "0"], "p_power > 0"),
    (["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5", "--p-power", "-1"], "p_power > 0"),
    (["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "inf"], "finite s > 0"),
    (["hfunc", "--psi", "power:s=2", "--n", "3", "--s", "2", "--tol", "0"], "tol > 0"),
    (["hfunc", "--psi", "power:s=2", "--n", "3", "--s", "2", "--tol", "-1"], "tol > 0"),
    (["lemma51", "--n-grid", "0", "--p", "2"], "n >= 1"),
    (["hfunc", "--psi", "power:s=inf", "--n", "1", "--s", "0.5"], "must be finite"),
    (["hfunc", "--psi", "powerlog:s=2,eps=inf", "--n", "1", "--s", "0.5"], "must be finite"),
    (["hfunc", "--psi", "log:eps=-inf", "--n", "1", "--s", "0.5"], "must be finite"),
    (["check-psi", "--psi", "exp:R=inf"], "must be finite"),
    (["check-psi", "--psi", "exp:R=nan"], "must be finite"),
    (["lemma51", "--n-grid", "4", "--p", "2", "--cube-scale", "inf"], "--cube-scale > 0"),
    (["lemma51", "--n-grid", "4", "--p", "2", "--cube-scale", "nan"], "--cube-scale > 0"),
    (["lemma51", "--n-grid", "4", "--p", "2", "--cube-scale", "0"], "--cube-scale > 0"),
    (["check-psi", "--psi", "power:s=2", "--s", "2", "--d", "0"], "d >= 1 and finite s > 0"),
    (["check-psi", "--psi", "power:s=2", "--s", "nan"], "d >= 1 and finite s > 0"),
    (["check-psi", "--psi", "power:s=2", "--s", "-1"], "d >= 1 and finite s > 0"),
    (["check-psi", "--psi", "power:s=2", "--s", "inf"], "d >= 1 and finite s > 0"),
    (["lemma51", "--n-grid", "4", "--p", "inf"], "--p finite and >= 1"),
    (["lemma51", "--n-grid", "4", "--p", "2,nan"], "--p finite and >= 1"),
    (["lemma51", "--n-grid", "4", "--p", "2", "--budget", "0"], "--budget >= 1"),
    (["lemma51", "--n-grid", "4", "--p", "2", "--budget", "-5"], "--budget >= 1"),
    (["shells", "--m-max", "4", "--budget", "0"], "--budget >= 1"),
    (["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5", "--scan-budget", "-5"], "scan_budget >= 1"),
    (["en-class", "--psi", "power:s=2", "--q", "1", "--p", "2", "--n", "4", "--scan-budget", "-1"],
     "scan_budget >= 1"),
    (["rates", "--quantity", "class_sp", "--psi", "power:s=2", "--n-grid", "4", "--q", "1", "--p", "2",
      "--scan-budget", "0"], "scan_budget >= 1"),
])
def test_invalid_inputs_exit_2_naming_the_limit(argv, limit, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert limit in capsys.readouterr().err


def test_shells_table_length_under_budget(capsys):
    assert main(["shells", "--m-max", "20", "--budget", "10"]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "BudgetExceededError"
    assert "needs 21 entries, budget is 10" in record["error"]["message"]


def test_rates_rerun_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["rates", "--quantity", "class_sp", "--psi", "power:s=2",
                     "--n-grid", "4,8,16", "--q", "1", "--p", "2",
                     "--out", str(path)]) == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    text = paths[0].read_text()
    assert text.startswith("n,computed,predicted,ratio\n")
    assert len(text.strip().split("\n")) == 4


def test_lemma51_seeded_rerun(tmp_path, capsys):
    argv = ["lemma51", "--n-grid", "8,16", "--p", "2,4", "--trials", "2",
            "--seed", "3"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert main(argv + ["--json-out", str(tmp_path / "l.json")]) == 0
    assert capsys.readouterr().out == outs[0]
    assert json.loads((tmp_path / "l.json").read_text())["metadata"]["seed"] == 3
    header, first = outs[0].split("\n")[:2]
    assert header == "n,p,trial,norm,ratio"
    assert first.startswith("8,2,0,")
    assert main(["lemma51", "--n-grid", "100", "--p", "2", "--cube-scale", "0.1"]) == 2
    capsys.readouterr()


def test_check_psi(capsys):
    assert main(["check-psi", "--psi", "power:s=2", "--s", "2", "--d", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["class_b"]["in_class"] is True
    assert doc["result"]["decay"]["satisfied"] is True
    assert doc["result"]["convexity_evidence"] is True

    assert main(["check-psi", "--psi", "const", "--s", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["class_b"]["in_class"] is False
    assert doc["result"]["decay"]["satisfied"] is False


def test_check_psi_exp_alpha_from_log_derivative(capsys):
    # psi and psi' both underflow on the grid; alpha = 1/(t ln 2) does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-psi", "--psi", "exp:R=2", "--s", "2"]) == 0
    decay = json.loads(capsys.readouterr().out)["result"]["decay"]
    assert decay["alpha_sup"] == pytest.approx(1 / math.log(2.0), rel=1e-15)
    assert decay["satisfied"] is True and decay["note"] == ""


def test_en_class_budget_reaches_the_stream(capsys):
    # the stream's shell table grows under --budget, not only the first table
    argv = ["en-class", "--psi", "power:s=2", "--q", "1", "--p", "2", "--n", "4",
            "--r", "1.5", "--d", "2"]
    assert main(argv + ["--budget", "400"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]["type"] == "BudgetExceededError"
    assert main(argv + ["--budget", "10000"]) == 0
    assert capsys.readouterr().out.startswith("n,en\n4,")


def test_witness_budget_reaches_the_ball(capsys):
    # the witness's l1 ball is built under --budget, before any quadrature
    # grid: at d = 1, n = 1000 its shell table has 1001 entries
    argv = ["rates", "--quantity", "greedy_lp_witness", "--psi", "power:s=1", "--q", "2",
            "--p", "4", "--d", "1", "--n-grid", "1000", "--budget", "1000"]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error["type"] == "BudgetExceededError"
    assert "shell table to radius 1000 needs 1001 entries" in error["message"]


def test_int64_overflow_exit_1_json_record(capsys):
    code = main(["shells", "--r", "inf", "--d", "6", "--m-max", "800"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "OverflowError"
    assert "past radius 723" in record["error"]["message"]


@pytest.mark.parametrize("spec", ["powerlog:s=1,eps=400", "powerlog:s=1e-300,eps=1e300"])
def test_weight_overflow_exit_1_json_record(spec, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-psi", "--psi", spec, "--s", "2"]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "OverflowError"
    assert "overflows the float range" in record["error"]["message"]


@pytest.mark.parametrize("argv, spec", [
    (["check-psi", "--psi", "powerlog:s=1e308,eps=-1e308", "--s", "2"], "powerlog:s=1e+308,eps=-1e+308"),
    (["hfunc", "--psi", "powerlog:s=1e308,eps=-1e308", "--n", "5", "--s", "0.5"],
     "powerlog:s=1e+308,eps=-1e+308"),
    (["en-class", "--psi", "power:s=1e308", "--q", "1", "--p", "2", "--n", "5"], "(power:s=1e+308)^2"),
    (["hfunc", "--psi", "power:s=2", "--p-power", "1e308", "--n", "5", "--s", "0.5"],
     "(power:s=2)^1e+308"),
])
def test_log_value_overflow_exit_1_json_record(argv, spec, capsys):
    # a log weight beyond the float range is a typed error naming the
    # weight, not nan ratios, a 0.0 value or an unrelated NoThresholdError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    record = json.loads(err.strip())
    assert record["error"]["type"] == "OverflowError"
    assert f"log of weight {spec} overflows the float range" == record["error"]["message"]


@pytest.mark.parametrize("argv, error, n", [
    (["--quantity", "greedy_lp_witness", "--psi", "exp:R=2", "--n-grid", "1000",
      "--q", "2", "--p", "4"], "OverflowError", 1000),
    (["--quantity", "class_sp", "--psi", "exp:R=3", "--n-grid", "1000", "--q", "1", "--p", "2"],
     "FloatingPointError", 1000),
    (["--quantity", "h_functional", "--psi", "exp:R=3", "--n-grid", "800", "--s", "0.5"],
     "FloatingPointError", 800),
])
def test_rates_out_of_float_range_exit_1_json_record(argv, error, n, capsys):
    # a witness normalization or predicted rate beyond the float range
    # is a typed error, not a traceback or a nan/inf ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rates"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    record = json.loads(err.strip())
    assert record["error"]["type"] == error
    assert "exp:R=" in record["error"]["message"] and f"n={n}" in record["error"]["message"]


def test_sup_scan_budget_exit_1_json_record(capsys):
    for argv in (["hfunc", "--psi", "power:s=2", "--n", "100", "--s", "0.5"],
                 ["en-class", "--psi", "power:s=2", "--q", "1", "--p", "2", "--n", "100"]):
        assert main(argv + ["--scan-budget", "50"]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "NoThresholdError"
        assert "scan budget 50" in record["error"]["message"]


def test_rates_budget_reaches_the_stream(capsys):
    argv = ["rates", "--quantity", "class_sp", "--psi", "power:s=2", "--n-grid", "4",
            "--q", "1", "--p", "2", "--r", "1.5", "--d", "2"]
    assert main(argv + ["--budget", "400"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]["type"] == "BudgetExceededError"
    assert main(argv + ["--budget", "10000"]) == 0
    assert capsys.readouterr().out.startswith("n,computed,predicted,ratio\n4,")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lemma51_draw_is_pinned(d, capsys):
    # redraw the frequency sets from the seed: flat index v holds the
    # base-(2 side + 1) digits of k + side, lowest digit first; at p = 4 the
    # norm is the fourth root of the additive energy #{k1 + k2 = k3 + k4}
    n_grid, trials, seed = [5, 12], 2, 11
    argv = ["lemma51", "--n-grid", "5,12", "--p", "4", "--trials", str(trials),
            "--seed", str(seed), "--d", str(d)]
    assert main(argv) == 0
    norms = [float(row.split(",")[3]) for row in capsys.readouterr().out.strip().split("\n")[1:]]
    rng = np.random.default_rng(seed)
    want = []
    for n in n_grid:
        side = max(1, math.ceil(2.0 * n ** (1.0 / d)))
        box = 2 * side + 1
        for _ in range(trials):
            gamma = []
            for v in rng.choice(box ** d, size=n, replace=False).tolist():
                k = []
                for _ in range(d):
                    v, digit = divmod(v, box)
                    k.append(digit - side)
                gamma.append(tuple(k))
            sums = Counter(tuple(a + b for a, b in zip(k1, k2)) for k1 in gamma for k2 in gamma)
            want.append(sum(c * c for c in sums.values()) ** 0.25)
    assert norms == pytest.approx(want, rel=1e-12)


def test_lemma51_even_p_grid_fits_budget(capsys):
    # n = 4 frequencies in the d = 1 cube of side 8: max|k| <= 8, so the
    # exact p = 4 grid has at most 33 points (2 * ceil(p) * 8 + 1 = 65 before)
    argv = ["lemma51", "--n-grid", "4", "--p", "2,4", "--trials", "3", "--budget", "33"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 6
    for row in rows:
        p, norm = float(row.split(",")[1]), float(row.split(",")[3])
        if p == 2.0:
            assert norm == pytest.approx(2.0, rel=1e-12)   # Parseval: sqrt(n)


def test_en_class_one_stream_for_the_grid(stream_count, capsys):
    argv = ["en-class", "--psi", "power:s=3", "--q", "2", "--p", "1", "--n", "64,4,16,4"]
    assert main(argv) == 0
    assert len(stream_count) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[0] for line in lines] == ["n", "64", "4", "16", "4"]
    assert lines[2] == lines[4]


@pytest.mark.parametrize("r", ["1", "inf"])
def test_en_class_row_independent_of_the_grid(r, capsys):
    # each row is its one-n evaluation bit for bit; a grid-dependent tail
    # once put the r = 1 row 4e-12 above the r = inf row of the same d = 1
    # sequence
    argv = ["en-class", "--psi", "power:s=3.24", "--q", "2", "--p", "1", "--d", "1", "--r", r]
    assert main(argv + ["--n", "37"]) == 0
    alone = capsys.readouterr().out.strip().split("\n")[1]
    assert main(argv + ["--n", "17,37,79,132,257,632"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert alone.startswith("37,") and rows[1] == alone


def test_parser_queries_terminal_size_once(monkeypatch, capsys):
    import shutil

    from nterm.cli import build_parser

    calls = []
    original = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    build_parser()
    assert len(calls) == 1
    monkeypatch.setenv("COLUMNS", "60")
    assert main(["hfunc", "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert max(len(line) for line in lines) <= 58
    assert any(len(line) > 50 for line in lines)


_VALID_ARGV = [
    ["shells", "--m-max", "5", "--d", "2", "--r", "1"],
    ["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5", "--p-power", "2"],
    ["en-class", "--psi", "power:s=2", "--q", "1", "--p", "2", "--n", "2,4", "--tol", "1e-8"],
    ["greedy", "--in", "f.json", "--n", "1,2", "--p", "2"],
    ["lemma51", "--n-grid", "8,16", "--p", "2,3", "--cube-scale", "1.5", "--seed", "3"],
    ["rates", "--quantity", "class_sp", "--psi", "power:s=2", "--n-grid", "4", "--q", "1", "--p", "2"],
    ["check-psi", "--psi", "power:s=2", "--s", "2", "--d", "2"],
]
_USAGE_ARGV = [[], ["--help"], ["bogus"], ["--x", "hfunc"]] + [
    [argv[0], *tail] for argv in _VALID_ARGV
    for tail in (["--help"], ["--tol", "x"], ["--bogus"], ["stray"], ["--seed"], ["--", "x"])
]


@pytest.mark.parametrize("argv", _USAGE_ARGV, ids=" ".join)
def test_usage_output_matches_full_parser(argv, monkeypatch, capsys):
    from nterm.cli import build_parser

    monkeypatch.setenv("COLUMNS", "100")
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (exc.value.code or 0, want.out, want.err)


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=lambda argv: argv[0])
def test_namespace_matches_full_parser(argv, tmp_path):
    from nterm.cli import _apply_config, build_parser

    assert vars(_apply_config(argv)) == vars(build_parser().parse_args(argv))
    # the same flags from a config file
    cfg = tmp_path / "cfg.json"
    keys = ["infile" if flag == "--in" else flag[2:] for flag in argv[1::2]]
    cfg.write_text(json.dumps(dict(zip(keys, argv[2::2]))))
    args = _apply_config([argv[0], "--config", str(cfg)])
    assert vars(args) == vars(build_parser().parse_args(argv + ["--config", str(cfg)]))


def test_valid_argv_never_builds_the_full_parser(monkeypatch, capsys):
    from nterm import cli

    def refuse():
        raise AssertionError("the full parser was built for a valid argv")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["en-class", "--psi", "power:s=2", "--q", "1", "--p", "2", "--n", "2,4"]) == 0
    assert main(["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["greedy", "--in", "f.json", "--n", "1", "--p", "2", "--tol", "1e-3"],
    ["shells", "--m-max", "4", "--seed", "1"],
    ["check-psi", "--psi", "power:s=2", "--budget", "5"],
    ["lemma51", "--n-grid", "4", "--p", "2", "--scan-budget", "9"],
    ["hfunc", "--psi", "power:s=2", "--n", "4", "--s", "0.5", "--seed", "7"],
], ids=" ".join)
def test_flag_of_another_command_exits_2(argv, capsys):
    assert main(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# the scoped flags each command takes (--out, --json-out and --config go everywhere)
_SCOPED = {
    "shells": {"budget"},
    "hfunc": {"budget", "scan_budget", "tol"},
    "en-class": {"budget", "scan_budget", "tol"},
    "greedy": set(),
    "lemma51": {"budget", "seed"},
    "rates": {"budget", "scan_budget", "tol"},
    "check-psi": set(),
}


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=lambda argv: argv[0])
def test_metadata_holds_the_command_flags(argv, tmp_path, monkeypatch, capsys):
    from nterm.cli import _COMMON, _SUBCOMMANDS

    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(coeffs(1, {(0,): 3.0, (2,): -4.0}).to_json())
    assert main(argv + ["--json-out", "m.json"]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "m.json").read_text())["metadata"]
    flags = _SUBCOMMANDS[argv[0]][3] + _COMMON
    dests = {kwargs.get("dest", names[0][2:].replace("-", "_")) for names, kwargs in flags}
    assert set(meta) == dests | {"command"}
    assert set(meta) & {"budget", "scan_budget", "tol", "seed"} == _SCOPED[argv[0]]
