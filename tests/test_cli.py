import json
import math

import pytest

from weightlab import cli
from weightlab.verdict import to_json


@pytest.fixture()
def weight_file(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"family": "power", "params": {"alpha": 0.5}}))
    return str(p)


@pytest.fixture()
def log_file(tmp_path):
    p = tmp_path / "log.json"
    p.write_text(json.dumps({"family": "log", "params": {}}))
    return str(p)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_analyze_clean_run(weight_file, tmp_path):
    out = tmp_path / "r.json"
    code = cli.run(["analyze", "--weight", weight_file,
                    "--conditions", "om1,om3,om_nq", "--out", str(out)])
    assert code == 0
    doc = _load(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "analyze"
    conds = doc["results"]["conditions"]
    assert set(conds) == {"om1", "om3", "om_nq"}
    assert all(v["status"] == "holds" for v in conds.values())


def test_expect_holds_exit_code(log_file, tmp_path):
    out = tmp_path / "r.json"
    code = cli.run(["analyze", "--weight", log_file, "--conditions", "om3",
                    "--expect", "holds", "--out", str(out)])
    assert code == 2
    doc = _load(out)
    assert doc["results"]["conditions"]["om3"]["status"] == "fails"


def test_error_exit_code(tmp_path):
    code = cli.run(["analyze", "--weight", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "r.json")])
    assert code == 1


# weight documents the loader refuses, as JSON text (NaN and 1e400 are
# what Python's json reads as nan and inf)
MALFORMED_WEIGHTS = [
    '{"family": "dilated", "params": {"lam": 2}, "base": {"family": "log", "params": {}}}',
    '{"family": "power", "params": {"alpha": "abc"}}',
    '{"family": "power", "params": {"alpha": null}}',
    '{"family": "logpower", "params": {"beta": [2]}}',
    '{"family": "power", "params": {"alpha": NaN}}',
    '{"family": "power", "params": {"alpha": 1e400}}',
    '{"profile": "abc"}',
    '{"sequence": [0, "a"]}',
    '[1, 2]',
]


def test_malformed_input_one_line_error(weight_file, tmp_path, capsys):
    argvs = [["analyze", "--weight", weight_file, "--conditions", "om9"]]
    for i, text in enumerate(MALFORMED_WEIGHTS):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        argvs.append(["analyze", "--weight", str(bad), "--conditions", "om1"])
    for argv in argvs:
        assert cli.run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_classify_and_report(weight_file, tmp_path):
    assert cli.run(["classify", "--weight", weight_file,
                    "--out", str(tmp_path / "c.json")]) == 0
    assert cli.run(["report", "--weight", weight_file,
                    "--out", str(tmp_path / "full.json")]) == 0
    doc = _load(tmp_path / "full.json")
    assert "classification" in doc["results"]


def test_conjugate_csv_emission(weight_file, tmp_path):
    out = tmp_path / "conj.json"
    code = cli.run(["conjugate", "--weight", weight_file, "--xmax", "20",
                    "--out", str(out), "--emit", "csv",
                    "--plot-dir", str(tmp_path)])
    assert code == 0
    csvs = list(tmp_path.glob("*.csv"))
    assert csvs
    header = csvs[0].read_text().splitlines()[0]
    assert header == "t,value"


def test_compare_subcommand(weight_file, log_file, tmp_path):
    out = tmp_path / "cmp.json"
    code = cli.run(["compare", "--sigma", weight_file, "--tau", log_file,
                    "--rel", "preceq,triangle", "--out", str(out)])
    assert code == 0
    doc = _load(out)["results"]["compare"]
    assert doc["preceq"]["verdict"]["status"] == "holds"
    assert doc["triangle"]["verdict"]["status"] == "holds"


def test_matrix_compare(weight_file, log_file, tmp_path):
    out = tmp_path / "mc.json"
    code = cli.run(["matrix-compare", "--s-type", "exp",
                    "--s-weight", weight_file, "--t-type", "exp",
                    "--t-weight", log_file, "--rel", "beurling",
                    "--out", str(out)])
    assert code == 0
    assert _load(out)["results"]["matrix_compare"]["beurling"]["verdict"]["status"] == "holds"


def test_counterexample_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["counterexample", "--J", "25", "--certify", "all",
            "--A-max", "8"]
    assert cli.run(args + ["--out", str(a)]) == 0
    assert cli.run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_counterexample_partial_ladder(tmp_path):
    out = tmp_path / "ce.json"
    code = cli.run(["counterexample", "--J", "60", "--certify", "all",
                    "--A-max", "1024", "--out", str(out)])
    assert code == 0  # partial coverage is reported, not an error
    nc = _load(out)["results"]["nonconvexity"]
    assert nc["complete"] is False
    assert nc["first_unreachable_A"] == 128
    assert [c["A"] for c in nc["certified"]] == [1, 2, 4, 8, 16, 32, 64]


def test_config_file_fills_flags(weight_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"conditions": "om1"}))
    out = tmp_path / "r.json"
    code = cli.run(["analyze", "--weight", weight_file,
                    "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert set(_load(out)["results"]["conditions"]) == {"om1"}


def test_config_file_sets_flags_with_defaults(weight_file, tmp_path):
    # --xmax defaults to "1e4"; the config replaces a default, but not a
    # value given on the command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xmax": "20"}))
    out = tmp_path / "r.json"
    argv = ["conjugate", "--weight", weight_file, "--config", str(cfg), "--out", str(out)]
    assert cli.run(argv) == 0
    doc = _load(out)
    assert doc["results"]["conjugate"]["x_max"] == 20.0
    assert cli.run(argv + ["--xmax", "5"]) == 0
    doc = _load(out)
    assert doc["results"]["conjugate"]["x_max"] == 5.0


def test_config_file_sets_dashed_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"A-max": "4", "J": "12", "certify": "nonconvexity"}))
    out = tmp_path / "ce.json"
    assert cli.run(["counterexample", "--config", str(cfg), "--out", str(out)]) == 0
    res = _load(out)["results"]
    assert res["parameters"]["J"] == 12
    assert res["parameters"]["A_max"] == 4.0


def test_unreadable_config_is_a_one_line_error(weight_file, tmp_path, capsys):
    argv = ["analyze", "--weight", weight_file, "--config", str(tmp_path / "none.json")]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_strict_inconclusive_exit(tmp_path):
    # a profile that ends flat leaves asymptotic conditions undecidable
    p = tmp_path / "flat.json"
    p.write_text(json.dumps({"profile": [[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]]}))
    out = tmp_path / "r.json"
    code = cli.run(["analyze", "--weight", str(p), "--conditions",
                    "unbounded_limit", "--strict", "--out", str(out)])
    status = _load(out)["results"]["conditions"]["unbounded_limit"]["status"]
    if status == "inconclusive":
        assert code == 3
    else:
        assert status == "fails" and code == 0


# every subcommand on a small input; SMALL_RUNS[i] names its weight files
SMALL_RUNS = [
    ["analyze", "--weight", "W", "--conditions", "om1,om3"],
    ["classify", "--weight", "W"],
    ["conjugate", "--weight", "W", "--xmax", "20"],
    ["matrix", "--weight", "W", "--ell", "0.5,1", "--jmax", "10"],
    ["index", "--weight", "W", "--gammas", "1.5,2.5"],
    ["kappa", "--weight", "W", "--y", "1,4"],
    ["compare", "--sigma", "W", "--tau", "L", "--rel", "preceq"],
    ["matrix-compare", "--s-weight", "W", "--t-weight", "L", "--rel", "beurling"],
    ["lp-experiment", "--s", "W", "--t", "L", "--p", "2"],
    ["counterexample", "--J", "12", "--A-max", "4"],
    ["report", "--weight", "W"],
]


def _strings(obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _strings(v)
    elif isinstance(obj, str):
        yield obj


def test_every_subcommand_writes_plain_json(weight_file, log_file, tmp_path):
    assert sorted(argv[0] for argv in SMALL_RUNS) == sorted(cli._COMMANDS)
    files = {"W": weight_file, "L": log_file}
    for argv in SMALL_RUNS:
        out = tmp_path / f"{argv[0]}.json"
        argv = [files.get(a, a) for a in argv] + ["--out", str(out)]
        assert cli.run(argv) == 0, argv
        doc = _load(out)
        assert set(doc) == {"schema_version", "command", "results"}
        # no result object may reach the report as its repr string
        assert not [s for s in _strings(doc) if "Result(" in s], argv[0]


def test_kappa_values_are_json_objects(weight_file, tmp_path):
    out = tmp_path / "k.json"
    assert cli.run(["kappa", "--weight", weight_file, "--y", "4", "--out", str(out)]) == 0
    k = _load(out)["results"]["kappa"]["4"]
    assert k["kind"] == "finite"
    assert k["value"] == pytest.approx(4.0, rel=1e-6)  # 2 sqrt(y) for t^(1/2)


@pytest.mark.parametrize("argv,key", [
    (["kappa", "--weight", "W", "--y", "1.0000001,1.0000002,4"], "1"),
    (["kappa", "--weight", "W", "--y", "4,1,4"], "4"),
    (["matrix", "--weight", "W", "--ell", "1.0000001,1.0000002"], "1"),
    (["matrix", "--weight", "W", "--ell", "0.5,2,0.50000001"], "0.5"),
])
def test_values_that_share_a_report_key_are_refused(argv, key, weight_file, capsys):
    # the report keys values by f"{v:g}", so it would keep only one of them
    assert cli.run([weight_file if a == "W" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: two {argv[3]} values share the report key {key!r}\n"


def test_values_with_distinct_report_keys_are_all_reported(weight_file, tmp_path):
    out = tmp_path / "k.json"
    assert cli.run(["kappa", "--weight", weight_file, "--y", "1.00001,1.00002,4",
                    "--out", str(out)]) == 0
    assert sorted(_load(out)["results"]["kappa"]) == ["1.00001", "1.00002", "4"]
    assert cli.run(["matrix", "--weight", weight_file, "--ell", "0.5,2",
                    "--out", str(out)]) == 0
    assert sorted(_load(out)["results"]["log_matrix"]) == ["0.5", "2"]


def test_unknown_report_content_is_refused():
    with pytest.raises(TypeError):
        to_json({"x": object()})


@pytest.mark.parametrize("argv", [
    ["counterexample", "--J", "abc"],
    ["conjugate", "--weight", "W", "--xmax", "abc"],
    ["kappa", "--weight", "W", "--y", "x"],
    ["matrix", "--weight", "W", "--ell", "a"],
    ["index", "--weight", "W", "--horizon", "abc"],
    ["lp-experiment", "--s", "W", "--t", "W", "--p", "x"],
    ["analyze", "--weight", "W", "--bogus", "1"],
    ["analyze", "--weight", "W", "--seed", "0"],
    ["kappa", "--weight", "W", "--y", "-1"],
    ["lp-experiment", "--s", "W", "--t", "W", "--p", "0"],
    ["compare", "--sigma", "W", "--tau", "W", "--rel", "preceq,nope"],
    ["matrix-compare", "--s-weight", "W", "--t-weight", "W", "--s-type", "nope"],
    ["counterexample", "--delta", "power:x"],
    ["conjugate", "--weight", "W", "--xmax", "inf"],
    ["conjugate", "--weight", "W", "--xmax", "nan"],
    ["kappa", "--weight", "W", "--y", "nan"],
    ["kappa", "--weight", "W", "--y", "1,inf"],
    ["matrix", "--weight", "W", "--ell", "nan"],
    ["index", "--weight", "W", "--horizon", "inf"],
    ["index", "--weight", "W", "--gammas", "0.5,-inf"],
    ["analyze", "--weight", "W", "--horizon", "nan"],
    ["counterexample", "--t1", "nan"],
    ["counterexample", "--A-max", "inf"],
    ["counterexample", "--delta", "power:nan"],
    # each flag only where the subcommand reads it
    ["conjugate", "--weight", "W", "--horizon", "1e9"],
    ["matrix", "--weight", "W", "--horizon", "1e9"],
    ["matrix-compare", "--s-weight", "W", "--t-weight", "W", "--horizon", "1e9"],
    ["lp-experiment", "--s", "W", "--t", "W", "--horizon", "1e9"],
    ["counterexample", "--horizon", "1e9"],
    ["analyze", "--weight", "W", "--emit", "csv"],
    ["report", "--weight", "W", "--plot-dir", "out"],
    ["counterexample", "--certify", "nope"],
    ["conjugate", "--weight", "W", "--emit", "pdf"],
])
def test_bad_command_line_is_a_one_line_error(argv, weight_file, capsys):
    assert cli.run([weight_file if a == "W" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["inf", "oo"])
def test_sup_norm_exponent_is_accepted(text):
    args = cli._parse(["lp-experiment", "--s", "a", "--t", "b", "--p", text])
    assert args.p == math.inf


def test_config_numbers_are_read_like_the_command_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"A-max": 4, "J": 12, "delta": "power:0.5",
                               "certify": "nonconvexity"}))
    out = tmp_path / "ce.json"
    assert cli.run(["counterexample", "--config", str(cfg), "--out", str(out)]) == 0
    assert _load(out)["results"]["parameters"] == {
        "J": 12, "A_max": 4.0, "delta": "power:0.5", "t1": 0.5}
