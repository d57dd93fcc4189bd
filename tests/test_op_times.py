"""tools/op_times.py: every op of the workload once, ranked by its median
time, with the p50 and p90 ops marked at the benchmark's nearest ranks."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("op_times", ROOT / "tools" / "op_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_each_op_is_ranked_once_and_the_percentile_ops_are_marked(capsys):
    tool = _tool()
    tool.main(["--workload", "lib-families", "--seed", "11", "--passes", "1"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    from wlbench import scoring, workloads
    ops = workloads.generate("lib-families", 11)["ops"]
    n = len(ops)
    assert [int(f[0]) for f in lines] == list(range(1, n + 1))
    assert sorted(f[2] for f in lines) == sorted(op["id"] for op in ops)
    times = [float(f[1]) for f in lines]
    assert times == sorted(times)
    marked = {f[-1]: int(f[0]) for f in lines if f[-1] in ("p50", "p90")}
    assert marked == {"p50": tool.nearest_rank(n, 0.5), "p90": tool.nearest_rank(n, 0.9)}
    assert times[marked["p90"] - 1] == scoring.percentile(times, 0.9)
    for k in range(1, 25):
        xs = list(range(k))
        for q in (0.5, 0.9):
            assert xs[tool.nearest_rank(k, q) - 1] == scoring.percentile(xs, q)


def test_a_cli_op_is_labelled_by_its_argv():
    tool = _tool()
    assert tool.label({"call": "cli", "argv": ["classify", "--weight", "@w"], "id": "003"}) \
        == "cli classify --weight @w"
    assert tool.label({"call": "compare", "sigma": "c_log", "tau": "c_t1", "rel": "le",
                       "id": "007"}) == "compare sigma=c_log tau=c_t1 rel=le"


def test_at_least_one_pass_is_timed():
    with pytest.raises(SystemExit):
        _tool().main(["--workload", "lib-families", "--seed", "11", "--passes", "0"])
