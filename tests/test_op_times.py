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


def test_one_pass_against_the_same_src_ranks_each_op_once_with_both_sides(capsys):
    tool = _tool()
    src = str(ROOT / "src")
    tool.main(["--workload", "lib-families", "--seed", "11", "--passes", "1", "--vs", src])
    text = capsys.readouterr().out
    # each assertion shows the tool's whole output, so a failure shows its
    # cause; printed again, it is also shown when the parsing below fails
    print(text)
    out = text.splitlines()
    assert out[0].startswith("# lib-families seed 11: median of 1 passes"), text
    lines = [line.split() for line in out[1:]]
    from wlbench import workloads
    ops = workloads.generate("lib-families", 11)["ops"]
    n = len(ops)
    ranked, figures = lines[:n], lines[n:]
    assert [int(f[0]) for f in ranked] == list(range(1, n + 1)), text
    assert sorted(f[4] for f in ranked) == sorted(op["id"] for op in ops), text
    this = [float(f[1]) for f in ranked]
    assert this == sorted(this), text
    for f in ranked:
        a, b, ratio = map(float, f[1:4])
        assert a > 0 and b > 0, text
        # each time is printed to 5e-5 ms, the ratio to 5e-4
        assert abs(ratio - a / b) <= a / b * (5e-5 / a + 5e-5 / b) + 5e-4, text
    marked = {f[-1]: int(f[0]) for f in ranked if f[-1] in ("p50", "p90")}
    assert marked == {"p50": tool.nearest_rank(n, 0.5), "p90": tool.nearest_rank(n, 0.9)}, text
    assert [f[0] for f in figures] == ["p50_ms", "p90_ms", "ops_per_s"], text
    assert all(len(f) == 4 and float(f[1]) > 0 and float(f[2]) > 0 for f in figures), text
    assert float(figures[0][1]) == pytest.approx(this[tool.nearest_rank(n, 0.5) - 1],
                                                 abs=1e-4), text


def test_the_alternation_swaps_the_first_side_each_turn():
    calls = []
    got = _tool().alternate(["a", "b"], 3, lambda side: calls.append(side) or len(calls))
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert got == {"a": [1, 4, 5], "b": [2, 3, 6]}


def test_the_call_option_keeps_the_ops_of_the_calls_named_on_both_sides(capsys):
    tool = _tool()
    from wlbench import workloads
    ops = workloads.generate("lib-numeric", 11)["ops"]
    want = sorted(op["id"] for op in ops if op["call"] in ("classify", "growth_index"))
    tool.main(["--workload", "lib-numeric", "--seed", "11", "--passes", "1",
               "--call", "classify", "--call", "growth_index"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert sorted(f[2] for f in lines) == want
    assert {f[3] for f in lines} == {"classify", "growth_index"}
    tool.main(["--workload", "lib-numeric", "--seed", "11", "--passes", "1",
               "--call", "classify", "--vs", str(ROOT / "src")])
    ranked = [line.split() for line in capsys.readouterr().out.splitlines()[1:-3]]
    assert sorted(f[4] for f in ranked) == sorted(op["id"] for op in ops
                                                  if op["call"] == "classify")
    # a cli-cold op's call is its subcommand
    cli = workloads.generate("cli-cold", 11)["ops"]
    assert {tool.call_name(op) for op in cli} >= {"classify", "compare"}
    with pytest.raises(SystemExit):
        tool.main(["--workload", "lib-numeric", "--seed", "11", "--passes", "1",
                   "--call", "nope"])
