"""tools/op_digests.py: one seed prints as it always did, a list of seeds
prints each seed's lines behind that seed, and --vs prints only the ops
whose digests differ, then their count."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("op_digests", ROOT / "tools" / "op_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_seed_list_prints_each_seed_behind_its_lines(capsys):
    tool = _tool()
    assert tool.seed_list("11") == [11]
    assert tool.seed_list("11,12") == [11, 12]
    singles = {}
    for seed in (11, 12):
        tool.main(["--workload", "lib-families", "--seed", str(seed)])
        singles[seed] = capsys.readouterr().out.splitlines()
        assert singles[seed] and all(len(line.split()) == 3 for line in singles[seed])
    tool.main(["--workload", "lib-families", "--seed", "11,12"])
    both = capsys.readouterr().out.splitlines()
    assert both == [f"{seed} {line}" for seed in (11, 12) for line in singles[seed]]


def test_vs_prints_only_the_changed_ops_then_their_count(capsys):
    tool = _tool()
    this = ["001 compare aaa", "002 compare bbb", "003 kappa ccc"]
    assert tool.changed(this, this) == []
    assert tool.changed(this, ["001 compare aaa", "002 compare bxb", "003 kappa cxc"]) == \
        ["002 compare bbb bxb", "003 kappa ccc cxc"]
    with pytest.raises(SystemExit):
        tool.changed(this, this[:2])
    with pytest.raises(SystemExit):
        tool.changed(this, ["001 compare aaa", "002 kappa bbb", "003 kappa ccc"])
    from wlbench import workloads
    n = sum(len(workloads.generate("lib-families", seed)["ops"]) for seed in (11, 12))
    tool.main(["--workload", "lib-families", "--seed", "11,12", "--vs", str(ROOT / "src")])
    assert capsys.readouterr().out.splitlines() == [f"0 of {n} ops changed"]
