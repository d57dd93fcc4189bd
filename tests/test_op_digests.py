"""tools/op_digests.py: one seed prints as it always did, a list of seeds
prints each seed's lines behind that seed."""

import importlib.util
from pathlib import Path

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
