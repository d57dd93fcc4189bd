"""tools/cold_start.py: one cli-cold op in fresh interpreters for two
sides, ranked, with wlbench's figures, the ops that import numpy and each
module's import time."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_op_once_per_side():
    p = subprocess.run([sys.executable, str(ROOT / "tools" / "cold_start.py"), "--seed", "11",
                        "--ops", "000", "--repeats", "1", "--src", str(ROOT / "src")],
                       capture_output=True, text=True, timeout=120)
    assert (p.returncode, p.stderr) == (0, "")
    # the counterexample reads samples, so numpy loads on both sides
    assert [line for line in p.stdout.splitlines() if "imports numpy" in line] == [
        "# ops whose interpreter imports numpy, this: 000",
        "# ops whose interpreter imports numpy, src: 000"]
    lines = [line.split() for line in p.stdout.splitlines() if not line.startswith("#")]
    rank, this_ms, src_ms, op_id, cli = lines[0][:5]
    assert (rank, op_id, cli) == ("1", "000", "cli")
    assert float(this_ms) > 0 and float(src_ms) > 0
    assert lines[0][-2:] == ["p50", "p90"]
    assert [line[0] for line in lines[1:4]] == ["p50_ms", "p90_ms", "ops_per_s"]
    assert all(len(line) == 3 for line in lines[1:4])
    modules = {line[0]: line[1:] for line in lines[4:]}
    assert {"weightlab", "weightlab.core", "weightlab.cli", "weightlab.growth"} <= set(modules)
    assert all(len(cells) == 2 and all(c.isdigit() for c in cells) for cells in modules.values())
