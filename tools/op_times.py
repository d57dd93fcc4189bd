"""Each op's in-process median time over a workload, ranked, to show which
ops set a workload's p50 and p90.

    python3 tools/op_times.py --workload lib-families --seed 11
    python3 tools/op_times.py --workload lib-families --seed 11 --passes 50 \\
        --src /path/to/parent/src

The ops are those ``wlbench/run.py`` runs for the workload and seed
(``wlbench.workloads.generate``), made in this process through
``wlbench.libops.call``: one untimed pass fills the caches, then ``--passes``
timed passes run every op in order.  Each output line reads
``<rank> <median ms> <op id> <op>``, fastest first; the op at the p50 rank
and the op at the p90 rank carry a trailing ``p50`` or ``p90``.  The ranks
are nearest ranks over the ops, as ``wlbench.scoring.percentile`` takes
them: the benchmark's figures are percentiles of the ops' own median
times.  A call that raises is timed up to its error.  ``--src`` names the
directory whose ``weightlab`` package is imported, this checkout's ``src``
by default.

On ``cli-cold`` each op runs ``cli.run`` in this process
(``wlbench.libops.run_cli_in_process``), on weight files that
``wlbench.worker.write_weight_files`` writes into a temporary directory, so
the times leave out the interpreter start and the imports that a cold call
pays.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def label(op) -> str:
    """The op's call and arguments, such as "compare sigma=c_log tau=c_t1 rel=le"."""
    if op["call"] == "cli":
        return " ".join(["cli", *op["argv"]])
    return " ".join([op["call"], *(f"{k}={v}" for k, v in op.items()
                                   if k not in ("call", "id"))])


def median_times(ops, execute, passes: int) -> list:
    """Each op's median time in ms over `passes` timed passes, in op order,
    after one untimed pass."""
    samples = [[] for _ in ops]
    for timed in range(passes + 1):
        for op, times in zip(ops, samples):
            t0 = perf_counter()
            try:
                execute(op)
            except Exception:  # an op that raises is timed up to its error
                pass
            if timed:
                times.append((perf_counter() - t0) * 1e3)
    return [statistics.median(times) for times in samples]


def op_times(workload: str, seed: int, passes: int) -> list:
    """(op, median ms) for every op of the workload, in run order."""
    from wlbench import libops, workloads, worker
    spec = workloads.generate(workload, seed)
    ops = spec["ops"]
    if workload == "cli-cold":
        with tempfile.TemporaryDirectory() as tmp:
            files = worker.write_weight_files(spec, Path(tmp))
            return list(zip(ops, median_times(
                ops, lambda op: libops.run_cli_in_process(worker.resolve_argv(op["argv"], files)),
                passes)))
    inputs = libops.Inputs(spec)
    return list(zip(ops, median_times(ops, lambda op: libops.call(op, inputs), passes)))


def nearest_rank(n: int, q: float) -> int:
    """The 1-based rank of the q-percentile of n samples, as
    ``wlbench.scoring.percentile`` takes it."""
    return max(1, math.ceil(q * n - 1e-9))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-cold", "lib-numeric", "lib-families"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--passes", type=int, default=20,
                    help="timed passes over the ops (default 20)")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the weightlab package to time")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    sys.path[:0] = [args.src, str(ROOT)]
    ranked = sorted(op_times(args.workload, args.seed, args.passes), key=lambda x: x[1])
    marks = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        marks.setdefault(nearest_rank(len(ranked), q), []).append(name)
    for rank, (op, ms) in enumerate(ranked, 1):
        print(rank, f"{ms:.4f}", op["id"], label(op), *marks.get(rank, []))
    return 0


if __name__ == "__main__":
    sys.exit(main())
