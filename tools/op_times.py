"""Each op's in-process median time over a workload, ranked, to show which
ops set a workload's p50 and p90.

    python3 tools/op_times.py --workload lib-families --seed 11
    python3 tools/op_times.py --workload lib-families --seed 11 --passes 50 \\
        --src /path/to/parent/src
    python3 tools/op_times.py --workload lib-families --seed 11 --passes 15 \\
        --vs /path/to/parent/src
    python3 tools/op_times.py --workload lib-numeric --seed 11 --passes 40 \\
        --call classify --vs /path/to/parent/src

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
by default.  ``--call NAME``, which may be repeated, keeps only the ops of
the calls named, such as ``classify``; a ``cli-cold`` op's call is its
subcommand.  The p50 and p90 marks and figures are then those of the ops
kept.

``--vs DIR`` times a second ``weightlab`` package, the one in DIR, against
the first.  Each side then runs in its own worker process (with the
environment ``wlbench/run.py`` gives its workers: BLAS and OpenMP threads
pinned to 1), and the two take turns pass by pass, the first of each turn
alternating, so a drift of host speed reaches both sides alike.  Each op
line reads ``<rank> <this ms> <vs ms> <this/vs> <op id> <op>``, ranked by
the first side's medians, and three lines follow with ``p50_ms``,
``p90_ms`` and ``ops_per_s`` of each side and their ratio: the figures
``wlbench.worker.mix_figures`` makes from the medians, raw wall times where
``wlbench`` scales its figures to a reference host speed.

On ``cli-cold`` each op runs ``cli.run`` in this process
(``wlbench.libops.run_cli_in_process``), on weight files that
``wlbench.worker.write_weight_files`` writes into a temporary directory, so
the times leave out the interpreter start and the imports that a cold call
pays.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import statistics
import subprocess
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


def call_name(op) -> str:
    """The call an op makes: its library call, or a CLI op's subcommand."""
    return op["argv"][0] if op["call"] == "cli" else op["call"]


def workload_ops(workload: str, seed: int, calls=()) -> tuple:
    """(spec, ops): the workload's spec and its ops, only those of `calls`
    if any are named."""
    from wlbench import workloads
    spec = workloads.generate(workload, seed)
    ops = [op for op in spec["ops"] if not calls or call_name(op) in calls]
    if not ops:
        raise SystemExit(f"no op of {workload} seed {seed} makes a call in {sorted(calls)}")
    return spec, ops


def prepare(workload: str, seed: int, stack, calls=()) -> tuple:
    """(ops, execute): the workload's ops, only those of `calls` if any are
    named, and the call that makes one, with any weight files it reads kept
    until `stack` closes."""
    from wlbench import libops, worker
    spec, ops = workload_ops(workload, seed, calls)
    if workload == "cli-cold":
        files = worker.write_weight_files(
            spec, Path(stack.enter_context(tempfile.TemporaryDirectory())))
        return ops, lambda op: libops.run_cli_in_process(
            worker.resolve_argv(op["argv"], files))
    inputs = libops.Inputs(spec)
    return ops, lambda op: libops.call(op, inputs)


def one_pass(ops, execute) -> list:
    """Each op's time in ms over one pass, in op order."""
    times = []
    for op in ops:
        t0 = perf_counter()
        try:
            execute(op)
        except Exception:  # an op that raises is timed up to its error
            pass
        times.append((perf_counter() - t0) * 1e3)
    return times


def medians(passes) -> list:
    """Each op's median over the passes, each a list of times in op order."""
    return [statistics.median(times) for times in zip(*passes)]


def op_times(workload: str, seed: int, passes: int, calls=()) -> list:
    """(op, median ms) for every op of the workload, only those of `calls`
    if any are named, in run order, after one untimed pass."""
    with contextlib.ExitStack() as stack:
        ops, execute = prepare(workload, seed, stack, calls)
        one_pass(ops, execute)
        return list(zip(ops, medians([one_pass(ops, execute) for _ in range(passes)])))


def serve(workload: str, seed: str, src: str, *calls: str) -> None:
    """A worker of ``--vs``: import weightlab from `src`, run one untimed
    pass over the ops of `calls` (all ops if none), write the op ids as a
    JSON line, then answer each line read from stdin with one timed pass,
    its times as a JSON line."""
    sys.path[:0] = [src, str(ROOT)]
    replies, sys.stdout = sys.stdout, sys.stderr  # an op that prints misses the replies
    with contextlib.ExitStack() as stack:
        ops, execute = prepare(workload, int(seed), stack, calls)
        one_pass(ops, execute)
        print(json.dumps([op["id"] for op in ops]), file=replies, flush=True)
        for _ in sys.stdin:
            print(json.dumps(one_pass(ops, execute)), file=replies, flush=True)


def alternate(sides, repeats, measure) -> dict:
    """side -> the list of `repeats` values of measure(side), the sides
    taking turns and the first of each turn alternating."""
    got = {side: [] for side in sides}
    for r in range(repeats):
        for side in (sides if r % 2 == 0 else sides[::-1]):
            got[side].append(measure(side))
    return got


def vs_times(workload: str, seed: int, passes: int, srcs: dict, calls=()) -> tuple:
    """(ops, {side: each op's median ms}) for the packages in srcs, {side:
    directory}, each timed in its own worker process, pass by pass in
    turns, over the ops of `calls` (all ops if none)."""
    from wlbench.run import worker_env
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            "import op_times; op_times.serve(*sys.argv[1:])")
    workers = {}
    try:
        for side, src in srcs.items():
            env = {**worker_env(), "PYTHONPATH": src}
            workers[side] = subprocess.Popen(
                [sys.executable, "-c", code, workload, str(seed), src, *calls],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ops = workload_ops(workload, seed, calls)[1]
        for side, w in workers.items():
            if json.loads(w.stdout.readline() or "null") != [op["id"] for op in ops]:
                raise RuntimeError(f"the worker of {srcs[side]} did not start")

        def timed_pass(side):
            w = workers[side]
            w.stdin.write("pass\n")
            w.stdin.flush()
            return json.loads(w.stdout.readline())

        got = alternate(list(srcs), passes, timed_pass)
    finally:
        for w in workers.values():
            w.stdin.close()
            w.wait()
    return ops, {side: medians(got[side]) for side in srcs}


def nearest_rank(n: int, q: float) -> int:
    """The 1-based rank of the q-percentile of n samples, as
    ``wlbench.scoring.percentile`` takes it."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile_marks(n: int) -> dict:
    """rank -> the names of the percentiles, p50 and p90, taken at it."""
    marks = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        marks.setdefault(nearest_rank(n, q), []).append(name)
    return marks


def print_vs(ops, times) -> None:
    from wlbench import worker
    this, vs = times["this"], times["vs"]
    order = sorted(range(len(ops)), key=lambda i: this[i])
    marks = percentile_marks(len(ops))
    for rank, i in enumerate(order, 1):
        print(rank, f"{this[i]:.4f}", f"{vs[i]:.4f}", f"{this[i] / vs[i]:.3f}", ops[i]["id"],
              label(ops[i]), *marks.get(rank, []))
    figures = {side: worker.mix_figures(times[side]) for side in times}
    for name in ("p50_ms", "p90_ms", "ops_per_s"):
        a, b = figures["this"][name], figures["vs"][name]
        print(name, f"{a:.4f}", f"{b:.4f}", f"{a / b:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-cold", "lib-numeric", "lib-families"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--passes", type=int, default=20,
                    help="timed passes over the ops (default 20)")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the weightlab package to time")
    ap.add_argument("--vs", default=None, metavar="DIR",
                    help="directory of a second weightlab package to time against, "
                         "in alternating passes")
    ap.add_argument("--call", action="append", default=[], metavar="NAME",
                    help="time only the ops of this call, such as classify (a cli-cold "
                         "op's call is its subcommand); may be repeated")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    sys.path[:0] = [str(ROOT)]
    if args.vs:
        srcs = {"this": str(Path(args.src).resolve()), "vs": str(Path(args.vs).resolve())}
        print(f"# {args.workload} seed {args.seed}: median of {args.passes} passes per op "
              "and side, in ms; sides: " + ", ".join(f"{k}={v}" for k, v in srcs.items()))
        print_vs(*vs_times(args.workload, args.seed, args.passes, srcs, tuple(args.call)))
        return 0
    sys.path[:0] = [args.src]
    ranked = sorted(op_times(args.workload, args.seed, args.passes, tuple(args.call)),
                    key=lambda x: x[1])
    marks = percentile_marks(len(ranked))
    for rank, (op, ms) in enumerate(ranked, 1):
        print(rank, f"{ms:.4f}", op["id"], label(op), *marks.get(rank, []))
    return 0


if __name__ == "__main__":
    sys.exit(main())
