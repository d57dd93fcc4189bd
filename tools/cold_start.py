"""Each cli-cold op's wall time in fresh interpreters, start-up and imports
included, for this checkout's ``src`` and, alternating with it, another.

    python3 tools/cold_start.py --seed 11
    python3 tools/cold_start.py --seed 11 --repeats 5 --src /path/to/parent/src
    python3 tools/cold_start.py --seed 11 --ops 003,007 --repeats 1

``tools/op_times.py`` times the cli-cold ops in one process, which leaves
out what a cold call pays first: the interpreter's start and the imports.
Here every op of the seed's cli-cold workload (``wlbench.workloads``) runs
as ``python -m weightlab.cli`` in a fresh interpreter, ``--repeats`` times
for each side, with the environment ``wlbench/run.py`` gives its workers
(BLAS and OpenMP threads pinned to 1) plus ``PYTHONDONTWRITEBYTECODE=1``,
so every call compiles weightlab from source.  The two sides take turns,
and which goes first alternates from call to call.  ``--ops`` keeps only
the ops with these ids.

Each op line reads ``<rank> <ms per side> <op id> <op>``: the op's median
wall time on each side, ranked by this checkout's, fastest first, with
the p50 and p90 ops marked at the nearest ranks ``wlbench`` takes.  Then
come ``p50_ms``, ``p90_ms`` and ``ops_per_s`` per side, the figures
``wlbench.worker.mix_figures`` makes from the medians; they are raw wall
times, where ``wlbench`` scales its figures to a reference host speed.
One comment line per side then lists the ids of the ops whose interpreter
imports numpy, read from one more, untimed call of each op under
``python -X importtime``.  Last, per weightlab module, the median self
time (µs) that ``python -X importtime`` reports when one interpreter
imports every module, as often as an op runs; ``-`` marks a module a side
does not have.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from op_times import alternate, label, percentile_marks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from wlbench import workloads, worker  # noqa: E402
from wlbench.run import worker_env  # noqa: E402


def side_env(src: str) -> dict:
    env = worker_env()
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cold_call_ms(argv, env, cwd) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-m", "weightlab.cli", *argv], env=env, cwd=cwd,
                   capture_output=True, timeout=worker.CLI_TIMEOUT_S)
    return (perf_counter() - t0) * 1e3


def imports_numpy(argv, env, cwd) -> bool:
    """Whether a fresh interpreter that runs the CLI call argv imports numpy."""
    p = subprocess.run([sys.executable, "-X", "importtime", "-m", "weightlab.cli", *argv],
                       env=env, cwd=cwd, capture_output=True, text=True,
                       timeout=worker.CLI_TIMEOUT_S)
    return any(line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "numpy"
               for line in p.stderr.splitlines())


def modules(src: str) -> list:
    pkg = Path(src) / "weightlab"
    return ["weightlab"] + sorted(f"weightlab.{p.stem}" for p in pkg.glob("*.py")
                                  if p.stem != "__init__")


def import_self_us(src: str, env) -> dict:
    """module -> its -X importtime self time (µs), all modules imported once."""
    names = modules(src)
    # the package's __getattr__ loads a module through importlib, which
    # -X importtime does not time; without it, a `from . import x` inside
    # weightlab goes through the import statement, which it times
    code = ("import weightlab; weightlab.__dict__.pop('__getattr__', None); "
            f"import {', '.join(names)}")
    p = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                       env=env, capture_output=True, text=True, check=True)
    out = {}
    for line in p.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip() in names:
            out[fields[2].strip()] = int(fields[0])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--repeats", type=int, default=5,
                    help="fresh interpreters per op and side (default 5)")
    ap.add_argument("--src", default=None,
                    help="directory of a second weightlab package to time against")
    ap.add_argument("--ops", default=None, help="comma-separated op ids to keep")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    srcs = {"this": str(ROOT / "src")}
    if args.src:
        srcs["src"] = str(Path(args.src).resolve())
    sides = list(srcs)
    envs = {side: side_env(src) for side, src in srcs.items()}
    spec = workloads.generate("cli-cold", args.seed)
    ops = spec["ops"]
    if args.ops:
        keep = set(args.ops.split(","))
        ops = [op for op in ops if op["id"] in keep]
        if not ops:
            ap.error(f"no cli-cold op of seed {args.seed} has an id in {args.ops}")

    medians = {side: [] for side in sides}
    numpy_ops = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        files = worker.write_weight_files(spec, Path(tmp))
        for op in ops:
            call = worker.resolve_argv(op["argv"], files)
            times = alternate(sides, args.repeats,
                              lambda side: cold_call_ms(call, envs[side], tmp))
            for side in sides:
                medians[side].append(statistics.median(times[side]))
                if imports_numpy(call, envs[side], tmp):
                    numpy_ops[side].append(op["id"])

    print(f"# cli-cold seed {args.seed}: {len(ops)} ops, median of {args.repeats} "
          f"fresh interpreters per op and side, in ms; sides: "
          + ", ".join(f"{side}={src}" for side, src in srcs.items()))
    order = sorted(range(len(ops)), key=lambda i: medians["this"][i])
    marks = percentile_marks(len(ops))
    for rank, i in enumerate(order, 1):
        print(rank, *(f"{medians[side][i]:.1f}" for side in sides), ops[i]["id"],
              label(ops[i]), *marks.get(rank, []))
    figures = {side: worker.mix_figures(medians[side]) for side in sides}
    for name in ("p50_ms", "p90_ms", "ops_per_s"):
        print(name, *(f"{figures[side][name]:.3f}" for side in sides))
    for side in sides:
        print(f"# ops whose interpreter imports numpy, {side}:", *numpy_ops[side] or ["-"])

    print(f"# -X importtime self time per module, median of {args.repeats}, in µs")
    selfs = alternate(sides, args.repeats, lambda side: import_self_us(srcs[side], envs[side]))
    for name in sorted(set().union(*(modules(src) for src in srcs.values()))):
        cells = []
        for side in sides:
            got = [run[name] for run in selfs[side] if name in run]
            cells.append(f"{statistics.median(got):.0f}" if got else "-")
        print(name, *cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
