"""Parent/change benchmark pairs, recorded as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr 7 --parent HEAD~1 --change HEAD \\
        --plan lib-numeric=10 --plan cli-cold=3 --plan lib-families=3 \\
        --trace-plan lib-numeric=1 --first-seed 200

Each side is the committed tree of one revision, exported with
``git archive`` into a temporary directory, so the benchmark code is
exactly that revision's and a stale ``wlbench/out`` cannot leak in.  A pair
runs ``python3 wlbench/run.py --workload W --seed S --trace T`` (the run
length is wlbench's own) once on each side with the same seed; the side that goes first alternates
from pair to pair.  Pair i uses seed ``first-seed + i``.  The record keeps
every run's metrics and, per metric, each side's median and quartiles, the
ratio of the medians (change over parent) and the number of pairs the
change won in the metric's direction from BENCHMARK.json.  For a workload
whose ops are CLI calls, each pair also lists, under ``stdout_changed``,
the argv of every op whose stdout digest differs between the two sides,
so the record shows which outputs a change altered.  Each side also
records ``src_lines`` and ``declared_dependencies``, the size of its
``src/`` and the count of its dependencies, from the context of its
first result file.  The record is rewritten after every pair, so an
interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed tree of `rev` into `dest`."""
    tar = dest.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(tar), rev)
    with tarfile.open(tar) as fh:
        # the "data" filter exists from Python 3.10.12, 3.11.4 and 3.12
        kw = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        fh.extractall(dest, **kw)
    tar.unlink()


def directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "wlbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    p = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed in {tree}:\n{p.stderr}")
    last = json.loads(p.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def result_file(tree: Path, workload: str, seed: int, trace: int) -> dict:
    path = tree / "wlbench" / "out" / f"result-{workload}-s{seed}-t{trace}.json"
    return json.loads(path.read_text())


def stdout_digests(result: dict) -> dict:
    """op id -> (argv, stdout digest) for each CLI op of a result file."""
    return {r["id"]: (r["op"]["argv"], r["stdout_sha256"])
            for r in result["ops"] if "stdout_sha256" in r}


def summary(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3}


def summarise(block: dict, better: dict) -> None:
    pairs = block["pairs"]
    block["metrics"] = {}
    for name in pairs[0]["parent"]["metrics"]:
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        sign = {"lower": -1, "higher": 1}.get(better.get(name), 0)
        m = {"better": better.get(name), "parent": summary(par),
             "change": summary(chg),
             "change_won_pairs": sum(sign * (c - a) > 0 for a, c in zip(par, chg))}
        if m["parent"]["median"]:
            m["ratio_of_medians"] = m["change"]["median"] / m["parent"]["median"]
        block["metrics"][name] = m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="names the record BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--plan", action="append", default=[], metavar="WORKLOAD=PAIRS",
                    help="untraced pairs to run on a workload (repeatable)")
    ap.add_argument("--trace-plan", action="append", default=[],
                    metavar="WORKLOAD=PAIRS", help="traced pairs (--trace 1)")
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)

    plan = [(spec, 0) for spec in args.plan] + [(spec, 1) for spec in args.trace_plan]
    try:
        plan = [(w, int(n), trace) for spec, trace in plan
                for w, n in [spec.split("=", 1)]]
    except ValueError:
        ap.error("a plan entry reads WORKLOAD=PAIRS")
    out = ROOT / f"BENCH_{args.pr}.json"
    better = directions()
    record = {
        "pr": args.pr,
        "parent": {"rev": args.parent, "sha": git("rev-parse", args.parent)},
        "change": {"rev": args.change, "sha": git("rev-parse", args.change)},
        "command": "python3 wlbench/run.py --workload W --seed S --trace T",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            export(record[side]["sha"], tree)
        for workload, n_pairs, trace in plan:
            block = {"workload": workload, "trace": trace, "seeds": [], "pairs": []}
            record["runs"].append(block)
            for i in range(n_pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    t0 = time.perf_counter()
                    pair[side] = run_bench(trees[side], workload, seed, trace)
                    pair[side]["wall_s"] = round(time.perf_counter() - t0, 1)
                results = {side: result_file(trees[side], workload, seed, trace)
                           for side in order}
                for side in order:
                    for key in ("src_lines", "declared_dependencies"):
                        record[side].setdefault(key, results[side]["context"][key])
                digests = {side: stdout_digests(results[side]) for side in order}
                if digests["parent"]:
                    pair["stdout_changed"] = [
                        argv for op_id, (argv, sha) in sorted(digests["parent"].items())
                        if digests["change"].get(op_id, (None, None))[1] != sha]
                block["seeds"].append(seed)
                block["pairs"].append(pair)
                summarise(block, better)
                out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} trace {trace} seed {seed}: done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
