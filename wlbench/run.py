"""weightlab benchmark: one command for timing runs and the traced run.

    python3 wlbench/run.py --workload lib-numeric --seed 1 --seconds 30 --trace 0
    python3 wlbench/run.py --workload all --seed 1       # all three, as a table

Run it from any directory of a checkout; it uses the checkout's ``src``
directly, so nothing needs installing.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run
(context, every op's outcome and, on cli-cold, the sha256 of every op's
stdout) goes to ``wlbench/out/``.

The timing figures describe the workload's fixed op mix from each op's
median time over the run (``worker.latency_summary``); ``setup_s`` is the
median of four cold ``import weightlab`` runs, plus on the ``lib-*``
workloads the median time to build the inputs.  Every timing is scaled to
reference host speed by a calibration kernel timed through the run
(``calibrate``); the raw wall times are kept in the record.
``not_failed_frac`` is the share of ops the outcome rules in ``scoring``
do not call failed, counting the deliberately malformed inputs.  The
``failed`` field counts failed ops on valid inputs only: a malformed input
that ends in a traceback is a robustness finding, not a broken run.
``correct`` is false when a check of the benchmark itself fails: an op
whose outcome, verdicts or stdout changed between passes over the same
input, or traced spans that do not account for an op's wall time.  Wrong
verdicts are measured by ``not_wrong_verdict_frac``, not by ``correct``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from wlbench import calibrate, scoring, workloads  # noqa: E402

OUT = ROOT / "wlbench" / "out"
SETUP_REPEATS = 2
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "call_p50_ms": "ms", "call_p90_ms": "ms", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "not_failed_frac": "ratio",
    "not_typed_error_frac": "ratio", "not_wrong_verdict_frac": "ratio",
}
PER_LAYER_UNITS = {"import.weightlab_s": "s", "import.scipy_s": "s",
                   "import.numpy_s": "s"}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_frac", "ratio"), ("_ratio", "ratio"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # both are echoed into or change CLI output
    env.pop("WEIGHTLAB_THREADS", None)
    env.pop("WEIGHTLAB_NO_NUMBA", None)
    return env


# ---------------------------------------------------------------------------
# set-up and import measurements (fresh interpreters)
# ---------------------------------------------------------------------------

def _run_child(argv, env, cwd, timeout=60.0):
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def cold_import_times(env, cwd, repeats) -> tuple[list, list]:
    """Wall times of ``import weightlab`` in fresh interpreters, raw and at
    reference speed."""
    argv = [sys.executable, "-c", "import weightlab"]
    clock = calibrate.Clock(fresh_process=True)
    samples = []
    for _ in range(repeats):
        tick = clock.tick()
        t0 = time.perf_counter()
        p = _run_child(argv, env, cwd)
        samples.append((time.perf_counter() - t0, tick))
        if p.returncode != 0:
            raise BenchError(f"import weightlab failed:\n{p.stderr}")
    clock.tick()
    return [x for x, _ in samples], [x * clock.scale(t) for x, t in samples]


def parse_importtime(stderr: str) -> dict:
    """weightlab's cumulative import time and numpy's / scipy's own time."""
    out = {"import.weightlab_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue                        # the header line
        name = parts[2].strip()
        top = name.split(".", 1)[0]
        if name == "weightlab":
            out["import.weightlab_s"] = cum_us / 1e6
        elif top in ("numpy", "scipy"):
            out[f"import.{top}_s"] += self_us / 1e6
    return out


def import_layers(env, cwd) -> dict:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        p = _run_child([sys.executable, "-X", "importtime", "-c", "import weightlab"],
                       env, cwd)
        runs.append(parse_importtime(p.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(pkg):
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return None


def context() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    try:
        deps = len(tomllib.loads((ROOT / "pyproject.toml").read_text())
                   ["project"].get("dependencies", []))
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        deps = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "declared_dependencies": deps,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_worker(spec_path, workdir, result_path, spans_path, seconds, trace,
               env, budget_s) -> dict:
    argv = [sys.executable, "-m", "wlbench.worker", "--spec", str(spec_path),
            "--seconds", repr(seconds), "--trace", str(trace),
            "--result", str(result_path), "--workdir", str(workdir)]
    if spans_path:
        argv += ["--spans", str(spans_path)]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker exceeded {budget_s:.0f} s")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(Path(result_path).read_text())


def score(spec, pass1) -> dict:
    ops = {op["id"]: op for op in spec["ops"]}
    n = len(pass1)
    failed = sum(r["outcome"] == scoring.FAILED for r in pass1)
    valid = [r for r in pass1 if not ops[r["id"]].get("malformed")]
    typed = sum(r["outcome"] == scoring.TYPED for r in valid)
    base = wrong = 0
    for r in pass1:
        items = scoring.scored_items(ops[r["id"]], spec["weights"])
        base += len(items)
        wrong += scoring.count_wrong(items, r["statuses"])
    return {"ops": n, "failed": failed, "valid": len(valid), "typed": typed,
            "scored": base, "wrong": wrong}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    t_begin = time.perf_counter()
    if not (ROOT / "src" / "weightlab" / "__init__.py").is_file():
        raise BenchError(f"no weightlab sources under {ROOT / 'src'}")
    tag = f"{workload}-s{seed}-t{trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.generate(workload, seed)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = worker_env()
        cold_import_times(env, workdir, 1)      # writes bytecode, warms caches
        # set-up is sampled before and after the worker, so a slow spell
        # of the machine moves the median less
        raw, imports = cold_import_times(env, workdir, SETUP_REPEATS)
        layers = import_layers(env, workdir) if trace else {}
        # leave time for the set-up samples taken after the worker
        budget = RUN_LIMIT_S - 10.0 - (time.perf_counter() - t_begin)
        res = run_worker(spec_path, workdir, workdir / "result.json",
                         OUT / f"spans-{tag}.tsv" if trace else None,
                         seconds, trace, env, budget)
        raw_after, imports_after = cold_import_times(env, workdir, SETUP_REPEATS)
        import_s = statistics.median(imports + imports_after)
        raw_import_s = statistics.median(raw + raw_after)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    s = score(spec, res["pass1"])
    ops_by_id = {op["id"]: op for op in spec["ops"]}
    lat = res["latency"]
    problems = [f"op {i} changed between passes" for i in res["mismatched"]]
    if trace:
        ts = res["trace_summary"]
        if ts["max_accounting_error_s"] > 1e-6 or ts["bad_nesting"]:
            problems.append("span self times do not add up to op wall time")
        metrics = dict(res["per_layer"])
        metrics.update(layers)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "call_p50_ms": lat["p50_ms"],
            "call_p90_ms": lat["p90_ms"],
            "ops_per_s": lat["ops_per_s"],
            "setup_s": import_s + res["build_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "not_failed_frac": 1 - s["failed"] / s["ops"],
            "not_typed_error_frac": 1 - s["typed"] / s["valid"],
            "not_wrong_verdict_frac": 1 - s["wrong"] / s["scored"],
        }
        units = END_TO_END_UNITS
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "context": context(), "draws": spec["draws"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "latency": lat, "passes": res["passes"], "counts": s, "import_s": import_s,
        "raw_import_s": raw_import_s,
        "build_s": res["build_s"], "problems": problems,
        "ops": [dict(r, op=ops_by_id[r["id"]]) for r in res["pass1"]],
    }
    if trace:
        record["trace_summary"] = res["trace_summary"]
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    return {"correct": not problems, "attempted": res["ops"],
            "failed": res["valid_failed"], "record": record}


def print_table(out) -> None:
    rec = out["record"]
    lat, c = rec["latency"], rec["counts"]
    print(f"== {rec['workload']}  seed {rec['seed']}  {rec['seconds']:g} s  "
          f"trace {rec['trace']}  ({rec['context']['git_sha'] or 'no git sha'})")
    notes = {
        "call_p50_ms": f"{lat['ops_in_mix']} ops, {lat['samples']} samples",
        "call_p90_ms": f"{lat['beyond_p90']} ops beyond p90"
                       + ("" if lat["p90_rule_met"] else ", fewer than 10"),
        "not_failed_frac": f"{c['failed']} of {c['ops']} ops failed",
        "not_typed_error_frac": f"{c['typed']} of {c['valid']} valid ops "
                                "ended in a typed error",
        "not_wrong_verdict_frac": f"{c['wrong']} of {c['scored']} scored "
                                  "verdicts wrong",
    }
    for name, m in rec["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    for p in rec["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(parents=True, exist_ok=True)
    # the run, its worker and the CLI children share one core, so the
    # calibration kernel meets the same contention as the ops it scales
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        outs = {w: run_once(w, args.seed, args.seconds, args.trace) for w in names}
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for out in outs.values():
        print_table(out)
    if len(outs) == 1:
        (out,) = outs.values()
        metrics = out["record"]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, o in outs.items()
                   for k, v in o["record"]["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
