"""One benchmark run of one workload, in its own process.

``run.py`` starts this worker (``python -m wlbench.worker``) with BLAS
and OpenMP threads pinned to 1 and ``src`` on ``PYTHONPATH``, and reads
the JSON it writes to ``--result``.
A single caller runs the ops in a closed loop: the next op starts when the
previous one has returned.

Timing runs (``--trace 0``) never wrap anything.  On ``cli-cold`` every op
is a fresh ``python -m weightlab.cli`` subprocess and the first pass over
the op list is part of the timed loop; on the ``lib-*`` workloads an
untimed pass over the op list scores the verdicts and warms the process.
The timed loop makes at least one whole pass over the list and runs until
the run's seconds have passed; every figure is taken over one time per op,
so the op mix is the same in every run.  Between ops it times the
calibration kernel that scales the samples to reference speed.

The traced run (``--trace 1``) makes the same untimed pass, times passes
for half the seconds untraced, then the same op sequence with every
weightlab module wrapped, and reports per-layer figures from the spans.
On ``cli-cold`` its ops call ``cli.run`` in-process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from wlbench import calibrate, scoring

CLI_TIMEOUT_S = 60.0
BUILD_REPEATS = 5


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------

def write_weight_files(spec, workdir: Path) -> dict:
    files = {}
    for key, doc in spec["weights"].items():
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(doc))
        files[key] = str(path)
    return files


def resolve_argv(argv, files):
    return [files[a[1:]] if a.startswith("@") else a for a in argv]


def cli_record(op, code, stdout: bytes, stderr: str, timed_out: bool) -> dict:
    text = stdout.decode("utf-8", "replace")
    outcome = scoring.classify_cli(code, text, stderr, timed_out,
                                   op.get("malformed", False))
    statuses = {}
    if outcome == scoring.ANSWER:
        statuses = scoring.cli_statuses(op["argv"], scoring.cli_document(text))
    err = stderr.strip().splitlines()
    return {"id": op["id"], "outcome": outcome, "exit": code,
            "error": err[-1][:200] if err else None, "statuses": statuses,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_bytes": len(stdout)}


def run_cli_subprocess(op, files, workdir) -> dict:
    argv = [sys.executable, "-m", "weightlab.cli"] + resolve_argv(op["argv"], files)
    try:
        p = subprocess.run(argv, cwd=workdir, capture_output=True,
                           timeout=CLI_TIMEOUT_S)
        return cli_record(op, p.returncode, p.stdout,
                          p.stderr.decode("utf-8", "replace"), False)
    except subprocess.TimeoutExpired as exc:
        return cli_record(op, None, exc.stdout or b"",
                          (exc.stderr or b"").decode("utf-8", "replace"), True)


def run_cli_inprocess(op, files) -> dict:
    from wlbench import libops
    code, out, err = libops.run_cli_in_process(resolve_argv(op["argv"], files))
    return cli_record(op, code, out.encode("utf-8"), err, False)


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def signature(rec):
    return (rec["outcome"], rec["statuses"], rec.get("stdout_sha256"))


def timed_loop(ops, execute, first, seconds=None, count=None,
               full_pass=False, wrap=None, clock=None):
    """Cycle through ``ops`` for at least one whole pass and until
    ``seconds`` have passed, or for ``count`` ops.

    ``first`` maps op id to the record of the scoring pass; with
    ``full_pass`` the loop's own first pass fills it.  With a ``clock``
    the calibration kernel is timed between ops and ``scaled_s`` holds
    every sample at reference speed (``calibrate``); without one it holds
    the raw samples.
    """
    lat, ticks, mismatched, valid_failed = [], [], [], 0
    done = 0
    if clock is not None:
        clock.tick()
    t_start = perf_counter()
    deadline = t_start + (seconds or 0.0)
    n = len(ops)
    while True:
        op = ops[done % n]
        if clock is not None:
            ticks.append(clock.tick_if_due())
        t0 = perf_counter()
        rec = execute(op) if wrap is None else wrap(done, lambda: execute(op))
        t1 = perf_counter()
        lat.append(t1 - t0)
        if full_pass and done < n:
            first[op["id"]] = rec
        elif signature(rec) != signature(first[op["id"]]):
            mismatched.append(op["id"])
        if rec["outcome"] == scoring.FAILED and not op.get("malformed"):
            valid_failed += 1
        done += 1
        if count is not None:
            if done >= count:
                break
        elif done >= n and t1 >= deadline:
            break
    elapsed = perf_counter() - t_start
    if clock is not None:
        clock.tick()
        scaled = [x * clock.scale(t) for x, t in zip(lat, ticks)]
    else:
        scaled = lat
    return {"latencies_s": lat, "scaled_s": scaled, "ops": done,
            "elapsed_s": elapsed, "mismatched": sorted(set(mismatched)),
            "valid_failed": valid_failed}


def typical_ms(ops, samples_s) -> dict:
    """Op id -> the op's median time over the run, in ms; the samples
    cycle through ``ops`` in order."""
    per_op = {}
    for i, x in enumerate(samples_s):
        per_op.setdefault(ops[i % len(ops)]["id"], []).append(x * 1e3)
    return {k: statistics.median(v) for k, v in per_op.items()}


def mix_figures(typical) -> dict:
    """p50, p90 and rate of the fixed op mix, one figure per op: a slow
    spell during a few of an op's samples moves no figure, and ``ops_per_s``
    is the mix's op count over the sum of its ops' times."""
    return {"p50_ms": statistics.median(typical),
            "p90_ms": scoring.percentile(typical, 0.9),
            "ops_per_s": 1e3 * len(typical) / sum(typical)}


def latency_summary(ops, loop) -> dict:
    """Latency figures at reference speed (``calibrate``), with the same
    figures of the raw wall times kept for reference."""
    typical = list(typical_ms(ops, loop["scaled_s"]).values())
    raw = mix_figures(list(typical_ms(ops, loop["latencies_s"]).values()))
    return {"samples": len(loop["scaled_s"]), "ops_in_mix": len(typical),
            **mix_figures(typical),
            "beyond_p90": scoring.tail_beyond(typical, 0.9),
            "p90_rule_met": scoring.p90_rule_met(typical),
            **{f"raw_{k}": v for k, v in raw.items()}}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def per_layer(summary, ops_untraced_per_s, ops_traced_per_s, out_bytes):
    """Per-op figures from the span totals (``tracer.analyse``).

    Which end-to-end figures each layer should move, and where:

    import       setup_s everywhere; call_p50/p90_ms, ops_per_s on cli-cold
    cli          call_p50_ms on cli-cold
    core         ops_per_s, call_p90_ms on lib-numeric
    conditions   call_p90_ms on lib-numeric; call_p50_ms on lib-families
    growth       call_p90_ms, ops_per_s on lib-numeric (om_snq on the
                 profile); nothing on lib-families
    conjugate    ops_per_s on lib-numeric; conjugate and matrix on cli-cold
    relations    call_p90_ms on lib-numeric; call_p50_ms on lib-families
    lpspace, counterexample   ops_per_s on lib-numeric
    """
    n = max(summary["ops"], 1)
    inc = summary["inclusive_s"]
    calls = summary["calls"]
    pts = summary["points"]
    selfs = summary["self_s"]
    layer = summary["layer_self_s"]

    def ms(v):
        return 1e3 * v / n

    cc = summary["check_condition_calls"]
    verdicts = sum(calls.get(f"verdict.{k}", 0)
                   for k in ("holds", "fails", "inconclusive"))
    m = {
        "cli.run_self_ms": ms(selfs.get("cli.run", 0.0)),
        "cli.output_bytes": out_bytes / n,
        "core.load_weight_ms": ms(inc.get("core.load_weight", 0.0)),
        "core.evaluate_calls": calls.get("core.WeightFunction.evaluate", 0) / n,
        "core.evaluate_points": pts.get("core.WeightFunction.evaluate", 0) / n,
        "core.phi_calls": calls.get("core.WeightFunction.phi", 0) / n,
        "core.phi_points": pts.get("core.WeightFunction.phi", 0) / n,
        "conditions.classify_ms": ms(inc.get("conditions.classify", 0.0)),
        "conditions.check_condition_calls": cc / n,
        "conditions.closed_form_frac":
            (cc - summary["check_condition_evaluating"]) / cc if cc else 0.0,
        "conditions.om_snq_ms": ms(inc.get("conditions._check_om_snq", 0.0)),
        "conditions.om_sub_ms": ms(inc.get("conditions._check_om_sub", 0.0)),
        "conditions.om_nq_ms": ms(inc.get("conditions._check_om_nq", 0.0)),
        "growth.kappa_calls": calls.get("growth.kappa", 0) / n,
        "growth.kappa_self_ms": ms(selfs.get("growth.kappa", 0.0)),
        "growth.kappa_equivalence_ms":
            ms(inc.get("growth.kappa_equivalence_check", 0.0)),
        "growth.growth_index_ms": ms(inc.get("growth.growth_index", 0.0)),
        "conjugate.young_conjugate_ms": ms(inc.get("conjugate.young_conjugate", 0.0)),
        "conjugate.value_points": pts.get("conjugate.ConjugateProfile.value", 0) / n,
        "conjugate.value_ms": ms(inc.get("conjugate.ConjugateProfile.value", 0.0)),
        "conjugate.associated_weight_matrix_ms":
            ms(inc.get("conjugate.associated_weight_matrix", 0.0)),
        "relations.compare_ms": ms(inc.get("relations.compare", 0.0)),
        "relations.matrix_relation_ms": ms(inc.get("relations.matrix_relation", 0.0)),
        "relations.weight_at_calls": calls.get("relations.WeightMatrix.weight_at", 0) / n,
        "relations.verify_pointwise_order_ms":
            ms(inc.get("relations.WeightMatrix.verify_pointwise_order", 0.0)),
        "lpspace.inclusion_experiment_ms":
            ms(inc.get("lpspace.inclusion_experiment", 0.0)),
        "lpspace.weighted_norm_calls": calls.get("lpspace.weighted_norm", 0) / n,
        "lpspace.weighted_norm_ms": ms(inc.get("lpspace.weighted_norm", 0.0)),
        "verdict.inconclusive_frac":
            calls.get("verdict.inconclusive", 0) / verdicts if verdicts else 0.0,
        "trace.unattributed_ms": ms(summary["unattributed_s"]),
        "trace.op_wall_ms": ms(summary["op_wall_s"]),
        "trace.spans_per_op": summary["spans"] / n,
        "trace.ops_per_s_ratio": ops_traced_per_s / ops_untraced_per_s,
    }
    for name in ("core", "conditions", "growth", "conjugate", "relations",
                 "lpspace", "counterexample", "verdict"):
        m[f"{name}.self_ms"] = ms(layer.get(name, 0.0))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    spec = json.loads(Path(args.spec).read_text())
    workdir = Path(args.workdir)
    ops = spec["ops"]
    cli = spec["workload"] == "cli-cold"
    files = write_weight_files(spec, workdir) if cli else {}
    result = {"workload": spec["workload"], "seed": spec["seed"]}
    first: dict = {}
    # the traced run on cli-cold calls the CLI in-process
    clock = calibrate.Clock(fresh_process=cli and not args.trace)

    if cli and not args.trace:
        loop = timed_loop(ops, lambda op: run_cli_subprocess(op, files, workdir),
                          first, seconds=args.seconds, full_pass=True, clock=clock)
        result["build_s"] = 0.0
        result["peak_rss_mb"] = peak_rss_mb(children=True)
    else:
        from wlbench import libops
        watchdog = None
        if cli:
            result["build_s"] = 0.0

            def execute(op):
                return run_cli_inprocess(op, files)
        else:
            build = []
            for _ in range(BUILD_REPEATS):
                tick = clock.tick()
                t0 = perf_counter()
                inputs = libops.Inputs(spec)
                build.append((perf_counter() - t0, tick))
            clock.tick()
            result["build_s"] = statistics.median(x * clock.scale(t)
                                                  for x, t in build)
            watchdog = libops.Watchdog(libops.OP_TIMEOUT_S)

            def execute(op):
                return libops.record(op, inputs, watchdog)
        for op in ops:                        # scoring pass, untimed
            first[op["id"]] = execute(op)
        if not args.trace:
            loop = timed_loop(ops, execute, first, seconds=args.seconds,
                              clock=clock)
        else:
            from wlbench import tracer as tracing
            # the traced half repeats the untraced half's op sequence, so the
            # ratio of their rates at reference speed is the tracing overhead
            plain = timed_loop(ops, execute, first, seconds=args.seconds / 2,
                               clock=clock)
            tr = tracing.Tracer()
            tr.install()
            try:
                loop = timed_loop(ops, execute, first, count=plain["ops"],
                                  wrap=tr.run_op, clock=clock)
            finally:
                tr.uninstall()
            summary = tracing.analyse(tr)
            if args.spans:
                tr.write(args.spans)
            out_bytes = 0
            if cli:
                by_id = {op["id"]: first[op["id"]]["stdout_bytes"] for op in ops}
                out_bytes = sum(by_id[ops[i % len(ops)]["id"]]
                                for i in range(loop["ops"]))
            result["trace_summary"] = {k: v for k, v in summary.items()
                                       if k in ("ops", "spans", "max_accounting_error_s",
                                                "bad_nesting")}
            result["per_layer"] = per_layer(
                summary, plain["ops"] / sum(plain["scaled_s"]),
                loop["ops"] / sum(loop["scaled_s"]), out_bytes)
        if watchdog is not None:
            watchdog.close()
        result["peak_rss_mb"] = peak_rss_mb(children=False)

    median_ms = typical_ms(ops, loop["latencies_s"])
    result["pass1"] = [dict(first[op["id"]], median_ms=median_ms[op["id"]])
                       for op in ops]
    result["latency"] = latency_summary(ops, loop)
    result["ops"] = loop["ops"]
    result["elapsed_s"] = loop["elapsed_s"]
    result["passes"] = loop["ops"] // len(ops)
    result["mismatched"] = loop["mismatched"]
    result["valid_failed"] = loop["valid_failed"]
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
