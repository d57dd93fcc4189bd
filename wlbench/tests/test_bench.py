"""Self-tests of the benchmark: answer key, outcome rules, p90 rule, seeds, spans.

    PYTHONPATH=src python3 -m pytest -q wlbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from wlbench import answer_key, scoring, workloads  # noqa: E402

POWER = lambda a: {"family": "power", "params": {"alpha": a}}  # noqa: E731
LOG = {"family": "log", "params": {}}


# ---------------------------------------------------------------------------
# answer key against the literature
# ---------------------------------------------------------------------------

def test_gevrey_weights_satisfy_the_bmt_conditions():
    # t^(1/s), s > 1, is the model non-quasianalytic weight of
    # Braun-Meise-Taylor (1990)
    doc = {"family": "gevrey", "params": {"s": 2.0}}
    for cond in ("om1", "om2", "om3", "om4", "om5", "om_nq", "om_snq",
                 "alpha0", "om_sub", "nondecreasing"):
        assert answer_key.condition_truth(doc, cond) is True, cond
    assert answer_key.condition_truth(doc, "normalized") is False


def test_linear_weight_is_quasianalytic():
    # omega(t) = t gives the real-analytic class: int t / t^2 diverges
    doc = POWER(1.0)
    assert answer_key.condition_truth(doc, "om_nq") is False
    assert answer_key.condition_truth(doc, "om2") is True
    assert answer_key.condition_truth(doc, "om5") is False
    assert answer_key.condition_truth(POWER(2.0), "alpha0") is False


def test_log_is_not_a_bmt_weight():
    # BMT weights need log t = o(omega); log(1+t) only gives log t = O(omega)
    assert answer_key.condition_truth(LOG, "om3") is False
    assert answer_key.condition_truth(LOG, "om6") is False
    assert answer_key.condition_truth(LOG, "om_sub") is True
    lp = {"family": "logpower", "params": {"beta": 2.0}}
    assert answer_key.condition_truth(lp, "om3") is True
    assert answer_key.condition_truth(lp, "om_sub") is False


def test_exp_fails_doubling_and_integrability():
    exp = {"family": "exp", "params": {}}
    assert answer_key.condition_truth(exp, "om1") is False
    assert answer_key.condition_truth(exp, "om_nq") is False
    assert answer_key.condition_truth(exp, "om6") is True


def test_wrappers_carry_truths_over():
    base = POWER(0.5)
    for wrapped in ({"family": "scaled", "params": {"c": 3.0}, "base": base},
                    {"family": "dilated", "params": {"c": 3.0}, "base": base},
                    {"opaque": base}):
        for cond in answer_key.SCORED_CONDITIONS:
            assert answer_key.condition_truth(wrapped, cond) == \
                answer_key.condition_truth(base, cond), (wrapped, cond)
    profile = {"profile": [[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]]}
    assert answer_key.condition_truth(
        {"family": "dilated", "params": {"c": 4.0}, "base": profile},
        "normalized") is False
    assert answer_key.condition_truth(
        {"family": "dilated", "params": {"c": 0.5}, "base": profile},
        "normalized") is True


def test_profile_truths_are_exact():
    convex = {"profile": [[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]]}
    assert answer_key.condition_truth(convex, "om4") is True
    plateau = {"profile": [[0.0, 0.0], [1.0, 2.0], [2.0, 2.0], [3.0, 5.0]]}
    assert answer_key.condition_truth(plateau, "om4") is False
    ce = workloads.COUNTEREXAMPLE
    assert answer_key.condition_truth(ce, "om4") is False
    assert answer_key.condition_truth(ce, "nondecreasing") is True
    assert answer_key.condition_truth(ce, "unbounded_limit") is True
    assert answer_key.condition_truth(ce, "om1") is None


def test_relation_truths_follow_growth_orders():
    log2 = {"family": "logpower", "params": {"beta": 2.0}}
    t14 = POWER(0.25)
    # tau = log^2 is of lower order than sigma = t^(1/4)
    assert answer_key.relation_truth(t14, log2, "preceq") is True
    assert answer_key.relation_truth(t14, log2, "triangle") is True
    assert answer_key.relation_truth(t14, log2, "triangle_c") is True
    assert answer_key.relation_truth(t14, log2, "sim_c") is False
    assert answer_key.relation_truth(t14, log2, "le") is None
    # and nothing of lower order dominates t^(1/4)
    for rel in answer_key.RELATIONS:
        assert answer_key.relation_truth(log2, t14, rel) is False
    assert answer_key.relation_truth(LOG, LOG, "preceq") is None


def test_key_never_reads_weightlab():
    src = (ROOT / "wlbench" / "answer_key.py").read_text()
    assert "import weightlab" not in src and "from weightlab" not in src
    assert "_closed_form" not in src


# ---------------------------------------------------------------------------
# outcome rules
# ---------------------------------------------------------------------------

TRACEBACK = ('Traceback (most recent call last):\n  File "cli.py", line 1\n'
             "KeyError: 'c'\n")


def test_malformed_inputs_fail_while_they_end_in_a_traceback():
    # what the CLI does with both malformed inputs at the time of writing
    assert scoring.classify_cli(1, "", TRACEBACK, False, True) == scoring.FAILED
    assert scoring.classify_lib(KeyError("c"), False, True) == scoring.FAILED
    assert scoring.classify_lib(ValueError("om9"), False, True) == scoring.FAILED


def test_malformed_inputs_pass_once_they_end_in_a_one_line_error():
    err = "error: unknown condition 'om9'\n"
    assert scoring.classify_cli(1, "", err, False, True) == scoring.REJECTED
    assert scoring.classify_lib(RuntimeError("typed"), True, True) == scoring.REJECTED
    # accepting a malformed input, or a multi-line error, is still a failure
    doc = json.dumps({"schema_version": 1, "results": {}})
    assert scoring.classify_cli(0, doc, "", False, True) == scoring.FAILED
    assert scoring.classify_cli(1, "", "error: a\nerror: b\n", False, True) \
        == scoring.FAILED


def test_valid_input_outcomes():
    doc = json.dumps({"schema_version": 1, "results": {}})
    assert scoring.classify_cli(0, doc, "", False, False) == scoring.ANSWER
    assert scoring.classify_cli(3, doc, "", False, False) == scoring.ANSWER
    assert scoring.classify_cli(0, "not json", "", False, False) == scoring.FAILED
    assert scoring.classify_cli(0, json.dumps({"schema_version": 2}), "", False,
                                False) == scoring.FAILED
    assert scoring.classify_cli(1, "", "error: horizon\n", False, False) == scoring.TYPED
    assert scoring.classify_cli(1, "", TRACEBACK, False, False) == scoring.FAILED
    assert scoring.classify_cli(4, doc, "", False, False) == scoring.FAILED
    assert scoring.classify_cli(None, "", "", True, False) == scoring.FAILED


def test_inconclusive_is_never_wrong():
    items = {"om1": True, "om2": False, "om3": True}
    assert scoring.count_wrong(items, {"om1": "inconclusive", "om2": "inconclusive",
                                       "om3": "inconclusive"}) == 0
    assert scoring.count_wrong(items, {"om1": "fails", "om2": "holds",
                                       "om3": "holds"}) == 2
    assert scoring.count_wrong(items, {}) == 0


# ---------------------------------------------------------------------------
# p90 sample-count rule
# ---------------------------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    xs = list(range(1, 101))
    assert scoring.percentile(xs, 0.9) == 90
    assert scoring.tail_beyond(xs, 0.9) == 10
    assert scoring.p90_rule_met(xs)
    assert not scoring.p90_rule_met(list(range(1, 91)))
    assert not scoring.p90_rule_met([5.0] * 500)      # ties leave no tail
    assert scoring.percentile([3.0], 0.9) == 3.0
    with pytest.raises(ValueError):
        scoring.percentile([], 0.5)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_takes_out_the_host_speed():
    from wlbench import calibrate

    clock = calibrate.Clock()
    # the host halves its speed after the fifth tick
    clock.ticks = [calibrate.KERNEL_REF_S] * 5 + [2 * calibrate.KERNEL_REF_S] * 5
    assert clock.scale(0) == 1.0
    assert clock.scale(1) == 1.0
    assert clock.scale(8) == 0.5
    # an op that takes 10 ms before and 20 ms after reads 10 ms both times
    assert 0.010 * clock.scale(1) == 0.020 * clock.scale(8)
    # a CLI call is scaled by the two ticks around it alone
    clock = calibrate.Clock(fresh_process=True)
    ref = calibrate.PROCESS_KERNEL_REF_S
    clock.ticks = [ref, ref, 3 * ref, 3 * ref]
    assert clock.scale(0) == 1.0
    assert clock.scale(1) == 0.5
    assert clock.scale(2) == 1 / 3


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_always_generates_the_same_workload(name):
    a = json.dumps(workloads.generate(name, 7), sort_keys=True)
    b = json.dumps(workloads.generate(name, 7), sort_keys=True)
    assert a == b
    assert a != json.dumps(workloads.generate(name, 8), sort_keys=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fixed_inputs_do_not_depend_on_the_seed(name):
    def fixed(spec):
        ops = sorted(json.dumps({k: v for k, v in op.items() if k != "id"},
                                sort_keys=True)
                     for op in spec["ops"] if op.get("malformed"))
        keep = ("prof", "nlp2", "sqrtfact", "malformed") + tuple(workloads.CHAIN)
        return ops, {k: v for k, v in spec["weights"].items() if k in keep}
    assert fixed(workloads.generate(name, 1)) == fixed(workloads.generate(name, 2))
    assert len(fixed(workloads.generate(name, 1))[0]) == 2


def test_every_scored_op_has_a_known_truth():
    for name in workloads.WORKLOADS:
        spec = workloads.generate(name, 3)
        total = sum(len(scoring.scored_items(op, spec["weights"]))
                    for op in spec["ops"])
        assert total > 0
        for op in spec["ops"]:
            for truth in scoring.scored_items(op, spec["weights"]).values():
                assert truth in (True, False)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_spans_account_for_every_op():
    from weightlab import Power, conditions
    from wlbench import tracer

    original = conditions.check_condition
    tr = tracer.Tracer()
    tr.install()
    try:
        assert conditions.check_condition is not original
        for i in range(3):
            tr.run_op(i, lambda: conditions.classify(Power(0.5)))
    finally:
        tr.uninstall()
    assert conditions.check_condition is original
    s = tracer.analyse(tr)
    assert s["ops"] == 3
    assert s["bad_nesting"] == 0
    assert s["max_accounting_error_s"] < 1e-9
    total = sum(s["layer_self_s"].values()) + s["unattributed_s"]
    assert math.isclose(total, s["op_wall_s"], rel_tol=1e-9)
    assert s["check_condition_calls"] == 3 * len(conditions.CONDITION_IDS)


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_names_what_the_runs_report():
    from wlbench import run, worker

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in spec["end_to_end"] if m["name"] == "setup_s").items()
    empty = {"ops": 1, "inclusive_s": {}, "calls": {}, "points": {}, "self_s": {},
             "layer_self_s": {}, "check_condition_calls": 0,
             "check_condition_evaluating": 0, "unattributed_s": 0.0,
             "op_wall_s": 0.0, "spans": 0}
    emitted = set(worker.per_layer(empty, 1.0, 1.0, 0)) | set(run.PER_LAYER_UNITS)
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layers) == emitted
    assert all(run.layer_unit(k) == u for k, u in layers.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
