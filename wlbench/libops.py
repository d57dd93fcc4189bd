"""Library-side op execution: builds the inputs and makes one public call per op."""

from __future__ import annotations

import _thread
import contextlib
import io
import threading
import traceback
from time import perf_counter

import numpy as np

from weightlab import (cli, conditions, conjugate, core, counterexample, growth,
                       lpspace, relations)
from weightlab.errors import WeightlabError

from . import scoring

OP_TIMEOUT_S = 30.0


class Opaque(core.WeightFunction):
    """The same function behind a type weightlab has no closed form for,
    which forces every check onto the numeric path."""

    def __init__(self, inner: core.WeightFunction):
        self.inner = inner
        self.nondecreasing = inner.nondecreasing
        self.normalized = inner.normalized

    def _eval(self, t):
        return self.inner._eval(t)

    def _phi_unchecked(self, u):
        return self.inner._phi_unchecked(u)

    def to_json_dict(self):
        return {"opaque": self.inner.to_json_dict()}


class Inputs:
    """Weight objects for one workload, built once from the spec."""

    def __init__(self, spec: dict):
        self.weights = {}
        self.profile = None
        for key, doc in spec["weights"].items():
            self.weights[key] = self._build(doc)
        self.delta = counterexample.default_delta(60)
        self.delta_half = counterexample.power_delta(self.delta, 0.5)

    def _build(self, doc):
        if "opaque" in doc:
            return Opaque(self._build(doc["opaque"]))
        if "counterexample" in doc:
            p = doc["counterexample"]
            self.profile = counterexample.construct(
                counterexample.default_delta(p["J"]), p["t1"], p["J"])
            return self.profile.weight
        return core.load_weight(doc)


def _matrix(inputs, key, kind):
    w = inputs.weights[key]
    if kind == "exponential":
        return relations.WeightMatrix.exponential(w)
    return relations.WeightMatrix.dilatation(w)


def call(op: dict, inputs: Inputs):
    """Make the op's library call; returns (result, statuses)."""
    c = op["call"]
    W = inputs.weights
    if c == "classify":
        rep = conditions.classify(W[op["w"]])
        return rep, {k: v.status.value for k, v in rep.conditions.items()}
    if c == "check_condition":
        v = conditions.check_condition(W[op["w"]], op["cond"])
        return v, {op["cond"]: v.status.value}
    if c == "compare":
        rv = relations.compare(W[op["sigma"]], W[op["tau"]], op["rel"])
        return rv, {op["rel"]: rv.verdict.status.value}
    if c == "kappa":
        return growth.kappa(W[op["w"]], op["y"]), {}
    if c == "kappa_equivalence_check":
        v = growth.kappa_equivalence_check(W[op["w"]])
        return v, {"kappa_equivalence": v.status.value}
    if c == "growth_index":
        return growth.growth_index(W[op["w"]]), {}
    if c == "young_conjugate":
        w = W[op["w"]]
        x_max = op["x_max"]
        if isinstance(w, core.PiecewiseLogLinear):
            x_max = min(x_max, float(w.final_slope))
        prof = conjugate.young_conjugate(w, x_max)
        xs = np.linspace(0.0, min(x_max, prof.slope_cap), op["points"])
        return prof.value(xs), {}
    if c == "associated_weight_matrix":
        return conjugate.associated_weight_matrix(W[op["w"]], op["ell"],
                                                  op["j_max"]), {}
    if c == "matrix_relation":
        S = _matrix(inputs, op["s"], op["s_kind"])
        T = _matrix(inputs, op["t"], op["t_kind"])
        rv = relations.matrix_relation(S, T, op["rel"])
        return rv, {op["rel"]: rv.verdict.status.value}
    if c == "inclusion_experiment":
        S = _matrix(inputs, op["s"], op["s_kind"])
        T = _matrix(inputs, op["t"], op["t_kind"])
        rep = lpspace.inclusion_experiment(S, T, op["p"], kind=op["kind"])
        return rep, {"relation": rep.relation.verdict.status.value}
    if c == "certificate":
        prof = inputs.profile
        cert = op["cert"]
        if cert == "verify":
            b = counterexample.verify_profile(prof)
            return b, {"all_ok": b.all_ok}
        if cert == "nonconvexity":
            return counterexample.nonconvexity_certificate(prof, 64.0), {}
        if cert == "slow_variation":
            return counterexample.slow_variation_certificate(
                prof, (0.5, 1.0, 2.0, 5.0)), {}
        v = counterexample.nonequivalence(inputs.delta, inputs.delta_half, 60, 0.5)
        return v, {"nonequivalence": v.status.value}
    if c == "load_weight":
        return core.load_weight(op["doc"]), {}
    raise ValueError(f"unknown op call {c!r}")


def run_op(op: dict, inputs: Inputs):
    """(outcome, error type name, statuses) for one library op."""
    try:
        _, statuses = call(op, inputs)
    except WeightlabError as exc:
        return scoring.classify_lib(exc, True, op.get("malformed", False)), \
            type(exc).__name__, {}
    except Exception as exc:  # an uncaught library error is the finding
        return scoring.classify_lib(exc, False, op.get("malformed", False)), \
            type(exc).__name__, {}
    return scoring.classify_lib(None, False, op.get("malformed", False)), None, statuses


class Watchdog:
    """Interrupts the main thread when one op runs past the time limit."""

    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.started = None
        self.fired = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _watch(self):
        while not self._stop.wait(1.0):
            t = self.started
            if t is not None and perf_counter() - t > self.limit:
                self.fired = True
                self.started = None
                _thread.interrupt_main()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)


def record(op, inputs, watchdog) -> dict:
    """The op's outcome record; an op past the time limit has failed."""
    watchdog.started = perf_counter()
    try:
        outcome, error, statuses = run_op(op, inputs)
    except KeyboardInterrupt:
        if not watchdog.fired:
            raise
        watchdog.fired = False
        outcome, error, statuses = scoring.FAILED, "OpTimeLimit", {}
    finally:
        watchdog.started = None
    return {"id": op["id"], "outcome": outcome, "error": error,
            "statuses": statuses}


def run_cli_in_process(argv: list[str]):
    """cli.run on ``argv`` in this interpreter: (exit code, stdout, stderr).

    An exception escaping ``cli.run`` is reported as the traceback the
    console entry point would print, with exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    return code, out.getvalue(), err.getvalue()

