"""The numeric subadditivity scan: the banded pair triangle, pinned
verdicts and the witness kept across a horizon error."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weightlab import (Dilated, Exp, Gevrey, Log, LogPower, Normalized, Power, Scaled,
                       WeightFunction, conditions, counterexample, load_weight)
from weightlab.errors import WeightlabError
from weightlab.verdict import to_json

from conftest import _Opaque


SQRT_FACTORIAL = [0.5 * math.lgamma(k + 1) for k in range(60)]
CORNERS = [[0.0, 0.0], [1.0, 1.3], [2.1, 2.9], [3.2, 4.9]]


def _weights():
    """The weights of the benchmark workloads, with one fixed draw of the
    parameters their seeds vary: the J=60 counterexample, a profile and its
    dilation, normalized log^2, two sequences, opaque wrappers of the
    families, the growth-order chain and the families with their scaled
    and dilated wrappers."""
    fams = {"pow": Power(0.45), "sup": Power(1.55), "gev": Gevrey(2.1), "log": Log(),
            "lp": LogPower(2.2), "exp": Exp()}
    ws = {
        "prof": counterexample.construct(counterexample.default_delta(60), 0.5, 60).weight,
        "pll": load_weight({"profile": CORNERS}),
        "dpll": load_weight({"family": "dilated", "params": {"c": 4.0},
                             "base": {"profile": CORNERS}}),
        "nlp2": Normalized(LogPower(2.0)),
        "sqrtfact": load_weight({"sequence": SQRT_FACTORIAL}),
        "seq": load_weight({"sequence": [0.75 * k * k for k in range(60)]}),
        "o_sqrt": _Opaque(Power(0.5)), "o_sq": _Opaque(Power(2.0)),
        "o_dil": _Opaque(Dilated(1.5, Power(0.45))),
        "c_log2": LogPower(2.0), "c_t14": Power(0.25), "c_t12": Power(0.5),
        "c_t1": Power(1.0),
    }
    for name, w in fams.items():
        ws[f"o_{name}"] = _Opaque(w)
        ws[f"f_{name}"] = w
        ws[f"f_sc_{name}"] = Scaled(2.0, w)
        ws[f"f_dil_{name}"] = Dilated(1.5, w)
    return ws


WEIGHTS = _weights()


def _digest(v):
    text = json.dumps(to_json(v), sort_keys=True)
    return f"{v.status.value} {hashlib.sha256(text.encode()).hexdigest()[:16]}"


# --------------------------------------------------------------------------
# the scan over the pair triangle
# --------------------------------------------------------------------------

def _masked_scan(vals):
    """Reference: the argmax over the full n x n pair matrix, with the pairs
    outside i <= j, i + j < n masked to -inf."""
    n = vals.size
    idx = np.arange(n)
    pairs = (idx[:, None] + idx[None, :] < n) & (idx[:, None] <= idx[None, :])
    pair_sum = np.minimum(idx[:, None] + idx[None, :], n - 1)
    i, j = divmod(int(np.argmax(np.where(
        pairs, vals[pair_sum] - vals[:, None] - vals[None, :], -np.inf))), n)
    return i, j, float(vals[i + j] - vals[i] - vals[j])


@st.composite
def _samples(draw):
    """Samples of the shapes the scan meets; the integer and flat ones tie."""
    n = draw(st.sampled_from((1, 2, 3, 8, 65, 512)))
    x = np.linspace(0.0, draw(st.sampled_from((2.0, 64.0, 1e6))), n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = draw(st.floats(0.0, 10.0))
    return draw(st.sampled_from((
        rng.normal(size=n),                                   # random
        rng.integers(0, 3, n).astype(float),                  # random, with ties
        np.full(n, c),                                        # constant
        np.where(x < x[n // 3], 0.0, np.log1p(x)),            # zero prefix
        np.sqrt(x) * c,                                       # concave
        x ** 2 * c,                                           # convex
        np.minimum(x, x[n // 2]),                             # plateau
        np.floor(x * c),                                      # staircase
    )))


@given(_samples())
def test_the_triangle_scan_matches_the_masked_matrix(vals):
    assert conditions._worst_pair(vals) == _masked_scan(vals)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 511, 512])
def test_the_banded_scan_matches_the_masked_matrix_at_fixed_sizes(n):
    x = np.linspace(0.0, 64.0, n)
    rng = np.random.default_rng(n)
    for vals in (rng.normal(size=n), np.sqrt(x), x ** 2, np.floor(x / 3.0),
                 rng.integers(0, 3, n).astype(float)):
        assert conditions._worst_pair(vals) == _masked_scan(vals)


# --------------------------------------------------------------------------
# pinned verdicts and the witness kept across a horizon error
# --------------------------------------------------------------------------

# om_sub on every weight, as computed by the full-matrix scan.  sqrtfact and
# o_exp were inconclusive there: a later scale raised past the last stored
# term (HorizonTooSmall) or past the double range (NonFinite) after the
# first scale had found a violation, which now stands.
PINNED = {
    "prof": "fails 1f7eb849ce0b7e91",
    "pll": "fails 8f044c527b8fd780",
    "dpll": "fails 832361d77e3685fc",
    "nlp2": "fails 42abc274c26d6de7",
    "sqrtfact": "fails 374b321a305a7797",
    "seq": "fails 204c6af17b757259",
    "o_sqrt": "holds 2a9f01d085101d40",
    "o_sq": "fails 7198931a7e33cdd2",
    "o_dil": "holds 2a9f01d085101d40",
    "c_log2": "fails f18cbb446fdb01f8",
    "c_t14": "holds cfa0d497e9c0197e",
    "c_t12": "holds cfa0d497e9c0197e",
    "c_t1": "holds cfa0d497e9c0197e",
    "o_pow": "holds 2a9f01d085101d40",
    "f_pow": "holds cfa0d497e9c0197e",
    "f_sc_pow": "holds cfa0d497e9c0197e",
    "f_dil_pow": "holds cfa0d497e9c0197e",
    "o_sup": "fails 09ae0d55c5db682b",
    "f_sup": "fails f18cbb446fdb01f8",
    "f_sc_sup": "fails f18cbb446fdb01f8",
    "f_dil_sup": "fails f18cbb446fdb01f8",
    "o_gev": "holds 2a9f01d085101d40",
    "f_gev": "holds cfa0d497e9c0197e",
    "f_sc_gev": "holds cfa0d497e9c0197e",
    "f_dil_gev": "holds cfa0d497e9c0197e",
    "o_log": "holds 2a9f01d085101d40",
    "f_log": "holds cfa0d497e9c0197e",
    "f_sc_log": "holds cfa0d497e9c0197e",
    "f_dil_log": "holds cfa0d497e9c0197e",
    "o_lp": "fails 5feb454b4f8468bc",
    "f_lp": "fails f18cbb446fdb01f8",
    "f_sc_lp": "fails f18cbb446fdb01f8",
    "f_dil_lp": "fails f18cbb446fdb01f8",
    "o_exp": "fails 08e9fced3dd56761",
    "f_exp": "fails f18cbb446fdb01f8",
    "f_sc_exp": "fails f18cbb446fdb01f8",
    "f_dil_exp": "fails f18cbb446fdb01f8",
}


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_om_sub_verdicts_are_pinned(name):
    assert _digest(conditions.check_condition(WEIGHTS[name], "om_sub")) == PINNED[name]


@pytest.mark.parametrize("name", ["sqrtfact", "o_exp"])
def test_a_violation_found_before_a_horizon_error_stands(name):
    # sqrt(k!) has no phi past t ~ 7.7, so the scale up to 64 raises; e^t
    # leaves the double range on the scale up to 2048
    w = WEIGHTS[name]
    with pytest.raises(WeightlabError):
        w.evaluate(np.linspace(0.0, 2048.0, 512))
    v = conditions.check_condition(w, "om_sub")
    assert v.fails
    s, t = v.witness["s"], v.witness["t"]
    gap = w.evaluate(s + t) - w.evaluate(s) - w.evaluate(t)
    assert gap > 0 and gap == pytest.approx(v.witness["violation"])


class _SqrtUpTo10(WeightFunction):
    """sqrt(t), with no finite value past t = 10."""

    def _eval(self, t):
        return np.where(t <= 10.0, np.sqrt(t), np.inf)


def test_a_horizon_error_with_no_violation_before_it_leaves_om_sub_inconclusive():
    v = conditions.check_condition(_SqrtUpTo10(), "om_sub")
    assert v.inconclusive and v.notes.startswith("NonFinite: ")
