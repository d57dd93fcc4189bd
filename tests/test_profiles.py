"""The profile view: a scaled, dilated or normalized profile (or sequence
weight) carries the corners of its phi, and the exact paths read them."""

import json
import math

import numpy as np
import pytest

from weightlab import (Dilated, Normalized, PiecewiseLogLinear, Scaled, WeightFunction,
                       conditions, conjugate, dump_weight, growth, load_weight)
from weightlab.errors import HorizonTooSmall

P = PiecewiseLogLinear([[0.0, 0.0], [1.19695845, 1.246052],
                        [2.36953906, 3.1512431], [3.47111707, 5.32910855]])
GAUSSIAN = load_weight({"sequence": [0.75 * k * k for k in range(60)]})

WRAPPED = {
    "scaled": Scaled(2.5, P),
    "dilated_up": Dilated(4.0, P),
    "dilated_down": Dilated(0.5, P),
    "normalized_dilated": Normalized(Dilated(4.0, P)),
    # every corner of the base lies left of u = 0: one corner and a ray
    "normalized_ray": Normalized(Dilated(100.0, P)),
}


@pytest.mark.parametrize("name", list(WRAPPED))
def test_wrapped_profile_phi_matches_the_wrapper(name):
    w = WRAPPED[name]
    u = np.linspace(-3.0, 40.0, 4001)
    np.testing.assert_allclose(w.profile.phi(u), w.phi(u), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("w", [Scaled(2.5, GAUSSIAN), Dilated(4.0, GAUSSIAN)],
                         ids=["scaled", "dilated"])
def test_wrapped_sequence_phi_matches_up_to_its_last_corner(w):
    u = np.linspace(-3.0, float(w.profile.us[-1]), 4001)
    np.testing.assert_allclose(w.profile.phi(u), w.phi(u), rtol=1e-12, atol=0.0)


def test_om4_is_exact_on_a_normalized_ray():
    v = conditions.check_condition(WRAPPED["normalized_ray"], "om4")
    assert v.holds and v.certificate == {"exact": True, "min_slope_increase": 0.0}


def test_kappa_of_a_dilated_profile_is_kappa_at_the_dilated_argument():
    ys = np.array([0.3, 1.0, 10.0, 1e3])
    for y, r in zip(ys, growth.kappa(Dilated(4.0, P), ys)):
        assert r.evidence["method"] == "exact piecewise integral with final-slope extension"
        assert r.value == pytest.approx(growth.kappa(P, 4.0 * y).value, rel=1e-12)


def test_conjugates_of_dilated_and_scaled_profiles():
    # phi(u + log c) has conjugate phi*(x) - x log c; c phi has c phi*(x / c)
    c, xs = 3.0, np.linspace(0.0, float(P.final_slope), 41)
    base = conjugate.young_conjugate(P, float(P.final_slope))
    dil = conjugate.young_conjugate(Dilated(c, P), float(P.final_slope))
    assert dil.exact
    np.testing.assert_allclose(dil.value(xs), base.value(xs) - xs * math.log(c),
                               rtol=1e-12, atol=1e-12)
    sc = conjugate.young_conjugate(Scaled(c, P), c * float(P.final_slope))
    assert sc.exact
    np.testing.assert_allclose(sc.value(c * xs), c * base.value(xs), rtol=1e-12, atol=1e-12)


def test_dilated_sequence_raises_past_its_shifted_last_corner():
    w = Dilated(2.0, GAUSSIAN)
    last = float(w.profile.us[-1])
    assert last == pytest.approx(float(GAUSSIAN.us[-1]) - math.log(2.0))
    w.phi(last)
    with pytest.raises(HorizonTooSmall, match="P=59"):
        w.phi(last + 0.01)
    # the horizon T = e^(last + 0.01) takes kappa at y = 1 just past it
    growth.kappa(w, 1.0, math.exp(last - 0.01))
    with pytest.raises(HorizonTooSmall, match="P=59"):
        growth.kappa(w, 1.0, math.exp(last + 0.01))


def test_dilated_sequence_that_still_vanishes_on_the_unit_interval_is_normalized():
    # the first corner u_0 = 0.75 moves to 0.75 - log 2 > 0, so w = 0 on
    # [0, e^0.057]: the profile says so exactly
    w = Dilated(2.0, GAUSSIAN)
    assert w.normalized
    v = conditions.check_condition(w, "normalized")
    assert v.holds and v.certificate == {"flag": True, "samples_zero": True}
    assert not Dilated(4.0, P).normalized and Dilated(0.5, P).normalized


def test_convex_profile_is_its_own_biconjugate():
    # past the last corner the envelope follows the final ray, whichever
    # corners the hull keeps
    w = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    u = np.linspace(-1.0, 6.0, 71)
    biconj, rep = conjugate.double_conjugate(w, u)
    np.testing.assert_allclose(biconj, w.phi(u), atol=1e-12)
    assert rep.zero_gap and rep.convexity_consistent


_DOCS = {
    "scaled": (Scaled(2.5, PiecewiseLogLinear([[0, 0], [1, 1], [3, 4]])),
               '{"family": "scaled", "params": {"c": 2.5}, '
               '"base": {"profile": [[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]]}}'),
    "dilated": (Dilated(4, PiecewiseLogLinear([[0, 0], [1, 1], [3, 4]])),
                '{"family": "dilated", "params": {"c": 4}, '
                '"base": {"profile": [[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]]}}'),
    "normalized": (Normalized(Dilated(4, PiecewiseLogLinear([[0, 0], [1, 1], [3, 4]]))),
                   '{"family": "normalized", "params": {}, "base": {"family": "dilated", '
                   '"params": {"c": 4}, "base": {"profile": '
                   '[[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]]}}}'),
    "dilated_sequence": (Dilated(2, load_weight({"sequence": [0.75 * k * k for k in range(4)]})),
                         '{"family": "dilated", "params": {"c": 2}, '
                         '"base": {"sequence": [0.0, 0.75, 3.0, 6.75]}}'),
}


@pytest.mark.parametrize("name", list(_DOCS))
def test_wrapper_documents_and_reprs_are_unchanged(name):
    w, doc = _DOCS[name]
    assert json.dumps(dump_weight(w)) == doc
    assert repr(w) == f"{type(w).__name__}({json.loads(doc)})"


def test_a_weight_function_that_sets_nothing_has_no_profile():
    class Bare(WeightFunction):
        def _eval(self, t):
            return t

    assert Bare().profile is None
    assert Scaled(2.0, Bare()).profile is None
