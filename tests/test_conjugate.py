import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import weightlab
from weightlab import (Gevrey, Log, Normalized, LogPower, PiecewiseLogLinear,
                       Power, conditions, conjugate, core, load_weight)
from weightlab.errors import (HorizonTooSmall, NotMatrixAdmissible, Om3Violated,
                              ValidationFailed, YHorizonTooSmall)


def test_linear_weight_conjugate_closed_form():
    # phi(u) = e^u, so phi*(x) = x log x - x (and 0 at x = 0)
    prof = conjugate.young_conjugate(Power(1.0), x_max=200.0)
    for x in np.geomspace(0.1, 100.0, 40):
        expect = x * math.log(x) - x
        assert prof.value(float(x)) == pytest.approx(expect, rel=1e-8, abs=1e-8)
    assert prof.value(math.e) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0])
def test_power_conjugate_closed_form(alpha):
    # phi(y) = e^{alpha y}: the supremum sits at y = log(x/alpha)/alpha
    prof = conjugate.young_conjugate(Power(alpha), x_max=50.0)
    xs = np.geomspace(1e-2, 50.0, 30)
    expect = (xs / alpha) * (np.log(xs / alpha) - 1.0)
    np.testing.assert_allclose(prof.value(xs), expect, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("w", [Power(0.5), Normalized(LogPower(2.0))])
def test_conjugate_array_matches_pointwise(w):
    prof = conjugate.young_conjugate(w, x_max=20.0)
    xs = np.linspace(0.0, 20.0, 301)
    one_by_one = np.array([prof.value(float(x)) for x in xs])
    np.testing.assert_array_equal(prof.value(xs), one_by_one)


def test_numeric_paths_do_not_import_scipy():
    code = ("import sys\n"
            "from weightlab import Normalized, LogPower, Power, conjugate, growth\n"
            "growth.kappa(Normalized(LogPower(2.0)), 0.5)\n"
            "conjugate.young_conjugate(Power(0.5), 10.0).value([1.0, 5.0])\n"
            "conjugate.associated_weight_matrix(Power(0.5), 1.0, 20)\n"
            "print('scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(weightlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_conjugate_against_brute_force_sup():
    prof = conjugate.young_conjugate(Gevrey(2.0), x_max=50.0)
    ys = np.linspace(0.0, 60.0, 400_000)
    phis = Gevrey(2.0).phi(ys)
    for x in (0.5, 2.0, 10.0, 40.0):
        brute = float(np.max(x * ys - phis))
        assert prof.value(x) == pytest.approx(brute, rel=1e-6, abs=1e-6)


def test_conjugate_is_convex():
    prof = conjugate.young_conjugate(Power(0.5), x_max=20.0)
    xs = np.linspace(0.0, 20.0, 200)
    vals = np.array([prof.value(float(x)) for x in xs])
    assert np.all(np.diff(vals, 2) >= -1e-6)  # convex
    assert vals[-1] > vals[0]                 # eventually increasing


def test_om3_precondition():
    with pytest.raises(Om3Violated):
        conjugate.young_conjugate(Log(), x_max=10.0)


def test_om3_precheck_lets_programming_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug")
    monkeypatch.setattr(conditions, "check_condition", broken)
    with pytest.raises(RuntimeError, match="bug"):
        conjugate.young_conjugate(Power(0.5), 10.0)


def test_om3_precheck_horizon_problem_is_inconclusive(monkeypatch):
    def short(*args, **kwargs):
        raise HorizonTooSmall("too short")
    monkeypatch.setattr(conditions, "check_condition", short)
    assert conjugate._om3_status(Power(0.5)).inconclusive
    # the conjugate is still computed: (x / a) (log(x / a) - 1) for t^a
    prof = conjugate.young_conjugate(Power(0.5), 10.0)
    assert prof.value(2.0) == pytest.approx(4.0 * (math.log(4.0) - 1.0), rel=1e-9)


@pytest.mark.parametrize("w", [Power(0.5), Normalized(LogPower(2.0)),
                               PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (3.0, 4.0)])],
                         ids=["power", "nlp2", "profile"])
def test_associated_matrix_checks_om3_once(monkeypatch, w):
    calls = []
    check = conditions.check_condition

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return check(*args, **kwargs)
    monkeypatch.setattr(conditions, "check_condition", counted)
    conjugate.associated_weight_matrix(w, ell=0.5, j_max=2)
    assert calls == [("om3",)]


@pytest.mark.parametrize("w", [Power(0.5), PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (3.0, 4.0)])],
                         ids=["numeric", "exact"])
@pytest.mark.parametrize("x", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
def test_conjugate_refuses_a_nan_x(w, x):
    prof = conjugate.young_conjugate(w, x_max=1.0)
    with pytest.raises(ValidationFailed, match=r"^conjugate domain is \[0, oo\)$"):
        prof.value(x)


def test_profile_conjugate_exact_and_capped():
    w = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 4.0)])
    prof = conjugate.young_conjugate(w, x_max=2.0)
    assert prof.exact
    # sup_x (x*u - phi(u)) for slopes below the final one is attained at a corner
    ys = np.linspace(0.0, 50.0, 200_001)
    phis = w.phi(ys)
    for x in (0.0, 0.5, 1.0, 2.0):
        brute = float(np.max(x * ys - phis))
        assert prof.value(x) == pytest.approx(brute, rel=1e-9, abs=1e-9)
    with pytest.raises(YHorizonTooSmall, match=r"^conjugate is finite only up to the final "
                                               r"profile slope 3; requested x_max=10$"):
        conjugate.young_conjugate(w, x_max=10.0)  # beyond the final slope


@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=0.0, max_value=15.0))
def test_fenchel_young_inequality(x, y):
    prof = test_fenchel_young_inequality.prof
    w = Power(0.5)
    assert prof.value(x) + float(w.phi(y)) >= x * y - 1e-7 * (1.0 + x * y)


test_fenchel_young_inequality.prof = conjugate.young_conjugate(Power(0.5),
                                                               x_max=40.0)


def test_hulls_bracket_samples():
    rng = np.random.default_rng(3)
    us = np.sort(rng.uniform(0.0, 10.0, 30))
    us[0] = 0.0
    vs = rng.uniform(0.0, 5.0, 30)
    hx, hy = np.array(core._hull(list(zip(us, vs)))).T
    assert np.all(core.pl_eval(us, hx, hy, 0.0) <= vs + 1e-9)
    # hull slopes are nondecreasing
    assert np.all(np.diff(np.diff(hy) / np.diff(hx)) >= -1e-9)


def test_piecewise_linear_ends():
    # left of the first knot the first value (or `left`), right of the last
    # the final slope
    xs, ys = np.array([1.0, 2.0]), np.array([3.0, 5.0])
    np.testing.assert_array_equal(core.pl_eval(np.array([0.0, 1.5, 4.0]), xs, ys, 2.0),
                                  [3.0, 4.0, 9.0])
    np.testing.assert_array_equal(
        core.pl_eval(np.array([0.0, 7.0]), xs[:1], ys[:1], 0.0, left=0.0), [0.0, 3.0])


def test_double_conjugate_convex_input_zero_gap():
    u = np.linspace(0.0, 12.0, 300)
    biconj, rep = conjugate.double_conjugate(Gevrey(2.0), u)
    assert rep.zero_gap
    assert rep.convexity_consistent
    np.testing.assert_allclose(biconj, Gevrey(2.0).phi(u), atol=1e-9)


def test_double_conjugate_plateau_gap(plateau_profile_small):
    p = plateau_profile_small
    mids = np.array([(p.xbar[j] + p.y[j]) / 2.0 for j in range(6)])
    u = np.union1d(np.linspace(0.0, p.y[6], 1500), mids)
    biconj, rep = conjugate.double_conjugate(p.weight, u)
    assert not rep.zero_gap and rep.max_gap > 0
    assert rep.convexity_consistent
    gaps = np.asarray(p.weight.phi(mids)) - np.interp(mids, u, biconj)
    assert np.all(gaps > 0)


@pytest.mark.parametrize("lm", [
    [0.75 * k * k for k in range(60)],
    [0.5 * math.lgamma(k + 1) for k in range(60)],
    [0.5 * k * k - 2.0 * k for k in range(30)],
], ids=["gaussian", "sqrt_factorial", "shifted"])
def test_sequence_conjugate_gives_back_the_sequence(lm):
    # for a log-convex M, phi*(p) = log M_p - log M_0 (Komatsu 1973), read
    # off the corners of phi exactly up to x = P; "shifted" has M_1 < M_0,
    # so phi*(1) < 0
    w = load_weight({"sequence": lm})
    P = len(lm) - 1
    prof = conjugate.young_conjugate(w, P)
    assert prof.exact
    np.testing.assert_allclose(prof.value(np.arange(P + 1.0)), np.asarray(lm) - lm[0],
                               rtol=1e-13, atol=1e-12)
    # phi is convex, so it is its own biconjugate up to its last corner
    _, rep = conjugate.double_conjugate(w, np.linspace(-5.0, w.us[-1], 500))
    assert rep.zero_gap and rep.convexity_consistent
    assert rep.max_gap <= 1e-12 * (1.0 + float(w.phi(w.us[-1])))


def test_sequence_conjugate_past_the_stored_terms_names_them():
    # the conjugate of a sequence weight is finite past P; only its stored
    # terms end there
    w = load_weight({"sequence": [0.75 * k * k for k in range(60)]})
    with pytest.raises(YHorizonTooSmall, match=r"^the stored terms end at p = 59; "
                                               r"requested x_max=60$"):
        conjugate.young_conjugate(w, 60)


def test_associated_matrix_log_convex_monotone():
    logW = conjugate.associated_weight_matrix(Power(0.5), ell=1.0, j_max=40)
    assert logW[0] == pytest.approx(0.0, abs=1e-9)  # W_0 = 1
    second = np.diff(logW, 2)
    assert np.all(second >= -1e-8)
    logW2 = conjugate.associated_weight_matrix(Power(0.5), ell=2.0, j_max=40)
    # phi*(x)/x is nondecreasing for convex phi*, so the log-sequence grows
    # pointwise with ell
    assert np.all(logW2 >= logW - 1e-8)


def test_associated_matrix_rejects_log():
    with pytest.raises(NotMatrixAdmissible):
        conjugate.associated_weight_matrix(Log(), ell=1.0, j_max=10)


@pytest.mark.parametrize("x_max", [math.inf, math.nan])
def test_young_conjugate_refuses_non_finite_x_max(x_max):
    with pytest.raises(ValidationFailed):
        conjugate.young_conjugate(Power(0.5), x_max)


@pytest.mark.parametrize("x_max", [1e305, 1e306, 1.7976931348623157e308])
def test_young_conjugate_refuses_an_x_max_whose_products_leave_the_double_range(x_max,
                                                                                recwarn):
    # x * y on the y-grid up to 3 log(x_max) + 50 would overflow to inf, and
    # inf - phi(y) is NaN where phi = e^(y/2) is inf too
    with pytest.raises(ValidationFailed, match="too large"):
        conjugate.young_conjugate(Power(0.5), x_max)
    assert [str(w.message) for w in recwarn] == []


def test_young_conjugate_below_the_overflow_stays_finite(recwarn):
    prof = conjugate.young_conjugate(Power(0.5), 1e303)
    assert np.all(np.isfinite(prof.values))
    assert [str(w.message) for w in recwarn] == []
