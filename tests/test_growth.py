import math

import numpy as np
import pytest

from weightlab import (Dilated, Exp, Log, Normalized, PiecewiseLogLinear,
                       Power, WeightFunction, growth)
from weightlab.errors import (HorizonTooSmall, NonFinite, NotMonotone,
                              QuadratureFailure)


def test_kappa_sqrt_oracle():
    # integral of (y t)^{1/2} / t^2 over [1, inf) equals 2 sqrt(y)
    for y in (1.0, 4.0, 100.0):
        res = growth.kappa(Power(0.5), y)
        assert res.kind == "finite"
        assert res.value == pytest.approx(2.0 * math.sqrt(y), rel=1e-6)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("y", [0.3, 1.0, 7.0, 1e4])
def test_kappa_power_closed_form(alpha, y):
    # int_1^oo (y t)^a / t^2 dt = y^a / (1 - a); the exponential tail term is
    # exact for a power, so the whole value must match
    res = growth.kappa(Power(alpha), y)
    assert res.value == pytest.approx(y ** alpha / (1.0 - alpha), rel=1e-9)


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("y", [0.05, 0.25, 0.45])
def test_kappa_kink_inside_horizon(c, y):
    # w(t) = max(sqrt(c t) - 1, 0) has its kink at t = 1/c; with c y < 1 it
    # lies inside [1, T] (for c = 1 at u = 0, where kappa splits the range,
    # for c = 2 elsewhere, where only refinement finds it); on [1, T]
    #   int_1^T w(y t)/t^2 dt = c y - 2 sqrt(c y/T) + 1/T
    T = 1e6
    res = growth.kappa(Dilated(c, Normalized(Power(0.5))), y, T)
    finite_part = res.value - res.tail_low / res.evidence["rate"]
    cy = c * y
    assert finite_part == pytest.approx(cy - 2.0 * math.sqrt(cy / T) + 1.0 / T,
                                        rel=1e-9)


def test_kappa_kink_near_a_panel_end():
    # y = 10^(1/3) puts the profile's first corner at v = 0.21572, 1.5e-4
    # inside the end of the bisected panel [0, log(T)/64], closer to it
    # than any Gauss node; the exact profile integral, less its tail beyond
    # T, is the reference
    P = PiecewiseLogLinear([[0.0, 0.0], [1.19695845, 1.246052],
                            [2.36953906, 3.1512431], [3.47111707, 5.32910855]])
    y, T = 10.0 ** (1.0 / 3.0), 1e6
    res = growth.kappa(Dilated(4.0, P), y, T)
    finite_part = res.value - res.tail_low / res.evidence["rate"]
    u_end = math.log(4.0 * y * T)
    exact = (growth.kappa(P, 4.0 * y, T).value
             - (P.phi(u_end) + P.final_slope) / T)
    assert finite_part == pytest.approx(exact, rel=1e-10)


class _Oscillating(WeightFunction):
    """phi(u) = 2 + sin(10^4 u): decays fine against e^{-v}, but far too
    fast an oscillation for any panel budget."""

    def _phi_unchecked(self, u):
        return 2.0 + np.sin(1e4 * np.asarray(u, dtype=float))


def test_kappa_quadrature_failure_is_raised():
    with pytest.raises(QuadratureFailure):
        growth.kappa(_Oscillating(), 1.0)


def test_kappa_linear_divergent():
    res = growth.kappa(Power(1.0), 1.0)
    assert res.kind == "divergent"


def test_kappa_profile_exact_path(plateau_profile_small):
    res = growth.kappa(plateau_profile_small.weight, 1.0)
    assert res.kind == "finite"
    assert res.value > plateau_profile_small.weight.evaluate(1.0)


def test_kappa_equivalence():
    assert growth.kappa_equivalence_check(Power(0.5)).holds
    assert growth.kappa_equivalence_check(Log()).holds
    assert growth.kappa_equivalence_check(Power(1.0)).fails


@pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.5, 1.0])
def test_growth_index_power_oracle(alpha):
    est = growth.growth_index(Power(alpha))
    target = 1.0 / alpha
    assert est.lower_bound <= target * 1.05
    assert est.upper_bound >= target * 0.95
    assert est.upper_bound - est.lower_bound <= 0.05 * target


def test_growth_index_log_infinite():
    est = growth.growth_index(Log())
    assert est.infinite


def test_growth_index_requires_monotone():
    bad = PiecewiseLogLinear([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])
    with pytest.raises(NotMonotone):
        growth.growth_index(bad)
    with pytest.raises(HorizonTooSmall):
        growth.growth_index(Power(0.5), T=100.0)


def test_growth_index_exp_overflows_honestly():
    # e^t leaves double range far below the default horizon; the failure
    # must surface as an explicit error, not a silent verdict
    with pytest.raises(NonFinite):
        growth.growth_index(Exp())


def test_slowly_varying():
    u_set = (2.0, 4.0, 10.0)
    assert growth.slowly_varying_check(Log(), u_set).holds
    assert growth.slowly_varying_check(Power(0.5), u_set).fails
