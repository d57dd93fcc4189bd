import math

import numpy as np
import pytest

from weightlab import (Dilated, Exp, Log, LogPower, Normalized, PiecewiseLogLinear,
                       Power, WeightFunction, growth, load_weight)
from weightlab.errors import (HorizonTooSmall, NonFinite, NotMonotone,
                              QuadratureFailure, ValidationFailed)

from conftest import _Opaque


def test_quadrature_nodes_are_numpys_bit_for_bit():
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(15)
    p = legendre.Legendre.basis(14)
    lob_x = np.concatenate([[-1.0], np.sort(p.deriv().roots().real), [1.0]])
    lob_w = 2.0 / (15 * 14 * p(lob_x) ** 2)
    for literal, computed in ((growth._GL_X, x), (growth._GL_W, w),
                              (growth._LOB_X, lob_x), (growth._LOB_W, lob_w)):
        assert np.asarray(literal).tobytes() == computed.tobytes()


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
    res = growth.kappa(_Opaque(Dilated(4.0, P)), y, T)
    finite_part = res.value - res.tail_low / res.evidence["rate"]
    u_end = math.log(4.0 * y * T)
    exact = (growth.kappa(P, 4.0 * y, T).value
             - (P.phi(u_end) + P.final_slope) / T)
    assert finite_part == pytest.approx(exact, rel=1e-10)


def test_kappa_profile_tail_fields_are_the_exact_tail():
    # past the last corner phi is a ray of slope s, so the tail beyond T is
    # int_{log T}^oo (phi(u_T) + s (v - log T)) e^{-v} dv = (phi(u_T) + s)/T
    P = PiecewiseLogLinear([[0.0, 0.0], [1.19695845, 1.246052],
                            [2.36953906, 3.1512431], [3.47111707, 5.32910855]])
    y, T = 2.0, 1e6
    res = growth.kappa(P, y, T)
    tail = (P.phi(math.log(y * T)) + P.final_slope) / T
    assert res.tail_low == res.tail_high == pytest.approx(tail, rel=1e-8)


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


def _segment_loop_kappa(w, u0):
    """Profile kappa by one exact integral per segment, the way it was
    computed before the closed form: a reference for it."""
    def anti(alpha, beta, v):
        return -(alpha + beta + beta * v) * math.exp(-v)

    vs = [0.0] + sorted(v for v in (w.us - u0) if v > 0)
    total = 0.0
    for i, v1 in enumerate(vs):
        v2 = vs[i + 1] if i + 1 < len(vs) else math.inf
        p1 = float(w.phi(u0 + v1))
        if math.isinf(v2):
            u = u0 + v1
            k = int(np.searchsorted(w.us, u, side="right")) - 1
            slope = (0.0 if u < w.us[0] else w.final_slope if u >= w.us[-1]
                     else float(w.slopes[min(max(k, 0), len(w.slopes) - 1)]))
        else:
            slope = (float(w.phi(u0 + v2)) - p1) / (v2 - v1)
        alpha = p1 - slope * v1
        upper = 0.0 if math.isinf(v2) else anti(alpha, slope, v2)
        total += upper - anti(alpha, slope, v1)
    return total


_KAPPA_YS = [0.0, 1e-3, 0.5, 1.0, 2.0, *np.geomspace(3.0, 1e8, 23).tolist()]


@pytest.mark.parametrize("profile", ["plateau_profile", "plateau_profile_small", "falling"])
def test_kappa_profile_matches_segment_loop(profile, request):
    if profile == "falling":
        w = PiecewiseLogLinear([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [4.0, 5.0]])
    else:
        w = request.getfixturevalue(profile).weight
    for y in _KAPPA_YS:
        u0 = math.log(y) if y > 0 else -745.0
        assert growth.kappa(w, y).value == pytest.approx(
            _segment_loop_kappa(w, u0), rel=1e-14, abs=1e-300)


_SEQUENCES = {
    "gaussian": [0.75 * k * k for k in range(60)],
    "triangular": [0.5 * k * (k + 1) for k in range(20)],
    "gevrey2": [2.0 * math.lgamma(k + 1) for k in range(120)],
    # log M_3 lies above the chord, so the hull skips p = 3
    "skipping": [0.0, 1.0, 2.5, 6.0, *np.cumsum([8.5, *np.arange(3.5, 12.0)]).tolist()],
}


@pytest.mark.parametrize("name", list(_SEQUENCES))
@pytest.mark.parametrize("y", [1e-3, 0.4, 1.0, 3.0, 10.0])
def test_kappa_sequence_matches_quadrature(name, y):
    # the finite part over [0, log T] against adaptive quadrature whose
    # panels break at the kinks of phi, the slopes of the lower hull of
    # (p, log M_p)
    lm = np.asarray(_SEQUENCES[name])
    w = load_weight({"sequence": lm.tolist()})
    T = 1e3
    res = growth.kappa(w, y, T)
    assert res.kind == "finite"
    finite_part = res.value - res.tail_low / res.evidence["rate"]
    u0, v_max = math.log(y), math.log(T)
    p = np.arange(len(lm))
    kinks = [np.min((lm[q + 1:] - lm[q]) / (p[q + 1:] - q)) for q in range(len(lm) - 1)]
    breaks = sorted({0.0, v_max, *(c - u0 for c in kinks if 0 < c - u0 < v_max)})

    def g(v, k):
        return np.asarray(w._phi_unchecked(u0 + v.ravel())).reshape(v.shape) * np.exp(-v)

    reference, _ = growth._integrate(g, [breaks])
    assert finite_part == pytest.approx(reference[0], rel=1e-9)
    assert "quad_error" not in res.evidence



_PROFILE = PiecewiseLogLinear([[0.0, 0.0], [1.19695845, 1.246052],
                               [2.36953906, 3.1512431], [3.47111707, 5.32910855]])
_BATCH_WEIGHTS = {
    "power": Power(0.5),
    "logpower": LogPower(2.0),
    "opaque": _Opaque(Power(0.3)),
    "dilated profile": Dilated(4.0, _PROFILE),
    "profile": _PROFILE,
    "gaussian sequence": load_weight({"sequence": _SEQUENCES["gaussian"]}),
    "divergent": Power(1.0),
}


@pytest.mark.parametrize("name", list(_BATCH_WEIGHTS))
def test_kappa_over_an_array_of_y_matches_the_loop(name):
    # one call over the y grid returns what one call per y returns: the
    # same kind and evidence, values equal up to the order of the sums
    w = _BATCH_WEIGHTS[name]
    ys = np.array([0.0, 1e-3, 0.4, 1.0, 3.0, 10 ** (1 / 3), 50.0, 1e3, 1e5])
    batch = growth.kappa(w, ys)
    assert isinstance(batch, list) and len(batch) == ys.size
    for y, res in zip(ys, batch):
        one = growth.kappa(w, float(y))
        assert isinstance(one, growth.KappaResult)
        assert res.kind == one.kind
        assert res.evidence.keys() == one.evidence.keys()
        for field in ("value", "tail_low", "tail_high"):
            a, b = getattr(res, field), getattr(one, field)
            assert (a is None and b is None) or a == pytest.approx(b, rel=1e-12, abs=0.0)
        for key, b in one.evidence.items():
            if key == "quad_error":  # an estimate at rounding level
                assert res.evidence[key] == pytest.approx(b, abs=1e-12 * (1.0 + one.value))
            elif isinstance(b, float):
                assert res.evidence[key] == pytest.approx(b, rel=1e-12, abs=0.0)

@pytest.mark.parametrize("y, T, raises", [
    (6.9, 1e6, False), (6.95, 1e6, True), (1.0, 6.5e6, False), (1.0, 7e6, True),
])
def test_kappa_sequence_horizon_limit(y, T, raises):
    # phi(u) = max_p (p u - 3p^2/4) over p <= 11 turns to the last slope at
    # u = 15.75; kappa must refuse every horizon with log(y T) beyond it
    w = load_weight({"sequence": [0.75 * k * k for k in range(12)]})
    if raises:
        with pytest.raises(HorizonTooSmall, match="P=11"):
            growth.kappa(w, y, T)
    else:
        assert growth.kappa(w, y, T).kind == "finite"


def test_kappa_equivalence():
    assert growth.kappa_equivalence_check(Power(0.5)).holds
    assert growth.kappa_equivalence_check(Log()).holds
    assert growth.kappa_equivalence_check(Power(1.0)).fails


def test_kappa_equivalence_reads_a_number_as_a_one_point_grid():
    for w in (Power(0.5), Log(), Power(1.0)):
        one = growth.kappa_equivalence_check(w, y_grid=5.0)
        assert one.to_dict() == growth.kappa_equivalence_check(w, y_grid=[5.0]).to_dict()


class _PowerLog(WeightFunction):
    """t / log(e + t)^b, nondecreasing for b <= 3 (ROADMAP item 12's
    `PowerLog(1, b)`)."""

    def __init__(self, b):
        self.b = b

    def _eval(self, t):
        return t / np.log(math.e + t) ** self.b


@pytest.mark.xfail(strict=True, reason="wrong verdict: w ~ kappa certified from finite "
                   "samples, ROADMAP item 4")
@pytest.mark.parametrize("b", [2.0, 3.0])
def test_kappa_equivalence_does_not_hold_on_t_over_a_power_of_log(b):
    # kappa(y) = y * int_1^oo dt / (t log(e + y t)^b) grows like w(y) log y
    # / (b - 1), so kappa / w is unbounded; the check holds today with C = 8
    # (b = 2) and C = 4 (b = 3), since kappa is finite on its 25 samples
    assert not growth.kappa_equivalence_check(_PowerLog(b)).holds


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


class _FallsAt1e9(WeightFunction):
    """t up to 1e9, then 1: it falls, but keeps the class's declared
    nondecreasing = True."""

    def _eval(self, t):
        return np.where(t <= 1e9, t, 1.0)


def test_growth_index_of_a_falsely_declared_monotone_weight_is_not_monotone():
    # gamma = 1 is refuted, while gamma = 2 is certified by its scales
    # past 1e9: the certified set is not downward closed
    with pytest.raises(NotMonotone, match="not downward closed"):
        growth.growth_index(_FallsAt1e9(), gamma_grid=(1.0, 2.0), refine=False)


def test_growth_index_of_a_weight_zero_on_its_window_is_a_typed_error():
    # zero up to t = e^20 (about 4.9e8), past the whole window [1e6, 1e8]
    w = _Opaque(PiecewiseLogLinear([(0.0, 0.0), (20.0, 0.0), (21.0, 1.0)]))
    with pytest.raises(HorizonTooSmall, match=r"no positive sample on \[1e\+06, 1e\+07\)"):
        growth.growth_index(w)
    # the window [1e7, 1e9] reaches past e^20 in its last decade only
    with pytest.raises(HorizonTooSmall):
        growth.growth_index(w, T=1e9)
    assert growth.growth_index(w, T=1e12).table


def test_growth_index_exp_overflows_honestly():
    # e^t leaves double range far below the default horizon; the failure
    # must surface as an explicit error, not a silent verdict
    with pytest.raises(NonFinite):
        growth.growth_index(Exp())


@pytest.mark.parametrize("y", [math.inf, math.nan])
def test_kappa_refuses_non_finite_y(y):
    with pytest.raises(ValidationFailed):
        growth.kappa(Power(0.5), y)
