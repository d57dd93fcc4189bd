"""The numeric conjugate's pruned supremum against a test-local copy of the
dense scan it replaced, which computed every entry x*y - phi(y) of the
y-grid for 64 x values at a time.  The pruned search must give the same
values bit for bit, or raise the same error where the scan does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import Gevrey, LogPower, Normalized, Power, WeightFunction, conjugate
from weightlab.conjugate import ConjugateProfile
from weightlab.errors import YHorizonTooSmall

from conftest import _Opaque


def _dense_values(prof, xs):
    """The scan the pruned search replaced: blocks of 64 x values, each
    against the whole y-grid, then the zoom rounds."""
    out = np.empty_like(xs)
    for i in range(0, len(xs), 64):
        out[i:i + 64] = _dense_block(prof, xs[i:i + 64])
    return out


def _dense_block(prof, xs):
    ys = np.linspace(prof._y_lo, prof._y_hi, 2001)
    g = xs[:, None] * ys[None, :] - prof._phi(ys)[None, :]
    k = np.argmax(g, axis=1)
    hit = (k >= len(ys) - 2) & (xs > 0)
    if np.any(hit):
        raise YHorizonTooSmall(
            f"supremum argmax hit the y-horizon {prof._y_hi:g} at x={xs[hit][0]:g}")
    rows = np.arange(len(xs))
    best = g[rows, k]
    lo = ys[np.maximum(k - 1, 0)]
    hi = ys[np.minimum(k + 1, len(ys) - 1)]
    t = np.linspace(0.0, 1.0, 33)
    for _ in range(6):
        yz = lo[:, None] + (hi - lo)[:, None] * t[None, :]
        gz = xs[:, None] * yz - prof._phi(yz.ravel()).reshape(yz.shape)
        j = np.argmax(gz, axis=1)
        best = np.maximum(best, gz[rows, j])
        step = (hi - lo) / 32
        lo, hi = (np.maximum(yz[rows, j] - step, lo),
                  np.minimum(yz[rows, j] + step, hi))
    return np.maximum(best, 0.0) if prof._weight.normalized else best


def _outcome(call):
    try:
        out = call()
    except Exception as exc:  # the error is the outcome, typed or not
        return type(exc).__name__, str(exc)
    return "ok", out.dtype, out.shape, out.tobytes()


def _same(prof, xs):
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        pruned = _outcome(lambda: prof.value(xs))
        dense = _outcome(lambda: _dense_values(prof, xs))
    assert pruned == dense


class _Samples(WeightFunction):
    """phi from values at evenly spaced knots over [lo, hi], held constant
    between knots (plateaus and exact ties) or interpolated linearly; an
    inf knot gives inf, and inf next to a finite knot NaN, samples."""

    def __init__(self, lo, hi, knots, steps, normalized):
        self.lo, self.hi, self.knots = lo, hi, np.asarray(knots, dtype=float)
        self.steps, self.normalized = steps, normalized

    def _phi_unchecked(self, u):
        n = len(self.knots)
        pos = (np.asarray(u, dtype=float) - self.lo) / (self.hi - self.lo) * (n - 1)
        if self.steps:
            return self.knots[np.clip(np.floor(pos), 0, n - 1).astype(int)]
        return np.interp(pos, np.arange(n), self.knots)


def _numeric(w, lo, hi, x_max):
    return ConjugateProfile(x_max=x_max, exact=False, breakpoints=np.array([0.0, x_max]),
                            values=np.zeros(2), _weight=w, _y_lo=lo, _y_hi=hi)


_KNOT = st.one_of(st.integers(-3, 30).map(float),
                  st.floats(-1e3, 1e3, allow_nan=False), st.just(math.inf))
_X = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-12]),
               st.floats(0.0, 50.0), st.integers(0, 50).map(float))


@given(knots=st.lists(_KNOT, min_size=2, max_size=40),
       closed=st.booleans(), steps=st.booleans(), normalized=st.booleans(),
       window=st.sampled_from([(0.0, 41.0), (-60.0, 50.0), (-50.0, -10.0), (-5.0, 5.0)]),
       xs=st.lists(_X, max_size=30), repeat=st.integers(0, 10))
@settings(max_examples=300)
def test_pruned_supremum_is_the_dense_one_on_random_samples(knots, closed, steps, normalized,
                                                            window, xs, repeat):
    # closed: phi is inf at the right end, so the supremum cannot sit there
    w = _Samples(*window, knots + [math.inf] * closed, steps, normalized)
    _same(_numeric(w, *window, 50.0), xs + xs[:repeat])


_WEIGHTS = {"pow": Power(0.5), "nlp2": Normalized(LogPower(2.0)), "gev": Gevrey(2.0),
            "o_lp2": _Opaque(LogPower(2.0))}


@pytest.mark.parametrize("name", _WEIGHTS)
@pytest.mark.parametrize("x_max", [0.0, 0.7, 4.2, 30.0])
def test_pruned_supremum_is_the_dense_one_on_201_points(name, x_max):
    prof = conjugate.young_conjugate(_WEIGHTS[name], x_max)
    _same(prof, np.linspace(0.0, x_max, 201))
    # the nine breakpoint values young_conjugate stores
    assert prof.values.tobytes() == _dense_values(prof, prof.breakpoints).tobytes()


@pytest.mark.parametrize("name", _WEIGHTS)
@pytest.mark.parametrize("xs", [[0.0], [2.5], [3.0, 0.0, 1.5, 3.0, 0.0, 1.5, 0.25], []],
                         ids=["zero", "single", "unsorted_repeated", "empty"])
def test_pruned_supremum_is_the_dense_one_on_few_x(name, xs):
    _same(conjugate.young_conjugate(_WEIGHTS[name], 3.0), xs)


def test_rows_past_the_double_range_keep_the_dense_result():
    # x*y overflows for x near 1e306, where the scan's entries are inf - inf
    # = NaN; the pruned search must not read a bound from them.
    # young_conjugate refuses such an x_max, so the profiles are built here
    # on the y-grid it would take
    def numeric(x_max):
        return _numeric(Power(0.5), -60.0, 3.0 * math.log(x_max) + 50.0, x_max)

    prof = numeric(1e306)
    _same(prof, np.linspace(0.0, 1e306, 201))
    _same(prof, [1e306, 0.0, 3.0])
    # at the largest x_max the cap overflows, so x = inf is let through
    prof = numeric(1.7976931348623157e308)
    _same(prof, [math.inf, 1e308, 0.0])


def test_a_request_wider_than_one_chunk_is_the_dense_one():
    # more x values than one chunk of group bounds holds
    prof = conjugate.young_conjugate(Normalized(LogPower(2.0)), 30.0)
    _same(prof, np.linspace(0.0, 30.0, 1000)[::-1])


@given(seed=st.integers(0, 2**32 - 1), slope=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       levels=st.integers(1, 4), inf_share=st.sampled_from([0.0, 0.1, 0.9]),
       lo=st.sampled_from([0.0, -1000.0, -2000.0]),
       xs=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=20))
@settings(max_examples=300)
def test_first_argmax_breaks_exact_ties_as_the_dense_argmax(seed, slope, levels, inf_share,
                                                            lo, xs):
    # an integer y-grid and phi = slope*y + a few integer levels: every
    # product and difference is exact, so for x = slope whole runs of
    # entries tie, and group bounds meet the floor exactly
    rng = np.random.default_rng(seed)
    ys = np.linspace(lo, lo + 2000.0, 2001)
    phis = slope * ys + rng.integers(0, levels, ys.size)
    phis[rng.random(ys.size) < inf_share] = math.inf
    xs = np.array(xs)
    g = xs[:, None] * ys[None, :] - phis[None, :]
    k = np.argmax(g, axis=1)
    got_k, got_best = conjugate._first_argmax(xs, ys, phis)
    np.testing.assert_array_equal(got_k, k)
    assert got_best.tobytes() == g[np.arange(len(xs)), k].tobytes()


def test_first_argmax_keeps_a_group_whose_bound_meets_the_floor():
    # y = 0 ... 2000, x = 1, phi = inf but at y = 28 (phi 0) and y = 29
    # (phi 1): both entries are 28, and the first lies in group 0, whose
    # bound 28 equals the floor read off group 1 (bound 57 - 1 = 56)
    ys = np.linspace(0.0, 2000.0, 2001)
    phis = np.full(ys.size, math.inf)
    phis[28], phis[29] = 0.0, 1.0
    k, best = conjugate._first_argmax(np.array([1.0]), ys, phis)
    assert (k.tolist(), best.tolist()) == ([28], [28.0])
