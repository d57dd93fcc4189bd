"""Young-conjugate calculus for weight functions.

For a weight w let phi(u) = w(e^u).  The conjugate is

    phi*(x) = sup_y { x*y - phi(y) },   x >= 0,

with the supremum restricted to y >= 0 when w is normalized (phi vanishes
there anyway).  A weight with a profile (a piecewise-linear phi: profiles,
sequence weights, and either of them scaled, dilated or normalized) gets
an exact closed-form conjugate through convex duality.  Any other
weight gets a numeric supremum: the first argmax of x*y - phi(y) over a
fixed y-grid, refined by zooming in on it.  A pruned search finds that
argmax exactly: it bounds the grid in groups of samples and computes
only the samples of the groups whose bound can reach the maximum, so it
returns what a scan of the whole grid would, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _BLOCK, PiecewiseLogLinear, WeightFunction, _hull, pl_eval
from .errors import (EmptyInput, NotMatrixAdmissible, Om3Violated,
                     ValidationFailed, WeightlabError, YHorizonTooSmall)
from .verdict import inconclusive, report_dict, to_json

__all__ = [
    "ConjugateProfile",
    "GapReport",
    "young_conjugate",
    "double_conjugate",
    "associated_weight_matrix",
]


# ---------------------------------------------------------------------------
# the conjugate itself
# ---------------------------------------------------------------------------

# the numeric supremum samples phi on a fixed y-grid, then zooms in on each
# argmax: every round resamples its two neighbouring grid cells, so the
# bracket shrinks by (_ZOOM_POINTS - 1) / 2 per round
_Y_SAMPLES = 2001
_ZOOM_POINTS = 33
_ZOOM_ROUNDS = 6
# the exact pruned search bounds the y-grid in groups of this many
# consecutive samples (2001 = 69 * 29)
_Y_GROUP = 29


class ConjugateProfile:
    """phi* on [0, x_max].

    exact=True: closed-form conjugate of a piecewise-linear phi; the hull
    corners (hull_us, hull_vs) satisfy phi*(x) = max_k (x*hull_us[k] -
    hull_vs[k]), valid for x up to the final profile slope.
    exact=False: per-query supremum against the stored weight, over the
    y-grid [_y_lo, _y_hi]: the grid's first argmax, found by the pruned
    search of _first_argmax, then refined by zooming.  value refuses an x
    that is negative or NaN.
    """

    __slots__ = ("x_max", "exact", "breakpoints", "values", "envelope_used", "slope_cap",
                 "_hull_us", "_hull_vs", "_weight", "_y_lo", "_y_hi")

    def __init__(self, x_max: float, exact: bool, breakpoints: np.ndarray,
                 values: np.ndarray, envelope_used: bool = False,
                 slope_cap: float = math.inf, _hull_us: np.ndarray | None = None,
                 _hull_vs: np.ndarray | None = None, _weight: WeightFunction | None = None,
                 _y_lo: float = 0.0, _y_hi: float = 0.0):
        self.x_max = x_max
        self.exact = exact
        self.breakpoints = breakpoints
        self.values = values
        self.envelope_used = envelope_used
        self.slope_cap = slope_cap         # exact path: sup of finiteness domain
        self._hull_us = _hull_us
        self._hull_vs = _hull_vs
        self._weight = _weight
        self._y_lo = _y_lo
        self._y_hi = _y_hi

    def value(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(arr >= 0):             # a NaN x fails this test too
            raise ValidationFailed("conjugate domain is [0, oo)")
        cap = min(self.x_max, self.slope_cap)
        if np.any(arr > cap * (1 + 1e-12) + 1e-300):
            raise YHorizonTooSmall(
                f"conjugate requested at x={float(np.max(arr)):g} beyond x_max={cap:g}")
        if self.exact:
            out = np.max(arr[:, None] * self._hull_us[None, :]
                         - self._hull_vs[None, :], axis=1)
        else:
            out = self._numeric_values(arr)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(out[0])
        return out

    __call__ = value

    def _numeric_values(self, xs):
        """sup_y (x*y - phi(y)) for every x in xs, on [_y_lo, _y_hi]: the
        first argmax of x*y - phi(y) over the y-grid, refined by zooming."""
        out = np.empty_like(xs)
        if xs.size == 0:
            return out
        ys = np.linspace(self._y_lo, self._y_hi, _Y_SAMPLES)
        phis = self._phi(ys)
        # rows in chunks, so that each temporary stays within core._BLOCK
        step = _BLOCK * _Y_GROUP // _Y_SAMPLES
        for i in range(0, len(xs), step):
            c = xs[i:i + step]
            k, best = _first_argmax(c, ys, phis)
            hit = (k >= len(ys) - 2) & (c > 0)
            if np.any(hit):
                raise YHorizonTooSmall(
                    f"supremum argmax hit the y-horizon {self._y_hi:g} at x={c[hit][0]:g}")
            out[i:i + step] = self._zoom(c, ys, k, best)
        return out

    def _zoom(self, xs, ys, k, best):
        """Refine the grid supremum: each round resamples the two grid
        cells around its argmax."""
        rows = np.arange(len(xs))
        lo = ys[np.maximum(k - 1, 0)]
        hi = ys[np.minimum(k + 1, len(ys) - 1)]
        t = np.linspace(0.0, 1.0, _ZOOM_POINTS)
        for _ in range(_ZOOM_ROUNDS):
            yz = lo[:, None] + (hi - lo)[:, None] * t[None, :]
            gz = xs[:, None] * yz - self._phi(yz.ravel()).reshape(yz.shape)
            j = np.argmax(gz, axis=1)
            best = np.maximum(best, gz[rows, j])
            step = (hi - lo) / (_ZOOM_POINTS - 1)
            lo, hi = (np.maximum(yz[rows, j] - step, lo),
                      np.minimum(yz[rows, j] + step, hi))
        return np.maximum(best, 0.0) if self._weight.normalized else best

    def _phi(self, ys):
        vals = np.asarray(self._weight._phi_unchecked(ys), dtype=float)
        # +inf values of phi simply never win the supremum
        return np.where(np.isfinite(vals), vals, np.inf)

    def to_dict(self):
        return to_json({"x_max": self.x_max, "exact": self.exact,
                        "envelope_used": self.envelope_used,
                        "breakpoints": self.breakpoints, "values": self.values})


def _first_argmax(xs, ys, phis):
    """(k, g[k]) for the first maximum k of each row of g = x*ys - phis,
    x >= 0, without computing all of g.

    fl(fl(x * max y) - min phi) over a group of _Y_GROUP consecutive
    samples bounds every computed entry fl(fl(x * y) - phi) of the group,
    as rounding is monotone.  The entries of each row's best-bounded group
    give a floor; a group whose bound falls short of it holds no maximum,
    so only the columns from the first group that reaches the floor to the
    last one are computed, each row's window padded to the widest of them.
    Where x*y overflows against phi = inf, an entry is NaN, which argmax
    takes for the maximum: then the floor is NaN or inf, and the window
    holds the whole row or every group whose bound is inf.
    """
    y_top = ys.reshape(-1, _Y_GROUP).max(axis=1)
    phi_low = phis.reshape(-1, _Y_GROUP).min(axis=1)
    bound = xs[:, None] * y_top - phi_low
    top = np.argmax(bound, axis=1)
    floor = np.max(xs[:, None] * ys.reshape(-1, _Y_GROUP)[top]
                   - phis.reshape(-1, _Y_GROUP)[top], axis=1)
    # a row that reaches no group (a NaN floor) keeps every column
    reach = bound >= floor[:, None]
    first = np.argmax(reach, axis=1)
    last = len(y_top) - np.argmax(reach[:, ::-1], axis=1)
    width = int(np.max(last - first)) * _Y_GROUP
    start = np.minimum(first * _Y_GROUP, len(ys) - width)
    y_win = np.lib.stride_tricks.sliding_window_view(ys, width)
    phi_win = np.lib.stride_tricks.sliding_window_view(phis, width)
    k = np.empty(len(xs), dtype=np.intp)
    best = np.empty(len(xs))
    step = max(1, _BLOCK // width)
    for i in range(0, len(xs), step):
        s = start[i:i + step]
        g = xs[i:i + step, None] * y_win[s] - phi_win[s]
        j = np.argmax(g, axis=1)
        k[i:i + step] = s + j
        best[i:i + step] = g[np.arange(len(j)), j]
    return k, best


def _om3_status(w):
    """om3, read only on a weight with no profile: a profile's conjugate is
    exact, and finite up to its final slope, where om3 fails or not."""
    if w.profile is not None:
        return inconclusive(notes="om3 not read: the conjugate is exact")
    from . import conditions
    try:
        return conditions.check_condition(w, "om3")
    except WeightlabError:
        return inconclusive(notes="om3 check unavailable")


def young_conjugate(w: WeightFunction, x_max: float) -> ConjugateProfile:
    """Conjugate of u -> w(e^u) on [0, x_max]."""
    _check_x_max(x_max)
    if _om3_status(w).fails:
        raise Om3Violated("log t is not dominated by the weight; the conjugate "
                          "is infinite for every positive x")
    return _conjugate(w, x_max)


def _check_x_max(x_max):
    if x_max < 0:
        raise ValidationFailed("x_max must be nonnegative")
    if not math.isfinite(x_max):
        raise ValidationFailed("x_max must be finite")


def _conjugate(w: WeightFunction, x_max: float) -> ConjugateProfile:
    """The conjugate once x_max is checked and om3 is known not to fail:
    exact for a weight with a profile, the numeric supremum otherwise."""
    if w.profile is not None:
        return _exact_conjugate(w.profile, x_max)
    y_lo = 0.0 if w.normalized else -60.0
    y_hi = 3.0 * math.log(max(x_max, 2.0)) + 50.0
    if not math.isfinite(x_max * y_hi):
        # x * y would be inf on the y-grid, and inf - phi(y) NaN where phi is inf
        raise ValidationFailed(f"x_max = {x_max:g} is too large: x * y leaves the double "
                               f"range on the y-grid, which reaches y = {y_hi:g}")
    prof = ConjugateProfile(x_max=x_max, exact=False,
                            breakpoints=np.array([0.0, x_max]),
                            values=np.zeros(2),
                            _weight=w, _y_lo=y_lo, _y_hi=y_hi)
    xs = np.linspace(0.0, x_max, 9) if x_max > 0 else np.array([0.0])
    prof.breakpoints = xs
    prof.values = prof.value(xs)
    return prof


def _exact_conjugate(w: PiecewiseLogLinear, x_max: float) -> ConjugateProfile:
    us = np.asarray(w.us, dtype=float)
    vs = np.asarray(w.vs, dtype=float)
    # represent the closing ray by a distant pseudo-corner so the hull
    # machinery sees the correct asymptotic slope
    span = max(us[-1] - us[0], 1.0)
    ray_u = us[-1] + 1e6 * span
    ray_v = vs[-1] + w.final_slope * (ray_u - us[-1])
    pts = list(zip(us, vs)) + [(ray_u, ray_v)]
    hull = _hull(pts)
    envelope_used = len(hull) < len(pts)
    hu = np.array([p[0] for p in hull])
    hv = np.array([p[1] for p in hull])

    slope_cap = float(w.final_slope)
    if x_max > slope_cap * (1 + 1e-12):
        limit = (f"the stored terms end at p = {slope_cap:g}" if w.end_index is not None
                 else f"conjugate is finite only up to the final profile slope {slope_cap:g}")
        raise YHorizonTooSmall(f"{limit}; requested x_max={x_max:g}")

    # drop the pseudo-corner from the stored hull (it only fixed the slope);
    # the max formula over the true corners is correct for x <= slope_cap
    keep = hu < ray_u - 1e-9
    hu, hv = hu[keep], hv[keep]

    seg_slopes = np.diff(hv) / np.diff(hu) if len(hu) > 1 else np.array([])
    bps = np.concatenate([[0.0], seg_slopes, [slope_cap]])
    bps = np.unique(np.clip(bps, 0.0, x_max))
    prof = ConjugateProfile(x_max=x_max, exact=True,
                            breakpoints=bps, values=np.zeros_like(bps),
                            envelope_used=envelope_used, slope_cap=slope_cap,
                            _hull_us=hu, _hull_vs=hv, _weight=w)
    prof.values = np.atleast_1d(prof.value(bps))
    return prof


# ---------------------------------------------------------------------------
# biconjugate
# ---------------------------------------------------------------------------

class GapReport:
    __slots__ = ("max_gap", "argmax_u", "zero_gap", "convexity_consistent", "notes")

    def __init__(self, max_gap: float, argmax_u: float, zero_gap: bool,
                 convexity_consistent: bool, notes: str = ""):
        self.max_gap = max_gap
        self.argmax_u = argmax_u
        self.zero_gap = zero_gap
        self.convexity_consistent = convexity_consistent
        self.notes = notes

    to_dict = report_dict


def double_conjugate(w: WeightFunction, u_grid):
    """phi** on the grid plus a report of the gap phi - phi**.

    The biconjugate is the convex envelope of phi, so the gap is zero
    exactly when phi is convex; the report cross-checks that against the
    independent convexity verdict.
    """
    from . import conditions

    u = np.asarray(u_grid, dtype=float)
    if u.size == 0:
        raise EmptyInput("empty u grid")
    phi_vals = np.asarray(w.phi(u), dtype=float)

    prof = w.profile
    if prof is not None:
        # the hull of the corners, 0 left of them, and the final ray past
        # the last corner the hull keeps
        conj = _exact_conjugate(prof, x_max=float(prof.final_slope))
        biconj = pl_eval(u, conj._hull_us, conj._hull_vs, prof.final_slope, left=0.0)
    else:
        # convex envelope of a dense sample; the window is padded so edge
        # chords do not leak into the reported range
        pad = 0.1 * (float(np.max(u)) - float(np.min(u))) + 1.0
        uu = np.union1d(
            np.linspace(float(np.min(u)) - pad, float(np.max(u)) + pad, 4001), u)
        hull = _hull(list(zip(uu, np.asarray(w.phi(uu), dtype=float))))
        hu, hv = (np.array(c) for c in zip(*hull))
        biconj = np.interp(u, hu, hv)

    overshoot = float(np.max(biconj - phi_vals))
    if overshoot > 1e-8 * (1.0 + float(np.max(np.abs(phi_vals)))):
        raise ValidationFailed(
            f"biconjugate exceeded the function by {overshoot:g}")
    gaps = phi_vals - biconj
    k = int(np.argmax(gaps))
    max_gap = float(gaps[k])
    zero_gap = max_gap <= 1e-6 * (1.0 + abs(float(phi_vals[k])))
    om4 = conditions.check_condition(w, "om4")
    consistent = not ((zero_gap and om4.fails) or
                      (not zero_gap and om4.holds and prof is not None))
    report = GapReport(max_gap=max_gap, argmax_u=float(u[k]), zero_gap=zero_gap,
                       convexity_consistent=consistent,
                       notes="" if consistent else
                       "gap test disagrees with the convexity verdict")
    return biconj, report


# ---------------------------------------------------------------------------
# associated weight matrices
# ---------------------------------------------------------------------------

def associated_weight_matrix(w: WeightFunction, ell: float, j_max: int):
    """log W_j = phi*(ell*j)/ell for j = 0..j_max (returned as log-values)."""
    if ell <= 0:
        raise ValidationFailed("ell must be positive")
    if j_max < 0:
        raise ValidationFailed("j_max must be nonnegative")
    if not w.nondecreasing:
        raise NotMatrixAdmissible("weight must be nondecreasing")
    if _om3_status(w).fails:
        raise NotMatrixAdmissible("log t = o(w) fails; conjugate values blow up")

    x_max = ell * j_max if j_max > 0 else 0.0
    _check_x_max(x_max)
    prof = _conjugate(w, x_max)
    js = np.arange(j_max + 1, dtype=float)
    logW = np.atleast_1d(prof.value(ell * js)) / ell
    second = np.diff(logW, 2)
    if len(second) and float(np.min(second)) < -1e-8 * (1 + float(np.max(np.abs(logW)))):
        raise ValidationFailed("associated sequence lost log-convexity")
    return logW
