"""Growth index and the kappa integral transform.

All improper integrals are computed after the substitution t = e^v, which
turns  int_1^oo w(y t) / t^2 dt  into  int_0^oo phi(log y + v) e^{-v} dv.
This keeps every intermediate quantity in a safe range even for weights
whose interesting behaviour lives at astronomically large t.  Where phi
is piecewise linear (profiles and the weights associated with sequences,
also scaled, dilated or normalized: a weight's `profile`) the integral is
a closed-form sum over the kinks of phi; for every other weight the
finite part is integrated by adaptive Gauss-Legendre panels,
evaluated all at once in each refinement round.  kappa takes an array of
y as well as one y, and then does the work of all of them in one pass: one
sum over a (y x kink) matrix, one decay test over a (y x window) matrix,
and one quadrature whose rounds evaluate the open panels of every y
together.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _C_GRID, WeightFunction, dilations
from .errors import EmptyInput, HorizonTooSmall, NotMonotone, QuadratureFailure, ValidationFailed
from .verdict import Verdict, fails, holds, inconclusive, report_dict

__all__ = [
    "KappaResult",
    "IndexEstimate",
    "kappa",
    "kappa_equivalence_check",
    "growth_index",
    "DEFAULT_GAMMA_GRID",
    "DEFAULT_K_GRID",
]

DEFAULT_GAMMA_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
DEFAULT_K_GRID = tuple([math.e] + [2.0 ** k for k in range(1, 7)])
_K_LOGS = tuple((K, math.log(K)) for K in DEFAULT_K_GRID)

# Each panel is integrated by the 15-point Gauss-Legendre rule on both of
# its halves (columns 1 and 2 of _RULES), and by the 15-point Gauss-Lobatto
# rule on the whole panel (column 0); the halves' sum is the panel's value,
# its gap to the one-piece rule the panel's error estimate.  The one-piece
# rule has nodes at the panel ends, so a kink closer to an end than any
# Gauss node, which both halves' rules would miss alike, still shows.
#
# The nodes and weights on [-1, 1] are numpy.polynomial.legendre's, written
# out so that no call loads numpy.polynomial: leggauss(15), and the ends
# with the roots of the derivative of Legendre.basis(14), weighted by
# 2 / (15 * 14 * P_14(x)^2).  A test checks them bit for bit.
_GL_N = 15
_GL_X = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
)
_GL_W = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)
_LOB_X = (
    -1.0, -0.9652459265038373, -0.8850820442229768, -0.7635196899518134,
    -0.6062532054698461, -0.42063805471367227, -0.21535395536379454,
    -6.788974810402844e-17, 0.21535395536379376, 0.4206380547136721,
    0.6062532054698454, 0.7635196899518158, 0.8850820442229755, 0.9652459265038382,
    1.0,
)
_LOB_W = (
    0.009523809523809514, 0.05802989302860125, 0.10166007032571812, 0.1405116998024281,
    0.17278964725360088, 0.19698723596461332, 0.21197358592682092, 0.21704811634881566,
    0.21197358592682083, 0.19698723596461332, 0.17278964725360085, 0.1405116998024282,
    0.10166007032571801, 0.058029893028601384, 0.009523809523809514,
)
_GL_01 = (np.asarray(_GL_X) + 1.0) / 2.0
_NODES = np.concatenate([(np.asarray(_LOB_X) + 1.0) / 2.0, _GL_01 / 2.0,
                         (_GL_01 + 1.0) / 2.0])
_RULES = np.zeros((3 * _GL_N, 3))
_RULES[:_GL_N, 0] = np.asarray(_LOB_W) / 2.0
_RULES[_GL_N:2 * _GL_N, 1] = np.asarray(_GL_W) / 4.0
_RULES[2 * _GL_N:, 2] = np.asarray(_GL_W) / 4.0
# a panel whose error estimate is at rounding level is not split further
_ROUNDOFF = 50.0 * np.finfo(float).eps
_MAX_PANELS = 4000


class KappaResult:
    __slots__ = ("kind", "value", "tail_low", "tail_high", "evidence")

    def __init__(self, kind: str, value: float | None, tail_low: float | None,
                 tail_high: float | None, evidence: dict):
        self.kind = kind  # "finite" | "divergent"
        self.value = value
        self.tail_low = tail_low
        self.tail_high = tail_high
        self.evidence = evidence

    @property
    def divergent(self):
        return self.kind == "divergent"

    to_dict = report_dict


def _kinked_integral(phi, u0, kinks, slopes, v_max=math.inf):
    """int_0^{v_max} phi(u0 + v) e^{-v} dv at each u0 of the 1-d array u0,
    for a continuous phi that is affine between the sorted kinks.

    slopes[k] is the slope of phi left of kinks[k], slopes[-1] its slope
    right of the last kink.  Integration by parts gives
        phi(u0) - e^{-v_max} phi(u0 + v_max)
          + sum_k slopes[k] (e^{-a_k} - e^{-b_k}),
    with [a_k, b_k] the part of [0, v_max] where u0 + v lies on piece k.
    """
    edges = np.empty((u0.size, len(kinks) + 2))
    edges[:, 0], edges[:, -1] = 0.0, v_max
    edges[:, 1:-1] = np.clip(np.asarray(kinks, dtype=float) - u0[:, None], 0.0, v_max)
    decay = np.exp(-edges)
    # one dot product per row, as a stack of 1-by-n products: a matrix-vector
    # product sums in another order and moves the last digit
    sums = np.matmul((decay[:, :-1] - decay[:, 1:])[:, None, :], slopes[:, None])
    total = phi(u0) + sums[:, 0, 0]
    if math.isfinite(v_max):
        total -= math.exp(-v_max) * phi(u0 + v_max)
    return total


def _integrate(g, breaks):
    """Integrals of g over [b[0], b[-1]] for each list b of breaks, and their
    error estimates, as two arrays.  g(v, k) is the integrand on the rows
    of v, row i belonging to breaks[k[i]].

    Globally adaptive, for each integral on its own: every round evaluates
    g once, on the nodes of the open panels of all integrals.  An integral
    is done when its summed error estimates meet its tolerance; until then
    it closes panels whose estimate is within their width's share of that
    tolerance, or at rounding level, and halves the rest.  Raises
    QuadratureFailure when an integral runs out of its panel budget.  The
    relative tolerance, 1e-11, is ten times tighter than kappa needs: on a
    panel with a kink the estimate can fall short of the true error by
    that much.  Totals are summed per integral with np.bincount, so an
    integral converges as it does alone, up to the order of its sums.
    """
    n = len(breaks)
    k = np.array([i for i, b in enumerate(breaks) for _ in b[1:]], dtype=int)
    a = np.array([x for b in breaks for x in b[:-1]], dtype=float)
    h = np.array([y - x for b in breaks for x, y in zip(b, b[1:])], dtype=float)
    span = np.bincount(k, h, n)
    # a finished integral closes all its panels, so its closed sums stay
    # its result and its test stays met in later rounds
    closed_val, closed_err = np.zeros(n), np.zeros(n)
    n_closed = np.zeros(n, dtype=int)
    while True:
        vals = g(a[:, None] + h[:, None] * _NODES, k)
        if not np.isfinite(vals).all():
            raise QuadratureFailure("kappa integrand is not finite on the horizon")
        whole, left, right = (h[:, None] * (vals @ _RULES)).T
        refined = left + right
        err = np.abs(refined - whole)
        total = closed_val + np.bincount(k, refined, n)
        total_err = closed_err + np.bincount(k, err, n)
        tol = np.maximum(1e-12, 1e-11 * np.abs(total))
        done = total_err <= tol
        if done.all():
            return total, total_err
        floor = _ROUNDOFF * h * (np.abs(vals) @ _RULES[:, 0])
        close = done[k] | (err <= tol[k] * h / span[k]) | (err <= floor)
        closed_val += np.bincount(k[close], refined[close], n)
        closed_err += np.bincount(k[close], err[close], n)
        n_closed += np.bincount(k[close], minlength=n)
        split = ~close
        if not split.any():
            return total, total_err
        over = n_closed + 2 * np.bincount(k[split], minlength=n) > _MAX_PANELS
        if over.any():
            raise QuadratureFailure(
                f"kappa quadrature did not converge within {_MAX_PANELS} panels "
                f"(error estimate {total_err[over][0]:g})")
        a, h, k = a[split], h[split] / 2.0, k[split]
        a, h, k = np.concatenate([a, a + h]), np.concatenate([h, h]), np.concatenate([k, k])


def _decay_rates(x, gw):
    """Minus the least-squares slope of log gw against x over the positive
    entries of each row of gw; 1.0 where a row has fewer than 4 (the
    integrand vanished: a trivially integrable tail)."""
    pos = gw > 0
    m = pos.astype(float)
    n = m.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log(np.where(pos, gw, 1.0))  # 0 off the mask
        dx = (x - (m @ x / n)[:, None]) * m
        dy = ly - (ly.sum(axis=1) / n)[:, None]
        slope = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
    return np.where(n >= 4, -slope, 1.0)


def kappa(w: WeightFunction, y, T: float = 1e6, *,
          until_divergent: bool = False) -> KappaResult | list[KappaResult]:
    """int_1^T w(y t)/t^2 dt plus the tail beyond T, bracketed by
    [tail_low, tail_high].

    A weight with a profile (`w.profile`) gets the exact integral over
    [1, oo), its final slope extended, so both tail fields are the exact
    tail.  Any other weight returns a finite value only when the integrand
    passes a decay test on the final window, and is otherwise flagged
    divergent with the observed evidence; the part up to T is then exact
    for a sequence weight, whose profile ends at its last corner, and
    adaptive quadrature for the rest, and the tail is estimated from the
    decay rate.

    y is a number, which gives one KappaResult, or a 1-d array, which
    gives the list ``[kappa(w, yi, T) for yi in y]`` from one pass: one
    decay test over all y, and one quadrature whose rounds evaluate the
    open panels of every y at once, each y converging as it does alone.
    An error is the one that loop raises first.  With until_divergent the
    list ends at the first divergent result, and no later y can raise.
    """
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 0:
        return _kappa(w, ys.reshape(1), T, False)[0]
    if ys.ndim != 1:
        raise ValidationFailed("y must be a number or a 1-d array")
    try:
        return _kappa(w, ys, T, until_divergent)
    except Exception:
        # the batch raises for whichever y its arrays reach first; y by y,
        # the error is the one the loop over y meets first
        out = []
        for yi in ys:
            out += _kappa(w, yi.reshape(1), T, False)
            if until_divergent and out[-1].divergent:
                break
        return out


def _kappa(w, ys, T, until_divergent):
    """kappa at each y of the 1-d array ys, as a list of KappaResults."""
    if (ys < 0).any():
        raise ValidationFailed("y must be >= 0")
    if not np.isfinite(ys).all():
        raise ValidationFailed("y must be finite")
    if not math.isfinite(T):
        raise ValidationFailed("kappa horizon must be finite")
    if T <= 10:
        raise HorizonTooSmall("kappa horizon must exceed 10")
    u0 = np.array([math.log(y) if y > 0 else -745.0 for y in ys])
    v_max = math.log(T)

    prof = w.profile
    if prof is not None:
        # phi is affine between its corners, so the part up to T is exact;
        # a sequence's phi raises here if the horizon passes its last corner
        slopes = np.concatenate([[0.0], prof.slopes, [prof.final_slope]])
        head = _kinked_integral(prof.phi, u0, prof.us, slopes, v_max)
        if prof.end_index is None:
            value = _kinked_integral(prof.phi, u0, prof.us, slopes)
            return [KappaResult("finite", float(v), float(v - hd), float(v - hd), {
                "method": "exact piecewise integral with final-slope extension",
                "u0": float(u),
            }) for u, v, hd in zip(u0, value, head)]

    def g(v, k):
        """The integrand phi(u0 + v) e^{-v}, with u0 = u0[k[i]] on row i."""
        u = u0[k, None] + v
        val = np.asarray(w._phi_unchecked(u.ravel())).reshape(u.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            return val * np.exp(-v)

    # decay test on the final window; a sequence's last slope, which holds
    # only up to its last corner, is never extended to oo
    win = np.linspace(max(v_max - 5.0, v_max / 2), v_max, 24)
    gw = g(win[None, :], np.arange(ys.size))
    overflow = ~np.isfinite(gw).all(axis=1)
    rate = _decay_rates(win, gw)
    divergent = overflow | (rate <= 1e-3)
    n = int(divergent.argmax()) + 1 if until_divergent and divergent.any() else ys.size

    todo = np.flatnonzero(~divergent[:n])
    if prof is not None:
        val, err = head, None
        evidence = {"method": "exact integral over the hull kinks + exponential tail"}
    else:
        val, err = np.zeros(ys.size), np.zeros(ys.size)
        if todo.size:
            # phi has a kink where u crosses 0 (normalized weights)
            breaks = [[0.0] + [p for p in (-u0[k],) if 0 < p < v_max] + [v_max]
                      for k in todo]
            val[todo], err[todo] = _integrate(lambda v, k: g(v, todo[k]), breaks)
        evidence = {"method": "adaptive Gauss-Legendre in log variable + exponential tail"}

    out = []
    for k in range(n):
        if overflow[k]:
            out.append(KappaResult("divergent", None, None, None, {
                "reason": "integrand overflows inside the horizon",
            }))
        elif divergent[k]:
            out.append(KappaResult("divergent", None, None, None, {
                "reason": "integrand decay rate below threshold on final window",
                "rate": float(rate[k]),
                "window": [float(win[0]), float(win[-1])],
            }))
        else:
            ev = {**evidence, "rate": float(rate[k])}
            if err is not None:
                if err[k] > 1e-8 * (abs(val[k]) + 1.0):
                    raise QuadratureFailure(f"quadrature error {err[k]} too large for kappa")
                ev["quad_error"] = float(err[k])
            ev["horizon"] = T
            g_end = float(gw[k, -1])
            tail = g_end / rate[k]
            out.append(KappaResult("finite", float(val[k] + tail), g_end,
                                   float(tail * 1.5 + 1e-300), ev))
    return out


def kappa_equivalence_check(w: WeightFunction, y_grid=None, T: float = 1e6) -> Verdict:
    """Two-sided comparison of w with its kappa transform on a y-grid; a
    number is a grid of one point."""
    if y_grid is None:
        y_grid = np.geomspace(1.0, 1e4, 25)
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if not y_grid.size:
        raise EmptyInput("kappa equivalence needs at least one y")
    res = kappa(w, y_grid, T, until_divergent=True)
    if res[-1].divergent:
        return fails({"y": float(y_grid[len(res) - 1]), "evidence": res[-1].evidence},
                     notes="kappa transform divergent")
    kv = np.asarray([r.value for r in res])
    wv = np.asarray(w.evaluate(y_grid))

    if w.nondecreasing:
        # kappa(y) >= w(y) holds exactly for nondecreasing w; check it
        slack = float(np.min(kv - wv))
        if slack < -1e-6 * (1 + np.max(wv)):
            return fails({"y": float(y_grid[np.argmin(kv - wv)])},
                         notes="kappa < w for a nondecreasing weight (numerical inconsistency)")

    for C in _C_GRID:
        if np.all(kv <= C * wv + C) and np.all(wv <= C * kv + C):
            return holds({"C": float(C)},
                         margin=float(np.max(kv - C * wv - C)),
                         horizon={"T": T, "y_min": float(y_grid[0]), "y_max": float(y_grid[-1])})
    need = np.max((kv - 1) / (wv + 1))
    return inconclusive(margin=float(need),
                        horizon={"T": T},
                        notes="no constant up to 2^40 certifies two-sided equivalence")


class IndexEstimate:
    __slots__ = ("lower_bound", "upper_bound", "table", "horizon", "refined", "notes")

    def __init__(self, lower_bound: float, upper_bound: float, table: list,
                 horizon: float, refined: bool = False, notes: str = ""):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.table = table
        self.horizon = horizon
        self.refined = refined
        self.notes = notes

    @property
    def infinite(self):
        return math.isinf(self.upper_bound) and self.lower_bound > 0

    to_dict = report_dict


def _index_rows(w, gammas, tg, T, wt):
    """The rows of the index scan at the gammas, wt being w(tg): limsup
    estimates of w(K^gamma t)/w(t), from the dilations of every gamma and K
    read as one block."""
    # the scales in the order of the loop over gamma and K; one whose
    # K^gamma T passes 1e305 is skipped, and so is one past e^709, where
    # K^gamma T passes it for any T >= 1e4 and K^gamma itself may overflow
    plan = []
    for gamma in gammas:
        ks = []
        for K, log_k in _K_LOGS:
            if not gamma * log_k > 709:
                scale = K ** gamma
                if not scale * T > 1e305:
                    ks.append((K, scale))
        plan.append(ks)
    scales = [scale for ks in plan for _, scale in ks]
    last = tg >= T / 10
    ok = wt > 0
    sel_last, sel_prev = last & ok, ~last & ok
    vanishes = not (sel_last.any() and sel_prev.any())
    if vanishes:
        del scales[1:]  # the scan stops at its first row: no ratio to take the maximum of
    if scales:
        # a scale that two (gamma, K) share, as 2^2 = 4^1, is read once
        rows = dilations(w, tg).all(scales)
        if vanishes:
            raise HorizonTooSmall(
                f"growth index: the weight has no positive sample on [{T / 100:g}, {T / 10:g}) "
                f"or none on [{T / 10:g}, {T:g}], so no ratio w(Kt)/w(t) is taken there; "
                "a larger T may reach its growth")
        # a ratio past the double range over a subnormal w(t) rounds to inf,
        # an estimate above every K
        with np.errstate(over="ignore"):
            est_last = np.nanmax(rows[:, sel_last] / wt[sel_last], axis=1).tolist()
            est_prev = np.nanmax(rows[:, sel_prev] / wt[sel_prev], axis=1).tolist()

    out, r = [], 0
    for gamma, ks in zip(gammas, plan):
        best = None
        certified = False
        refutes = 0
        for K, _ in ks:
            est_last_k, est_prev_k = est_last[r], est_prev[r]
            r += 1
            agree = abs(est_last_k - est_prev_k) <= 0.01 * max(est_prev_k, 1e-12)
            # a decreasing estimate is a safe upper bound for the limsup, an
            # increasing one is safe evidence for refutation
            trend_down = est_last_k <= est_prev_k * (1 + 1e-9)
            trend_up = est_last_k >= est_prev_k * (1 - 1e-9)
            if best is None or est_last_k / K < best["est"] / best["K"]:
                best = {"K": float(K), "est": est_last_k, "agree": bool(agree)}
            if est_last_k < K * (1 - 1e-3) and (agree or trend_down):
                certified = True
            if est_last_k >= K * (1 - 1e-4) and (agree or trend_up):
                refutes += 1
        refuted = (not certified) and len(ks) > 0 and refutes == len(ks)
        status = "certified" if certified else ("refuted" if refuted else "inconclusive")
        row = {"gamma": float(gamma), "status": status}
        row.update(best or {})
        out.append(row)
    return out


def growth_index(w: WeightFunction, gamma_grid=None,
                 T: float = 1e8, refine: bool = True) -> IndexEstimate:
    """Bracket the growth index by certifying / refuting the defining
    property on a gamma grid, with optional geometric bisection between
    the last certified and first refuted gamma."""
    if not w.nondecreasing:
        raise NotMonotone("growth index requires a nondecreasing weight")
    if not math.isfinite(T):
        raise ValidationFailed("growth index horizon must be finite")
    if T < 1e4:
        raise HorizonTooSmall("need at least 4 decades of horizon")
    gamma_grid = sorted(gamma_grid if gamma_grid is not None else DEFAULT_GAMMA_GRID)
    # a NaN gamma passes here and ends in NonFinite when its scale is read
    if any(g <= 0 for g in gamma_grid):
        raise ValidationFailed("growth index gammas must be > 0")
    tg = np.geomspace(T / 100, T, 300)

    rows = []
    if gamma_grid:
        wt = np.asarray(w.evaluate(tg))
        rows = _index_rows(w, gamma_grid, tg, T, wt)
    certified = [r["gamma"] for r in rows if r["status"] == "certified"]
    refuted = [r["gamma"] for r in rows if r["status"] == "refuted"]

    # the certified set of a nondecreasing weight is downward closed on the
    # grid: a larger gamma has larger scales and keeps fewer of them
    if certified and any(r["status"] == "refuted" and r["gamma"] <= max(certified)
                         for r in rows):
        raise NotMonotone("certified gamma set is not downward closed: "
                          "the weight is not nondecreasing")

    lower = max(certified) if certified else 0.0
    upper = min(refuted) if refuted else math.inf
    est = IndexEstimate(lower, upper, rows, T)

    if refine and certified and refuted and upper / lower > 1.02:
        lo, hi = lower, upper
        for _ in range(60):
            if hi / lo <= 1.02:
                break
            mid = math.sqrt(lo * hi)
            row = _index_rows(w, [mid], tg, T, wt)[0]
            est.table.append(row)
            if row["status"] == "certified":
                lo = mid
            elif row["status"] == "refuted":
                hi = mid
            else:
                est.notes = "refinement stopped at an inconclusive gamma"
                break
        est.lower_bound, est.upper_bound = lo, hi
        est.refined = True
    if not refuted:
        est.notes = (est.notes + " no refutation found at horizon").strip()
    return est
