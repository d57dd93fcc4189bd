"""The dilation scans read as one block: the growth index, alpha0, om6,
the unboundedness trend, the slow-variation certificate and the inclusion
battery, each against a test-local copy of the loop that reads its rows
one at a time.  A scan must give the same report, or raise the same
error where the loop does."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import (Dilated, Exp, GridSpec, Log, LogPower, Normalized, PiecewiseLogLinear,
                       Power, Scaled, WeightFunction, conditions, core, counterexample, growth,
                       errors, load_weight, lpspace)
from weightlab.errors import (GammaTooLarge, HorizonTooSmall, NonFinite, NotMonotone,
                              ValidationFailed, WitnessConstructionFailed)
from weightlab.lpspace import NormResult, SampledFunction, sphere_factor
from weightlab.relations import DEFAULT_GRID, WeightMatrix
from weightlab.verdict import holds, inconclusive, to_json

from conftest import _Opaque


class _Until(WeightFunction):
    """inner on [0, cap], non-finite past it: a row reaching past cap
    cannot be read."""

    def __init__(self, inner, cap):
        self.inner, self.cap = inner, cap

    def _eval(self, t):
        return np.where(t > self.cap, np.inf, self.inner._eval(t))


def _outcome(call):
    try:
        result = call()
    except Exception as exc:  # the error is the outcome, typed or not
        return type(exc).__name__, str(exc)
    return "ok", to_json(result.to_dict() if hasattr(result, "to_dict") else result)


# the Gaussian sequence's last corner lies near t = e^87.75, the sqrt(k!)
# sequence's near t = 7.7, the tiny sequence's near t = 1100
_GAUSSIAN = load_weight({"sequence": [0.75 * k * k for k in range(60)]})
_SQRT_FACTORIAL = load_weight({"sequence": [0.5 * math.lgamma(k + 1) for k in range(60)]})
_TINY = load_weight({"sequence": [0.06 * k * k for k in range(60)]})
# zero on [0, 1), then log-linear
_ZERO_BELOW_1 = PiecewiseLogLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)])
_WEIGHTS = {
    "gaussian": _GAUSSIAN, "o_gaussian": _Opaque(_GAUSSIAN),
    "sqrt_factorial": _SQRT_FACTORIAL, "o_sqrt_factorial": _Opaque(_SQRT_FACTORIAL),
    "o_tiny": _Opaque(_TINY), "o_exp": _Opaque(Exp()), "p2542": Power(25.42),
    "o_p2542": _Opaque(Power(25.42)), "zero_below_1": _ZERO_BELOW_1,
    "o_zero_below_1": _Opaque(_ZERO_BELOW_1), "o_log": _Opaque(Log()),
    "o_log2": _Opaque(LogPower(2.0)), "o_sq": _Opaque(Power(2.0)),
    "o_nlog2": _Opaque(Normalized(LogPower(2.0))),
    # a plateau inside the index window: some gammas stay inconclusive
    "o_plateau": _Opaque(PiecewiseLogLinear([(0.0, 0.0), (16.0, 16.0), (17.0, 16.0),
                                             (30.0, 40.0)])),
    # om6 holds at H = 2^20, and the rows 2^21 ... 2^31 of its chunk raise
    "log_until": _Until(Log(), 2e12),
    "log_until_1e9": _Until(Log(), 1e9),
}


@st.composite
def _profiles(draw, decreasing=False):
    """Random profiles: corners (0, 0), then steps in u with slopes >= 0
    (or of either sign), taken opaque so that every scan runs numerically."""
    steps = draw(st.lists(st.tuples(st.floats(0.05, 12.0),
                                    st.floats(-2.0 if decreasing else 0.0, 6.0)),
                          min_size=1, max_size=7))
    us, vs = [0.0], [0.0]
    for du, slope in steps:
        us.append(us[-1] + du)
        vs.append(max(vs[-1] + slope * du, 0.0))
    return _Opaque(PiecewiseLogLinear(list(zip(us, vs))))


# --------------------------------------------------------------------------
# the growth index against the loop over gamma and K
# --------------------------------------------------------------------------

def _classify_gamma_loop(w, gamma, K_grid, tg, T):
    last = tg >= T / 10
    wt = np.asarray(w.evaluate(tg))
    ok = wt > 0
    best = None
    certified = False
    refutes = 0
    for K in K_grid:
        # past e^709, K^gamma T passes 1e305 for any T >= 1e4, and K^gamma may overflow
        if gamma * math.log(K) > 709:
            continue
        scale = K ** gamma
        if scale * T > 1e305:
            continue
        wk = np.asarray(w.evaluate(scale * tg))
        # as in growth._index_rows: a ratio past the double range is inf
        with np.errstate(over="ignore"):
            ratio = np.where(ok, wk / np.where(ok, wt, 1.0), np.nan)
        if not ((last & ok).any() and (~last & ok).any()):
            raise HorizonTooSmall(
                f"growth index: the weight has no positive sample on [{T / 100:g}, {T / 10:g}) "
                f"or none on [{T / 10:g}, {T:g}], so no ratio w(Kt)/w(t) is taken there; "
                "a larger T may reach its growth")
        est_last = float(np.nanmax(ratio[last & ok]))
        est_prev = float(np.nanmax(ratio[~last & ok]))
        agree = abs(est_last - est_prev) <= 0.01 * max(est_prev, 1e-12)
        trend_down = est_last <= est_prev * (1 + 1e-9)
        trend_up = est_last >= est_prev * (1 - 1e-9)
        if best is None or est_last / K < best["est"] / best["K"]:
            best = {"K": float(K), "est": est_last, "agree": bool(agree)}
        if est_last < K * (1 - 1e-3) and (agree or trend_down):
            certified = True
        if est_last >= K * (1 - 1e-4) and (agree or trend_up):
            refutes += 1
    n_considered = sum(1 for K in K_grid
                       if gamma * math.log(K) <= 709 and K ** gamma * T <= 1e305)
    refuted = (not certified) and n_considered > 0 and refutes == n_considered
    status = "certified" if certified else ("refuted" if refuted else "inconclusive")
    row = {"gamma": float(gamma), "status": status}
    row.update(best or {})
    return row


def _growth_index_loop(w, gamma_grid=None, K_grid=None, T=1e8, refine=True):
    if not w.nondecreasing:
        raise NotMonotone("growth index requires a nondecreasing weight")
    gamma_grid = sorted(gamma_grid if gamma_grid is not None else growth.DEFAULT_GAMMA_GRID)
    K_grid = tuple(K_grid if K_grid is not None else growth.DEFAULT_K_GRID)
    tg = np.geomspace(T / 100, T, 300)
    rows = [_classify_gamma_loop(w, g, K_grid, tg, T) for g in gamma_grid]
    certified = [r["gamma"] for r in rows if r["status"] == "certified"]
    refuted = [r["gamma"] for r in rows if r["status"] == "refuted"]
    lower = max(certified) if certified else 0.0
    upper = min(refuted) if refuted else math.inf
    est = growth.IndexEstimate(lower, upper, rows, T)
    if refine and certified and refuted and upper / max(lower, 1e-12) > 1.02:
        lo, hi = lower, upper
        for _ in range(60):
            if hi / lo <= 1.02:
                break
            mid = math.sqrt(lo * hi)
            row = _classify_gamma_loop(w, mid, K_grid, tg, T)
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


_INDEX_CASES = [(k, T, None) for k in _WEIGHTS for T in (1e8, 1e30)] + [
    ("o_log", 1e8, (1.0, 1.5, 200.0)),      # 32^200 T passes 1e305, 64^200 the double range
    ("o_sqrt_factorial", 1e8, (0.5, 200.0)),  # w(tg) raises
    ("log_until_1e9", 1e8, (1.0, 200.0)),     # the row K = 16 of gamma 1 raises
    ("o_sq", 1e8, ()),
    ("o_zero_below_1", 1e4, (0.5, 2.0)),
]


@pytest.mark.parametrize("key,T,gammas", _INDEX_CASES)
def test_the_growth_index_equals_the_loop_over_gamma_and_K(key, T, gammas):
    w = _WEIGHTS[key]
    assert _outcome(lambda: growth.growth_index(w, gammas, T=T)) == \
        _outcome(lambda: _growth_index_loop(w, gammas, T=T))


def test_a_weight_zero_on_the_whole_index_window_raises_as_the_loop_does():
    # zero up to t = e^20, past the window [1e6, 1e8]: the loop finds no
    # positive sample to take a ratio at, after its first row
    zero = _Opaque(PiecewiseLogLinear([(0.0, 0.0), (20.0, 0.0), (21.0, 1.0)]))
    # the same, with the rows from t = 1e9 on unreadable: the loop never reads them
    for w in (zero, _Until(zero, 1e9)):
        got = _outcome(lambda: growth.growth_index(w))
        assert got == _outcome(lambda: _growth_index_loop(w))
        assert got[0] == "HorizonTooSmall"


@settings(max_examples=40)
@given(_profiles(), st.sampled_from([1e4, 1e8, 1e12]))
def test_the_growth_index_of_random_profiles_equals_the_loop(w, T):
    assert _outcome(lambda: growth.growth_index(w, T=T)) == \
        _outcome(lambda: _growth_index_loop(w, T=T))


def test_the_index_cases_reach_errors_and_every_status():
    outcomes = [_outcome(lambda: _growth_index_loop(_WEIGHTS[k], g, T=T))
                for k, T, g in _INDEX_CASES]
    assert {"ok", "HorizonTooSmall", "NonFinite"} <= {o[0] for o in outcomes}
    # every error is a typed one
    typed = {c.__name__ for c in vars(errors).values()
             if isinstance(c, type) and issubclass(c, errors.WeightlabError)}
    assert {o[0] for o in outcomes} <= typed | {"ok"}
    statuses = {row["status"] for kind, rep in outcomes if kind == "ok" for row in rep["table"]}
    assert statuses == {"certified", "refuted", "inconclusive"}


# --------------------------------------------------------------------------
# alpha0, om6 and the unboundedness trend against their loops
# --------------------------------------------------------------------------

def _alpha0_loop(w, grid):
    t0 = max(grid.t_min * 10, 1.0)
    tg = grid.points()
    skip = int(np.sum(tg < t0))
    tg = tg[skip:]
    lam = np.geomspace(1.0, 2.0 ** 10, 22)
    wt = np.asarray(w.evaluate(tg))
    ok = wt > 0
    if not np.any(ok):
        return inconclusive(notes="weight vanishes on the whole test range")
    needed = np.zeros_like(tg)
    for L in lam:
        wl = np.asarray(w.evaluate(L * tg))
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(ok, wl / (L * np.where(ok, wt, 1.0)), 0.0)
        needed = np.maximum(needed, c)
    last, prev = (needed[part] for part in conditions._split_top(grid.decade_starts(), skip))
    sup_last = float(np.max(last)) if last.size else math.inf
    sup_prev = float(np.max(prev)) if prev.size else sup_last
    if sup_last <= sup_prev * 1.05 + 1e-9:
        C = float(np.max(needed)) * 1.05
        return inconclusive(certificate={"C": C, "t0": t0, "lambda_max": float(lam[-1])},
                            margin=C - float(np.max(needed)), horizon=grid.describe(),
                            notes=conditions._TREND_ONLY)
    return inconclusive(margin=sup_last, horizon=grid.describe(),
                        notes="scaling constant still growing at horizon")


def _om6_loop(w, grid):
    if not w.nondecreasing:
        raise NotMonotone("om6 check requires a nondecreasing weight")
    tg = grid.points()
    wt = np.asarray(w.evaluate(tg))
    last, prev = conditions._split_top(grid.decade_starts())
    for k in range(1, 41):
        H = 2.0 ** k
        gap = 2 * wt - np.asarray(w.evaluate(H * tg))
        if float(np.max(gap)) <= H:
            sup_last = float(np.max(gap[last]))
            sup_prev = float(np.max(gap[prev]))
            if sup_last <= max(sup_prev * 1.05 + 1e-9, 0.0):
                return inconclusive(certificate={"H": H}, margin=H - float(np.max(gap)),
                                    horizon=grid.describe(), notes=conditions._TREND_ONLY)
    return inconclusive(horizon=grid.describe(),
                        notes="no H up to 2^40 certified at this horizon")


def _unbounded_loop(w, grid):
    starts = grid.require_decades(3)
    pts = grid.points()
    tops = [float(np.max(np.asarray(w.evaluate(pts[a:b]))))
            for a, b in zip(starts, [*starts[1:], pts.size])]
    if all(b > a * (1 + 1e-3) + 1e-12 for a, b in zip(tops[:-1], tops[1:])):
        return holds({"decade_maxima": tops}, horizon=grid.describe())
    return inconclusive(horizon=grid.describe(), notes="decade maxima not strictly growing")


_SCANS = {"alpha0": (conditions._check_alpha0, _alpha0_loop),
          "om6": (conditions._check_om6, _om6_loop),
          "unbounded": (conditions._check_unbounded_limit, _unbounded_loop)}
_GRIDS = {"default": DEFAULT_GRID, "far": GridSpec(1e-2, 1e14, 600),
          "short": GridSpec(1.0, 1e3, 200)}
_NUMERIC = [k for k, w in _WEIGHTS.items() if w.profile is None]


@pytest.mark.parametrize("scan", sorted(_SCANS))
@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("key", _NUMERIC)
def test_the_condition_scans_equal_their_loops(scan, grid, key):
    block, loop = _SCANS[scan]
    w, g = _WEIGHTS[key], _GRIDS[grid]
    assert _outcome(lambda: block(w, g)) == _outcome(lambda: loop(w, g))


@settings(max_examples=40)
@given(_profiles(decreasing=True), st.sampled_from(sorted(_GRIDS)),
       st.sampled_from(sorted(_SCANS)))
def test_the_condition_scans_of_random_profiles_equal_their_loops(w, grid, scan):
    block, loop = _SCANS[scan]
    assert _outcome(lambda: block(w, _GRIDS[grid])) == _outcome(lambda: loop(w, _GRIDS[grid]))


def test_the_condition_cases_reach_errors_and_every_verdict():
    outcomes = [_outcome(lambda: loop(_WEIGHTS[k], g))
                for block, loop in _SCANS.values() for k in _NUMERIC for g in _GRIDS.values()]
    assert {"ok", "HorizonTooSmall", "NonFinite"} <= {o[0] for o in outcomes}
    assert {o[1]["status"] for o in outcomes if o[0] == "ok"} == {"holds", "inconclusive"}
    # om6 holds on a chunk that also holds rows which cannot be read
    assert _outcome(lambda: _om6_loop(_WEIGHTS["log_until"], DEFAULT_GRID))[1]["certificate"] \
        == {"H": 2.0 ** 20}
    with pytest.raises(core.NonFinite):
        _WEIGHTS["log_until"].evaluate(2.0 ** 21 * DEFAULT_GRID.points())


def test_om6_reads_no_row_past_the_first_H_that_holds(monkeypatch):
    read = []
    evaluate = WeightFunction.evaluate

    def counted(w, t):
        read.append(np.size(t))
        return evaluate(w, t)

    monkeypatch.setattr(WeightFunction, "evaluate", counted)
    n = DEFAULT_GRID.n_points
    # t^2 holds at H = 2, the first chunk
    assert conditions._check_om6(_Opaque(Power(2.0)), DEFAULT_GRID).certificate == {"H": 2.0}
    assert read == [n, n]
    read.clear()
    # log holds at H = 2^20, in the chunk 2^16 ... 2^31, the fifth
    assert conditions._check_om6(_Opaque(Log()), DEFAULT_GRID).certificate == {"H": 2.0 ** 20}
    assert read == [n, n, 2 * n, 4 * n, 8 * n, 16 * n]


def test_the_growth_index_reads_each_distinct_scale_once(monkeypatch):
    read = []
    evaluate = WeightFunction.evaluate

    def counted(w, t):
        read.append(np.shape(t))
        return evaluate(w, t)

    monkeypatch.setattr(WeightFunction, "evaluate", counted)
    growth.growth_index(_Opaque(Power(0.5)), refine=False)
    # the default grids make 56 pairs (gamma, K), but only 36 distinct
    # scales K^gamma: 2^2 = 4^1, 4^1.5 = 8^1, ...
    assert read == [(300,), (36, 300)]


def test_the_unboundedness_trend_reads_all_decades_at_once(monkeypatch):
    read = []
    evaluate = WeightFunction.evaluate

    def counted(w, t):
        read.append(np.size(t))
        return evaluate(w, t)

    monkeypatch.setattr(WeightFunction, "evaluate", counted)
    assert conditions._check_unbounded_limit(_Opaque(Log()), DEFAULT_GRID).holds
    assert read == [DEFAULT_GRID.n_points - DEFAULT_GRID.decade_starts()[0]]


# --------------------------------------------------------------------------
# the slow-variation certificate against the loop over the blocks
# --------------------------------------------------------------------------

def _slow_variation_loop(p, gamma_set):
    reports = []
    for gamma in gamma_set:
        if gamma <= 0:
            raise ValidationFailed("gamma must be positive")
        j0 = max(1, math.ceil(gamma))
        if j0 > p.J:
            raise GammaTooLarge(gamma, j0)
        bounds = []
        for j in range(j0, p.J + 1):
            i = j - 1
            r1 = p.k[i] / p.phi_x[i]
            bounds.append({"j": j, "case": "rise", "value": r1, "bound": 1.0 / (2 * j),
                           "ok": r1 <= 1.0 / (2 * j) * (1 + 1e-12)})
            exact = 1.0 / (p.t[i] * p.x[i])
            bounds[-1]["ok"] = bounds[-1]["ok"] and counterexample._rel_close(r1, exact)
            if j < p.J:
                r2 = p.ell[i] / p.phi_y[i]
                b2 = (j * j + j + 1) / (4.0 * j ** 4)
                bounds.append({"j": j, "case": "connector", "value": r2,
                               "bound": b2, "ok": r2 <= b2 * (1 + 1e-12)})
                r3 = p.k[i + 1] / p.phi_y[i]
                b3 = (j + 1) / (2.0 * j * j)
                bounds.append({"j": j, "case": "next_rise", "value": r3,
                               "bound": b3, "ok": r3 <= b3 * (1 + 1e-12)})
        sups = []
        phi = p.weight.phi
        for j in range(j0, p.J + 1):
            i = j - 1
            hi = p.x[i + 1] if j < p.J else p.y[i]
            if not math.isfinite(hi) or hi + gamma > 1e300:
                break
            # a block that starts at inf samples NaN, on which phi raises
            # NonFinite, as slow_variation_certificate does before it samples
            with np.errstate(invalid="ignore"):
                s = np.linspace(p.x[i], hi, 60)
            ratio = np.asarray(phi(s + gamma)) / np.asarray(phi(s))
            sups.append({"j": j, "sup_minus_1": float(np.max(ratio)) - 1.0})
        threshold = None
        for row in sups:
            if row["sup_minus_1"] <= 1.0:
                if all(r["sup_minus_1"] <= 1.0 for r in sups if r["j"] >= row["j"]):
                    threshold = row["j"]
                    break
        reports.append(counterexample.SlowVariationReport(
            gamma=float(gamma), j0=j0, case_bounds=tuple(bounds),
            block_sup_ratios=tuple(sups),
            certified_K_e=threshold is not None, threshold_j=threshold))
    return reports


def _reports(call):
    return lambda: [r.to_dict() for r in call()]


_PROFILE_60 = counterexample.construct(counterexample.default_delta(60), 0.5, 60)
_PROFILE_84 = counterexample.construct(counterexample.default_delta(84), 0.5, 84)


def _replaced(profile, **fields):
    """`profile` with the given fields replaced, built through the constructor."""
    kept = {name: getattr(profile, name) for name in type(profile).__slots__}
    return counterexample.CounterexampleProfile(**{**kept, **fields})


# the same blocks over a weight whose phi raises from u = 7: at some block of
# every gamma's scan, past the first
_PROFILE_ON_A_SEQUENCE = _replaced(_PROFILE_60, weight=_TINY)
# blocks that end past the double range from j = 40, and at oo from j = 50
_FAR = _PROFILE_60.x.copy()
_FAR[40:] = 2e300
_FAR[50:] = np.inf
_PROFILE_PAST_THE_RANGE = _replaced(_PROFILE_60, x=_FAR)
_GAMMA_SETS = [(0.5, 1.0, 2.0, 5.0), (3.5, 0.0), (1.0, 61.0), (59.5, 60.0), (84.0,)]


@pytest.mark.parametrize("gammas", _GAMMA_SETS)
@pytest.mark.parametrize("profile", [_PROFILE_60, _PROFILE_84, _PROFILE_ON_A_SEQUENCE,
                                     _PROFILE_PAST_THE_RANGE],
                         ids=["J60", "J84", "on_a_sequence", "past_the_range"])
def test_the_slow_variation_certificate_equals_the_loop_over_the_blocks(profile, gammas):
    assert _outcome(_reports(lambda: counterexample.slow_variation_certificate(
        profile, gammas))) == _outcome(_reports(lambda: _slow_variation_loop(profile, gammas)))


def test_the_slow_variation_cases_reach_errors_and_the_double_range():
    kinds = {_outcome(_reports(lambda: _slow_variation_loop(p, g)))[0]
             for p in (_PROFILE_60, _PROFILE_ON_A_SEQUENCE) for g in _GAMMA_SETS}
    assert {"ok", "HorizonTooSmall", "ValidationFailed", "GammaTooLarge"} <= kinds
    # the scan stops before the first block that ends past 1e300
    for gamma, blocks in ((0.5, 39), (45.0, 0)):
        rep = _slow_variation_loop(_PROFILE_PAST_THE_RANGE, (gamma,))[0]
        assert len(rep.block_sup_ratios) == blocks



def test_the_slow_variation_certificate_checks_the_block_ends_before_it_samples():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the first block starts at x = inf: an error, and no numpy warning
        with pytest.raises(NonFinite, match=r"^non-finite phi value encountered$"):
            counterexample.slow_variation_certificate(_PROFILE_PAST_THE_RANGE, (59.5, 60.0))
        # the first block ends past 1e300: a report with no block, as the loop's
        reports = _reports(lambda: counterexample.slow_variation_certificate(
            _PROFILE_PAST_THE_RANGE, (45.0,)))
        assert _outcome(reports) == _outcome(_reports(
            lambda: _slow_variation_loop(_PROFILE_PAST_THE_RANGE, (45.0,))))
    assert reports()[0]["block_sup_ratios"] == []

# --------------------------------------------------------------------------
# weighted norms, the witness and the inclusion battery against their loops
# --------------------------------------------------------------------------

def _norm_loop(f, w, p):
    if p != math.inf and not 1 <= p < math.inf:
        raise ValidationFailed("p must be in [1, oo]")
    ts = f.ts
    wt = np.asarray(w.evaluate(ts))
    logf = f.log_value_array()
    if p == math.inf:
        log_terms = logf + wt
        fin = np.isfinite(log_terms)
        if not np.any(fin):
            return NormResult(p, "finite", 0.0, 0.0)
        peak = float(np.max(log_terms[fin]))
        if peak > 700.0:
            return NormResult(p, "divergent", evidence=f"log supremum {peak:g}")
        T = ts[fin][-1]
        half = fin & (ts >= T / 2)
        if np.count_nonzero(half) >= 3:
            tail = log_terms[half]
            if tail[-1] >= float(np.max(tail[:3])) + 0.5 and tail[-1] >= tail[-3]:
                return NormResult(p, "divergent",
                                  evidence=f"sup still climbing at the grid edge "
                                           f"(log level {tail[-1]:.3g})")
        return NormResult(p, "finite", math.exp(peak), 0.0)
    cd = sphere_factor(f.d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_int = p * logf + wt + math.log(cd) + (f.d - 1) * np.log(
            np.where(ts > 0, ts, 1.0))
    log_int[ts == 0] = -math.inf if f.d > 1 else log_int[ts == 0]
    finite = np.isfinite(log_int)
    if not np.any(finite):
        return NormResult(p, "finite", 0.0, 0.0)
    shift = float(np.max(log_int[finite]))
    sup_ts = ts[np.isfinite(logf)]
    if sup_ts.size:
        T = sup_ts[-1]
        last = finite & (ts >= max(T * 0.9, T - 5.0)) & (ts <= T)
        if np.count_nonzero(last) >= 3:
            tail = log_int[last]
            if tail[-1] >= tail[0] - 1e-12 and tail[-1] - shift > -30:
                return NormResult(
                    p, "divergent",
                    evidence=f"integrand nondecreasing near the grid edge "
                             f"(log level {tail[-1]:.3g})")
    dens = np.where(finite, np.exp(log_int - shift), 0.0)
    total = float(np.trapezoid(dens, ts))
    coarse = float(np.trapezoid(dens[::2], ts[::2]))
    if total <= 0:
        return NormResult(p, "finite", 0.0, 0.0)
    log_ip = shift + math.log(total)
    err = abs(total - coarse) / total
    value = math.exp(log_ip / p) if log_ip / p < 700 else math.inf
    if not math.isfinite(value):
        return NormResult(p, "divergent", evidence=f"norm exponent {log_ip / p:g} overflows")
    return NormResult(p, "finite", value, err)


def _theta_loop(w, p, grid, d):
    ts = grid.points()
    wt = np.asarray(w.evaluate(ts))
    scale = 1.0 if p == math.inf else 1.0 / p
    return SampledFunction.from_log_values(ts, -scale * wt, d, label=f"theta_p{p}")


def _witness_loop(W, p, t_max=40.0, d=1, test_indices=(1.0, 2.0, 4.0)):
    if not W.nondecreasing:
        raise ValidationFailed("witness construction needs a nondecreasing matrix")
    n_max = int(t_max)
    ts = np.linspace(0.0, t_max, max(int(t_max * 100) + 1, 200))
    n0 = None
    for n in range(1, n_max + 1):
        if float(W.weight_at(1.0).evaluate(float(n))) > 1.0:
            n0 = n
            break
    if n0 is None:
        raise WitnessConstructionFailed(n_max)
    log_psi = np.zeros_like(ts)
    exponents = {}
    for n in range(n_max + 1):
        blk = (ts >= n) & (ts < n + 1) if n < n_max else (ts >= n)
        if not np.any(blk):
            continue
        row = W.weight_at(float(n + 1))
        wvals = np.asarray(row.evaluate(ts[blk]))
        if p == math.inf:
            log_psi[blk] = -wvals ** 2
        else:
            base = float(row.evaluate(float(max(n, n0))))
            if base <= 1.0:
                log_psi[blk] = -wvals
                continue
            a_n = max(1.0, math.log(2 * (d + 1) * math.log(2.0 + n)) / math.log(base))
            b_n = max(1.0, (a_n * math.log(max(float(row.evaluate(float(n + 1))), base))
                            + math.log(2.0)) / math.log(base))
            exponents[n] = {"a_n": a_n, "b_n": b_n}
            log_psi[blk] = -(wvals ** (a_n * b_n)) / p
    psi = SampledFunction.from_log_values(ts, log_psi, d, label="psi_witness")
    rows = []
    ok = True
    for ell in test_indices:
        res = _norm_loop(psi, W.weight_at(ell), p)
        rows.append((ell, res))
        ok = ok and not res.divergent
    return psi, lpspace.MembershipReport(tuple(rows), ok, exponents or None)


def _battery_loop(S, p, grid, d):
    fns = [_theta_loop(S.weight_at(ell), p, grid, d) for ell in (0.5, 1.0, 2.0)]
    try:
        fns.append(_witness_loop(S, p, t_max=min(grid.t_max, 40.0), d=d)[0])
    except (ValidationFailed, WitnessConstructionFailed):
        pass
    ts = grid.points()
    fns.append(SampledFunction(ts, np.exp(-ts ** 2), d, "gaussian"))
    plateau = np.where(ts <= 1.0, 1.0, np.maximum(0.0, 2.0 - ts))
    fns.append(SampledFunction(ts, plateau, d, "plateau"))
    return fns


def _inclusion_loop(S, T, p, kind="beurling", grid=lpspace.DEFAULT_NORM_GRID, d=1):
    """inclusion_experiment past its relation, one weighted norm at a time."""
    rep = lpspace.inclusion_experiment(S, T, p, kind, GridSpec(0.0, 1.0, 2, "linear"), d)
    rel = rep.relation
    forward_rows, converse_rows, all_ok = [], [], True
    if rel.holds and rel.index_map:
        battery = _battery_loop(S, p, grid, d)
        for key, entry in rel.index_map.items():
            if kind == "beurling":
                ell, n, C = float(key), entry["n"], entry["C"]
            else:
                n, ell, C = float(key), entry["ell"], entry["C"]
            factor = math.exp(min(C if p == math.inf else C / p, 700))
            for fn in battery:
                lhs = _norm_loop(fn, T.weight_at(ell), p)
                rhs = _norm_loop(fn, S.weight_at(n), p)
                if rhs.divergent:
                    ok, lv, rv = True, None, None
                elif lhs.divergent:
                    cg = np.geomspace(1e-2, 1e8, 400)
                    gap = (np.asarray(T.weight_at(ell).evaluate(cg))
                           - np.asarray(S.weight_at(n).evaluate(cg)) - C)
                    ok, lv, rv = bool(np.all(gap <= 1e-9 * (1.0 + abs(C)))), None, None
                else:
                    lv, rv = lhs.value, factor * rhs.value
                    ok = lv <= rv * (1 + 1e-6) + 1e-300
                forward_rows.append({"function": fn.label, "ell": ell, "n": n,
                                     "C": C, "lhs": lv, "rhs": rv, "ok": ok})
                all_ok = all_ok and ok
    elif rel.fails:
        th = _theta_loop(S.weight_at(1.0), p, grid, d)
        any_finite = False
        for n in (0.5, 1.0, 2.0, 4.0):
            res = _norm_loop(th, T.weight_at(n), p)
            converse_rows.append({"function": th.label, "t_index": n,
                                  "kind": res.kind, "value": res.value})
            any_finite = any_finite or not res.divergent
        all_ok = not any_finite
    return lpspace.ExperimentReport(rel, rep.hypotheses, rep.degraded, tuple(forward_rows),
                                    tuple(converse_rows), all_ok)


_FNS = {
    "gaussian": lambda ts: np.exp(-ts ** 2),
    "plateau": lambda ts: np.where(ts <= 1.0, 1.0, np.maximum(0.0, 2.0 - ts)),
    "flat": lambda ts: np.ones_like(ts),
    "zero": lambda ts: np.zeros_like(ts),
    "bump": lambda ts: np.where((ts > 3) & (ts < 5), 0.5, 0.0),
    "huge": lambda ts: 1e300 * np.exp(-ts),
}
_NORM_WEIGHTS = [Log(), Power(0.5), Power(2.0), Exp(), Scaled(1e-12, Log()),
                 _Opaque(Power(25.42)), _TINY, _ZERO_BELOW_1, Scaled(800.0, Exp())]


@pytest.mark.parametrize("p", [1.0, 2.0, 7.5, 1e6, math.inf, 0.5])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("fn", sorted(_FNS))
def test_weighted_norms_equal_the_one_row_loop(fn, d, p):
    for ts in (np.linspace(0.0, 60.0, 6001), np.linspace(0.5, 20.0, 7), np.array([2.0])):
        f = SampledFunction(ts, _FNS[fn](ts), d)
        for w in _NORM_WEIGHTS:
            assert _outcome(lambda: lpspace.weighted_norm(f, w, p)) == \
                _outcome(lambda: _norm_loop(f, w, p))


class _Fixed(WeightFunction):
    """The weight whose samples on the norm grid are `row`."""

    def __init__(self, row):
        self.row = row

    def evaluate(self, t):
        return self.row


def test_a_block_of_norms_equals_the_norms_one_by_one():
    ts = lpspace.DEFAULT_NORM_GRID.points()
    fns = [SampledFunction(ts, make(ts), 2) for make in _FNS.values()]
    rows = np.stack([w.evaluate(ts) for w in (Log(), Power(0.5), Exp(), _ZERO_BELOW_1)])
    for p in (2.0, math.inf):
        one_by_one = [[_norm_loop(f, _Fixed(row), p).to_dict() for f in fns] for row in rows]
        assert [[r.to_dict() for r in lpspace._Norms(fns, p)(row)] for row in rows] \
            == one_by_one
        # one function against a block of rows
        assert [r.to_dict() for r in lpspace._Norms(fns[:1], p)(rows)] == \
            [row[0] for row in one_by_one]


def test_the_battery_reads_each_weight_where_a_loop_over_its_members_does():
    # members on two grids of radii; T cannot be read past t = 70, so only
    # on the far grid, S (past t = 37) on neither: S's error comes first
    near, far = np.linspace(0.0, 60.0, 601), np.linspace(0.0, 80.0, 801)
    fns = [SampledFunction(ts, np.exp(-ts), 1) for ts in (near, far, near)]
    for T, S in ((_Until(Log(), 70.0), Dilated(30.0, _TINY)), (Log(), Power(0.5)),
                 (_Until(Log(), 70.0), Log())):
        def loop():
            return [(_norm_loop(f, T, 2.0).to_dict(), _norm_loop(f, S, 2.0).to_dict())
                    for f in fns]

        def block():
            norms = lpspace._battery_norms(fns, 2.0)
            lhs_of, rhs_of = norms(T), norms(S)
            return [(lhs_of(i).to_dict(), rhs_of(i).to_dict()) for i in range(len(fns))]

        assert _outcome(block) == _outcome(loop)


_SEQUENCE_MATRIX = WeightMatrix.dilatation(_TINY)
_WITNESS_MATRICES = {
    "exp_t12": WeightMatrix.exponential(Power(0.5)),
    "dil_log": WeightMatrix.dilatation(Log()),
    "dil_log2": WeightMatrix.dilatation(LogPower(2.0)),
    "exp_o_exp": WeightMatrix.exponential(_Opaque(Exp())),
    "dil_tiny": _SEQUENCE_MATRIX,
    "explicit": WeightMatrix.explicit([(1.0, Log()), (2.0, Power(0.5)), (4.0, Power(1.0))]),
    "explicit_no_1": WeightMatrix.explicit([(2.0, Power(0.5)), (4.0, Power(1.0))]),
    "exp_flat": WeightMatrix.exponential(PiecewiseLogLinear([(0.0, 0.0), (90.0, 0.0),
                                                             (91.0, 1.0)])),
}


@pytest.mark.parametrize("args", [(2.0,), (math.inf,), (2.0, 40.0, 3), (2.0, 12.5, 1, ()),
                                  (2.0, 40.0, 1, (1.0, 8.0, 0.5)), (0.5, 10.0, 1),
                                  (1.0, 0.5, 1)])
@pytest.mark.parametrize("key", sorted(_WITNESS_MATRICES))
def test_the_witness_equals_the_loop_over_its_blocks(key, args):
    W = _WITNESS_MATRICES[key]

    def witness(call):
        def run():
            psi, rep = call(W, *args)
            return {"ts": psi.ts.tolist(), "values": psi.values.tolist(), "report": rep.to_dict()}
        return run

    assert _outcome(witness(lpspace.nontriviality_witness)) == _outcome(witness(_witness_loop))


def test_the_witness_cases_reach_errors():
    kinds = {_outcome(lambda: _witness_loop(W, 2.0)[1])[0] for W in _WITNESS_MATRICES.values()}
    assert {"ok", "HorizonTooSmall", "ValidationFailed", "WitnessConstructionFailed"} <= kinds


_MATRICES = {
    "exp_t12": WeightMatrix.exponential(Power(0.5)),
    "exp_o_t12": WeightMatrix.exponential(_Opaque(Power(0.5))),
    "dil_log": WeightMatrix.dilatation(Log()),
    "dil_log2": WeightMatrix.dilatation(LogPower(2.0)),
    "exp_log": WeightMatrix.exponential(Log()),
    "exp_t1": WeightMatrix.exponential(Power(1.0)),
    "dil_tiny": _SEQUENCE_MATRIX,
}
_INCLUSIONS = [("exp_t12", "dil_log"), ("dil_log2", "exp_t12"), ("exp_t12", "exp_log"),
               ("exp_log", "exp_t12"), ("exp_o_t12", "exp_t1"), ("exp_t1", "exp_t12"),
               ("dil_log", "dil_log2"), ("dil_log2", "dil_log"), ("dil_tiny", "dil_log")]


@pytest.mark.parametrize("p,d", [(2.0, 1), (1.0, 3), (math.inf, 1)])
@pytest.mark.parametrize("kind", ["beurling", "roumieu"])
@pytest.mark.parametrize("s,t", _INCLUSIONS)
def test_the_inclusion_battery_equals_the_loop_over_its_members(s, t, kind, p, d):
    S, T = _MATRICES[s], _MATRICES[t]
    assert _outcome(lambda: lpspace.inclusion_experiment(S, T, p, kind, d=d)) == \
        _outcome(lambda: _inclusion_loop(S, T, p, kind, d=d))


def test_the_inclusion_cases_reach_the_battery_and_the_converse():
    reps = [_inclusion_loop(_MATRICES[s], _MATRICES[t], 2.0, kind)
            for s, t in _INCLUSIONS for kind in ("beurling", "roumieu")
            if _outcome(lambda: _inclusion_loop(_MATRICES[s], _MATRICES[t], 2.0, kind))[0] == "ok"]
    assert any(r.forward_rows for r in reps) and any(r.converse_rows for r in reps)
    assert any(row["lhs"] is None for r in reps for row in r.forward_rows)
