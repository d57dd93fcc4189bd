"""Finite-horizon decision procedures for weight growth/regularity conditions.

Condition identifiers
---------------------
om1   doubling:                w(2t) = O(w(t))
om2   at most linear:          w(t) = O(t)
om3   log strictly dominated:  log t = o(w(t))
om3w  log dominated:           log t = O(w(t))
om4   convexity in log scale:  u -> w(e^u) convex
om5   sublinear:               w(t) = o(t)
om6   doubling with slack:     exists H >= 1: 2 w(t) <= w(H t) + H
om_nq integral tail finite:    int_1^oo w(t)/t^2 dt < oo
om_snq uniform integral bound: int_1^oo w(yt)/t^2 dt <= C w(y) + C
alpha0 scaling bound:          w(lam t) <= C lam w(t) for t >= t0, lam >= 1
om_sub subadditive:            w(s+t) <= w(s) + w(t)
plus the structural checks: normalized, nondecreasing, unbounded_limit.

Asymptotic conditions can never be refuted from finite data alone, so a
``fails`` status is produced only from closed-form reasoning or from a
genuine pointwise witness (om4 slope inversion, subadditivity violation, a
nonzero sample on [0,1], ...).  Everything else that cannot be certified
gets an honest ``inconclusive``.  The closed forms of the asymptotic
conditions are read from a weight's germ alone (`core.germ_truth`): each is
invariant under equivalence, and a finite profile's germ is its final ray's.
"""

from __future__ import annotations

import functools
import math

from .core import (ASYMPTOTIC, DEFAULT_GRID, GridSpec, WeightFunction, _BLOCK, _C_GRID,
                   closed_form, decade_starts, dilations, germ_truth, np)
from .errors import ChainViolation, HorizonTooSmall, NonFinite, NotMonotone, UnknownCondition
from .verdict import Record, Verdict, conjunction, fails, holds, inconclusive

__all__ = [
    "CONDITION_IDS",
    "check_condition",
    "classify",
    "check_implication_chain",
    "ClassReport",
    "ConsistencyReport",
    "DEFAULT_GRID",
]

CONDITION_IDS = (
    "om1", "om2", "om3", "om3w", "om4", "om5", "om6",
    "om_nq", "om_snq", "om_sub", "alpha0",
    "normalized", "nondecreasing", "unbounded_limit",
)

# those asymptotic conditions that a finite profile's final ray decides;
# unboundedness has its own exact rule, whose certificate reads the profile
_RAY = ASYMPTOTIC[:-1]


# ---------------------------------------------------------------------------
# closed-form answers
# ---------------------------------------------------------------------------

def _final_ray(w: WeightFunction, cond: str):
    """The exact verdict of `cond` on a weight with a profile and a germ,
    else None: a nondecreasing profile with no end index that ends in the ray
    phi(u) = s u + c, s > 0, is s log t + c past its last corner, and every
    condition of _RAY is invariant under equivalence."""
    prof = w.profile
    if cond not in _RAY or prof is None or w.germ is None:
        return None
    s = float(prof.final_slope)
    verdict = holds if germ_truth(w.germ, cond) else fails
    return verdict({"final_slope": s, "equivalent_to": "log(1+t)"},
                   notes=f"exact for the truncated profile, which is {s:g} log t + c past "
                         "its last corner, not for an infinite construction it truncates")


# ---------------------------------------------------------------------------
# numeric machinery
# ---------------------------------------------------------------------------

def _split_top(starts, skip=0):
    """Slices (last, prev) of the last two decades of the partition
    `starts`, in the grid's points from point `skip` on: a decade that
    begins before that point is cut there, and a missing one is empty."""
    prev, last = ([0, 0] + [max(int(k) - skip, 0) for k in starts[-2:]])[-2:]
    return slice(last, None), slice(prev, last)


def _sup_ratio_verdict(ratio, top, grid, small_o: bool):
    """Shared trend test for O- and small-o-style ratio conditions, on the
    slices `top` of the last two decades."""
    ok = np.isfinite(ratio)
    last, prev = (ratio[part][ok[part]] for part in top)
    if not (last.size and prev.size):
        return inconclusive(notes="ratio undefined on the top decades",
                            horizon=grid.describe())
    sup_last = float(np.max(last))
    sup_prev = float(np.max(prev))
    if small_o:
        if sup_last <= 0.5 * sup_prev + 1e-15:
            return holds({"sup_last_decade": sup_last,
                          "decay_factor": sup_last / max(sup_prev, 1e-300)},
                         margin=sup_last, horizon=grid.describe())
        return inconclusive(margin=sup_last, horizon=grid.describe(),
                            notes="ratio not clearly vanishing at horizon")
    if sup_last <= sup_prev * 1.05 + 1e-9:
        return holds({"C": sup_last * 1.1},
                     margin=sup_prev * 1.05 - sup_last,
                     horizon=grid.describe())
    return inconclusive(margin=sup_last, horizon=grid.describe(),
                        notes="ratio still growing between the top decades")


# the note of an om6 or alpha0 constant that a finite grid's trend alone
# gives: om6's slack +H absorbs log growth over any finite grid, and alpha0's
# cap on lambda bounds the constant of every power
_TREND_ONLY = "the constant comes from a trend on the finite grid alone"


def _ratio_condition(w, cond, grid):
    tg = grid.points()
    skip = int(np.searchsorted(tg, max(grid.t_min, 1e-12)))
    tg = tg[skip:]
    wt = np.asarray(w.evaluate(tg))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if cond == "om1":
            ratio = np.asarray(w.evaluate(2 * tg)) / (wt + 1.0)
        elif cond in ("om2", "om5"):
            ratio = wt / tg
        elif cond in ("om3", "om3w"):
            num = np.log(tg)
            ratio = np.where(wt > 0, num / np.where(wt > 0, wt, 1.0), np.nan)
            ratio[num <= 0] = 0.0
        else:  # pragma: no cover
            raise ValueError(cond)
    return _sup_ratio_verdict(ratio, _split_top(grid.decade_starts(), skip), grid,
                              small_o=cond in ("om3", "om5"))


def _check_om4(w, grid):
    prof = w.profile
    if prof is not None:
        slopes = prof.slopes
        scale = max(1.0, float(np.max(np.abs(slopes), initial=0.0)))
        drops = np.diff(slopes) < -1e-12 * scale
        if np.any(drops):
            k = int(np.argmax(drops)) + 1  # corner index where the slope falls
            return fails({"corner_index": k, "u": float(prof.us[k]),
                          "slope_before": float(slopes[k - 1]),
                          "slope_after": float(slopes[k])},
                         margin=float(slopes[k] - slopes[k - 1]),
                         notes="exact slope inversion in the profile")
        return holds({"exact": True, "min_slope_increase": float(np.min(np.diff(slopes)))
                      if len(slopes) > 1 else 0.0},
                     notes="profile slopes nondecreasing")
    u = np.linspace(math.log(max(grid.t_min, 1e-6)), math.log(grid.t_max), 801)
    vals = np.asarray(w.phi(u))
    second = np.diff(vals, 2)
    scale = max(1.0, float(np.max(np.abs(vals))))
    worst = float(np.min(second))
    if worst >= -1e-9 * scale:
        return holds({"min_second_difference": worst}, margin=worst,
                     horizon=grid.describe())
    k = int(np.argmin(second)) + 1
    return fails({"u": float(u[k]), "second_difference": worst},
                 margin=worst, horizon=grid.describe(),
                 notes="clear concavity in the sampled log-scale values")


def _check_om6(w, grid):
    if not w.nondecreasing:
        raise NotMonotone("om6 check requires a nondecreasing weight")
    tg = grid.points()
    wt = np.asarray(w.evaluate(tg))
    last, prev = _split_top(grid.decade_starts())
    # H = 2, 4, ..., 2^40 in chunks of 1, 2, 4, ... rows, so that the scan
    # stops at the first H that holds, and a row past it is never read
    for Hs, rows in dilations(w, tg).doubling(list(_C_GRID[1:])):
        gaps = 2 * wt - rows
        for H, gap, peak in zip(Hs, gaps, gaps.max(axis=1).tolist()):
            if peak <= H:
                sup_last = float(np.max(gap[last]))
                sup_prev = float(np.max(gap[prev]))
                if sup_last <= max(sup_prev * 1.05 + 1e-9, 0.0):
                    return inconclusive(certificate={"H": H}, margin=H - peak,
                                        horizon=grid.describe(), notes=_TREND_ONLY)
    return inconclusive(horizon=grid.describe(),
                        notes="no H up to 2^40 certified at this horizon")


def _check_om_nq(w, grid):
    from . import growth
    T = grid.t_max
    r1 = growth.kappa(w, 1.0, T)
    if r1.divergent:
        return inconclusive(horizon=grid.describe(),
                            notes=f"integrand decay test failed: {r1.evidence}")
    r2 = growth.kappa(w, 1.0, 2 * T)
    if r2.divergent or abs(r2.value - r1.value) > 1e-6 * (abs(r1.value) + 1.0):
        return inconclusive(margin=abs(r2.value - r1.value) if not r2.divergent else None,
                            horizon=grid.describe(),
                            notes="value still moving under horizon doubling")
    return holds({"integral": r1.value, "tail_interval": [r1.tail_low, r1.tail_high]},
                 margin=abs(r2.value - r1.value), horizon=grid.describe())


def _check_om_snq(w, grid):
    from . import growth
    y = np.geomspace(max(grid.t_min, 1.0), min(grid.t_max, 1e5), 30)
    res = growth.kappa(w, y, grid.t_max, until_divergent=True)
    if res[-1].divergent:
        return inconclusive(notes=f"kappa divergent at y={y[len(res) - 1]}",
                            horizon=grid.describe())
    wy = np.asarray(w.evaluate(y))
    ratio = np.asarray([r.value for r in res]) / (wy + 1.0)
    return _sup_ratio_verdict(ratio, _split_top(decade_starts(y)), grid, small_o=False)


def _check_alpha0(w, grid):
    t0 = max(grid.t_min * 10, 1.0)
    tg = grid.points()
    skip = int(np.searchsorted(tg, t0))
    tg = tg[skip:]
    lam = np.geomspace(1.0, 2.0 ** 10, 22)
    wt = np.asarray(w.evaluate(tg))
    ok = wt > 0
    if not np.any(ok):
        return inconclusive(notes="weight vanishes on the whole test range")
    rows = dilations(w, tg).all(lam.tolist())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cs = np.where(ok, rows / (lam[:, None] * np.where(ok, wt, 1.0)), 0.0)
    needed = cs.max(axis=0, initial=0.0)
    last, prev = (needed[part] for part in _split_top(grid.decade_starts(), skip))
    sup_last = float(np.max(last)) if last.size else math.inf
    sup_prev = float(np.max(prev)) if prev.size else sup_last
    if sup_last <= sup_prev * 1.05 + 1e-9:
        C = float(np.max(needed)) * 1.05
        return inconclusive(certificate={"C": C, "t0": t0, "lambda_max": float(lam[-1])},
                            margin=C - float(np.max(needed)), horizon=grid.describe(),
                            notes=_TREND_ONLY)
    return inconclusive(margin=sup_last, horizon=grid.describe(),
                        notes="scaling constant still growing at horizon")


# side of the square tiles of the pair triangle that the om_sub scan bounds
_TILE = 8


@functools.lru_cache(maxsize=8)
def _tiles(n):
    """The tiles of the pair triangle i <= j, i + j < n that hold a pair,
    as read-only arrays: the block numbers of each tile's rows and columns
    (blocks of _TILE samples), its first pair's row-major key i * n + j,
    and the row and column offsets of a tile's cells, row-major."""
    rb, cb = np.triu_indices(-(-n // _TILE))
    keep = ((rb + cb) * _TILE < n) & (rb * _TILE <= (n - 1) // 2)
    rb, cb = rb[keep], cb[keep]
    cell = np.arange(_TILE * _TILE)
    tiles = (rb, cb, (rb * n + cb) * _TILE, cell // _TILE, cell % _TILE)
    for a in tiles:
        a.flags.writeable = False
    return tiles


def _tile_bounds(stack):
    """The bound of each tile of _tiles(n), for each row v of the 2-d
    `stack`: (max v over the tile's sums - min v over its rows) - min v
    over its columns, with row 0 left out of the first row block.  Each
    term is taken over whole blocks of _TILE samples, two blocks for the
    sums, which only loosens it."""
    n = stack.shape[1]
    rb, cb = _tiles(n)[:2]
    starts = np.arange(0, n, _TILE)
    peak = np.maximum.reduceat(stack, starts, axis=1)
    peak[:, :-1] = np.maximum(peak[:, :-1], peak[:, 1:])
    low = np.minimum.reduceat(stack, starts, axis=1)
    low_rows = low.copy()
    low_rows[:, 0] = stack[:, 1:_TILE].min(axis=1, initial=np.inf)
    return (peak.take(rb + cb, axis=1) - low_rows.take(rb, axis=1)) - low.take(cb, axis=1)


def _worst_pairs(stack):
    """[(i, j, gap)] for each row v of the 2-d `stack`: the largest gap =
    (v[i + j] - v[i]) - v[j] over i <= j, i + j < n = row length, at its
    first pair in row-major order.

    Row 0 and the diagonal i = j are read whole.  The other pairs lie in
    _TILE x _TILE tiles, each with an upper bound on its gaps
    (`_tile_bounds`): rounding is monotone, so a gap computed in the same
    order from larger sums and smaller terms is no smaller.  Only a tile
    whose bound beats the best gap of row 0 and the diagonal, or ties it
    at an earlier pair, is read, each read temporary within _BLOCK
    doubles."""
    m, n = stack.shape
    rb, cb, first, di, dj = _tiles(n)
    # the exact gaps of row 0 and of the diagonal, and the better of the two
    top = (stack - stack[:, :1]) - stack
    half = stack[:, :(n + 1) // 2]
    diag = (stack[:, ::2] - half) - half
    at = np.arange(m)
    j0, d0 = top.argmax(axis=1), diag.argmax(axis=1)
    best, key = top[at, j0], j0
    take = diag[at, d0] > best
    best = np.where(take, diag[at, d0], best)
    key = np.where(take, d0 * (n + 1), key)
    bound = _tile_bounds(stack)
    # a tile is read if its bound beats the best gap, or ties it at an
    # earlier first pair
    scale, tile = np.divmod(np.flatnonzero(bound >= best[:, None]), first.size)
    keep = (bound[scale, tile] > best[scale]) | (first[tile] < key[scale])
    scale, tile = scale[keep], tile[keep]
    if tile.size:
        # one row per scale: the samples, zeros that a row or column past
        # the end reads, and -inf that every pair outside the triangle sums to
        width = n + _TILE
        padded = np.zeros((m, width))
        padded[:, :n] = stack
        padded[:, -1] = -np.inf
        flat = padded.ravel()
        step = _BLOCK // di.size
        for c0 in range(0, tile.size, step):
            sc, t = scale[c0:c0 + step], tile[c0:c0 + step]
            i = rb[t, None] * _TILE + di
            j = cb[t, None] * _TILE + dj
            s = i + j
            s[(j < i) | (s >= n)] = width - 1
            off = sc[:, None] * width
            gaps = (flat[off + s] - flat[off + i]) - flat[off + j]
            # each scale's best gap in this chunk, and its first pair
            chunk_best = np.full(m, -np.inf)
            np.maximum.at(chunk_best, sc, gaps.max(axis=1))
            pairs = np.where(gaps == chunk_best[sc, None], i * n + j, n * n)
            chunk_key = np.full(m, n * n)
            np.minimum.at(chunk_key, sc, pairs.min(axis=1))
            take = (chunk_best > best) | ((chunk_best == best) & (chunk_key < key))
            best = np.where(take, chunk_best, best)
            key = np.where(take, chunk_key, key)
    return [(k // n, k % n, g) for k, g in zip(key.tolist(), best.tolist())]


def _check_om_sub(w, grid):
    # the index-addition scan needs a uniform grid with 0, so small- and
    # large-argument violations are probed on separate linear scales, each
    # evaluated in order; an error at one ends the evaluations, and the
    # scales before it are scanned together
    n = 512
    scales = [s for s in (2.0, 64.0, 2048.0, grid.t_max) if s <= grid.t_max]
    tgs, rows, error = [], [], None
    for t_max in dict.fromkeys(scales):
        tg = np.linspace(0.0, t_max, n)
        try:
            rows.append(np.asarray(w.evaluate(tg)))
        except (HorizonTooSmall, NonFinite) as exc:
            error = exc
            break
        tgs.append(tg)
    if error is not None and not rows:
        raise error
    # the scales hold grid.t_max, so only a grid with no ordered t_max (NaN)
    # fits none: then nothing is scanned and no gap is found
    worst, concave = -np.inf, True
    if rows:
        vals = np.stack(rows)
        # w(s+t) - w(s) - w(t) at s = tg[i], t = tg[j]; the first scale with
        # the largest gap holds the witness
        pairs = _worst_pairs(vals)
        tols = 1e-9 * (1.0 + vals.max(axis=1))
        k = max(range(len(pairs)), key=lambda r: pairs[r][2])
        wi, wj, worst = pairs[k]
        if worst > tols[k]:  # a violation on a scale before an error still stands
            return fails({"s": float(tgs[k][wi]), "t": float(tgs[k][wj]), "violation": worst},
                         margin=worst, horizon=grid.describe())
        concave = bool(np.all(np.diff(vals, 2, axis=1) <= tols[:, None])) \
            and bool(np.all(vals[:, 0] == 0.0))
    if error is not None:
        raise error
    if concave and w.nondecreasing:
        return holds({"reason": "concave with value 0 at the origin", "scan_max_gap": worst},
                     margin=-worst, horizon=grid.describe())
    return inconclusive(margin=worst, horizon=grid.describe(),
                        notes="no violation found, but subadditivity beyond the grid unproven")


def _check_normalized(w, grid):
    ts = np.linspace(0.0, 1.0, 64)
    vals = np.asarray(w.evaluate(ts))
    if np.any(vals > 0):
        k = int(np.argmax(vals > 0))
        return fails({"t": float(ts[k]), "value": float(vals[k])})
    if w.normalized:
        return holds({"flag": True, "samples_zero": True})
    return inconclusive(notes="samples vanish on [0,1] but no structural guarantee")


def _check_nondecreasing(w, grid):
    tg = np.union1d(np.linspace(0, 1, 50)[1:], grid.points())
    vals = np.asarray(w.evaluate(tg))
    diffs = np.diff(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.any(diffs < -1e-12 * scale):
        k = int(np.argmax(diffs < -1e-12 * scale))
        return fails({"t_left": float(tg[k]), "t_right": float(tg[k + 1]),
                      "drop": float(diffs[k])})
    if w.nondecreasing:
        return holds({"flag": True, "grid_monotone": True})
    return inconclusive(notes="monotone on samples but flag not declared")


def _check_unbounded_limit(w, grid):
    prof = w.profile
    if prof is not None:
        if prof.final_slope > 0:
            return holds({"exact": True, "final_slope": float(prof.final_slope)})
        bound = float(np.max(prof.vs))
        return fails({"sup": bound}, notes="profile levels off; weight is bounded")
    starts = grid.require_decades(3)
    # one evaluation over the decades, one maximum per decade
    top = w.evaluate(grid.points()[starts[0]:])
    tops = np.maximum.reduceat(top, starts - starts[0]).tolist()
    if all(b > a * (1 + 1e-3) + 1e-12 for a, b in zip(tops[:-1], tops[1:])):
        return holds({"decade_maxima": tops}, horizon=grid.describe())
    return inconclusive(horizon=grid.describe(),
                        notes="decade maxima not strictly growing")


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def check_condition(w: WeightFunction, cond: str, grid: GridSpec = DEFAULT_GRID) -> Verdict:
    if cond not in CONDITION_IDS:
        raise UnknownCondition(f"unknown condition {cond!r}; choose from {CONDITION_IDS}")
    # counted without the grid's points; a grid too short raises the guard's message
    if cond in ASYMPTOTIC and grid.decade_count() < 2:
        grid.require_decades(2)

    exact = closed_form(w, cond)
    if exact is True:
        return holds({"closed_form": True}, notes="exact family-level answer")
    if exact is False:
        return fails({"closed_form": True}, notes="exact family-level refutation")
    ray = _final_ray(w, cond)
    if ray is not None:
        return ray

    try:
        if cond in ("om1", "om2", "om3", "om3w", "om5"):
            return _ratio_condition(w, cond, grid)
        # looked up by name at each call, so that a wrapper rebound on this
        # module, such as wlbench's tracer, sees the call
        return globals()[f"_check_{cond}"](w, grid)
    except (HorizonTooSmall, NonFinite) as exc:
        # a weight that cannot be evaluated on the whole grid leaves this
        # condition undecided; it does not sink the other conditions
        return inconclusive(horizon=grid.describe(), notes=f"{type(exc).__name__}: {exc}")


class ClassReport(Record):
    """The verdict of each condition and of each weight class, by id."""

    __slots__ = ("conditions", "classes")


def _zero_at_origin(w):
    v = 0.0 if closed_form(w, "zero_at_origin") else float(w.evaluate(0.0))
    if v == 0.0:
        return holds({"value": 0.0})
    return fails({"value": v})


def classify(w: WeightFunction, grid: GridSpec = DEFAULT_GRID) -> ClassReport:
    """Membership verdicts for the standard weight classes."""
    conds = {c: check_condition(w, c, grid) for c in CONDITION_IDS}
    continuous = holds({"by_representation": True},
                       notes="all supported representations are continuous")
    zero0 = _zero_at_origin(w)

    base = {
        "continuous": continuous,
        "zero_at_origin": zero0,
        "nondecreasing": conds["nondecreasing"],
        "unbounded_limit": conds["unbounded_limit"],
    }
    weight_function = conjunction(base)
    bmt = conjunction({**base, "om1": conds["om1"], "om3": conds["om3"],
                       "om4": conds["om4"]})
    bb = conjunction({
        "continuous": continuous, "zero_at_origin": zero0,
        "om_sub": conds["om_sub"], "om_nq": conds["om_nq"], "om3w": conds["om3w"],
    })
    matrix_admissible = conjunction({
        "nondecreasing": conds["nondecreasing"], "om3": conds["om3"],
    })
    pv = conjunction({
        "nondecreasing": conds["nondecreasing"], "om_sub": conds["om_sub"],
        "om_nq": conds["om_nq"], "om3w": conds["om3w"],
    })

    classes = {
        "weight_function": weight_function,
        "bmt": bmt,
        "bb": bb,
        "matrix_admissible": matrix_admissible,
        "petzsche_vogt_1_4": pv,
        "petzsche_vogt_5": conds["om3"],
        "petzsche_vogt_6": conds["om2"],
    }

    # a weight can miss subadditivity itself yet be equivalent to its own
    # kappa transform, which is concave; that rescues membership up to
    # equivalence.  w ~ kappa_w is om_snq for a nondecreasing w, as in
    # growth.kappa_equivalence_check
    if not bb.holds:
        ke = conds["om_snq"] if w.nondecreasing else inconclusive()
        classes["bb_equivalent"] = conjunction({
            "kappa_equivalence": ke, "om3w": conds["om3w"],
            "continuous": continuous, "zero_at_origin": zero0,
        })
    else:
        classes["bb_equivalent"] = bb
    return ClassReport(conditions=conds, classes=classes)


class ConsistencyReport(Record):
    """Verdicts and the implications checked between them (a broken one raises)."""

    __slots__ = ("items", "edges")


def check_implication_chain(w: WeightFunction, grid: GridSpec = DEFAULT_GRID,
                            index_horizon: float = 1e8) -> ConsistencyReport:
    """Cross-check the one-way street between index > 1, the integral
    conditions, sublinearity, and the scaling bound."""
    if not w.nondecreasing:
        raise NotMonotone("implication chain requires a nondecreasing weight")

    from . import growth
    est = growth.growth_index(w, gamma_grid=(1.25, 2.0), T=index_horizon, refine=False)
    if est.lower_bound > 1.0:
        growth_gt1 = holds({"lower_bound": est.lower_bound})
    elif est.upper_bound <= 1.0:
        growth_gt1 = fails({"upper_bound": est.upper_bound})
    else:
        growth_gt1 = inconclusive(notes="index bracket straddles 1")

    items = {
        "gamma_gt_1": growth_gt1,
        "om_snq": check_condition(w, "om_snq", grid),
        "om_nq": check_condition(w, "om_nq", grid),
        "om5": check_condition(w, "om5", grid),
        "om2": check_condition(w, "om2", grid),
        "alpha0": check_condition(w, "alpha0", grid),
    }

    chain = [("gamma_gt_1", "om_snq"), ("om_snq", "gamma_gt_1"),
             ("om_snq", "om_nq"), ("om_nq", "om5"), ("om5", "om2"),
             ("gamma_gt_1", "alpha0")]
    edges = []
    for a, b in chain:
        va, vb = items[a], items[b]
        if va.holds and vb.fails:
            raise ChainViolation(f"{a} holds but {b} fails — checker inconsistency")
        edges.append({"from": a, "to": b,
                      "skipped": va.inconclusive or vb.inconclusive})
    return ConsistencyReport(items=items, edges=edges)
