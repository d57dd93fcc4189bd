"""Pairwise growth relations, weight matrices, and their comparison calculus.

Scalar relations between weights sigma, tau (all inequalities for every t):

    le         tau <= sigma pointwise
    preceq     tau <= C sigma + C for some C
    sim        preceq in both directions
    triangle   for every eps > 0 there is C with tau <= eps sigma + C
    preceq_c   tau(t) <= sigma(C1 t) + C2
    sim_c      preceq_c in both directions
    triangle_c for every eps > 0 there is C with tau(t) <= sigma(eps t) + C

Matrix relations (sigma^n from S, tau^ell from T):

    beurling   for all ell exists n, C:   tau^ell <= sigma^n + C
    roumieu    for all n exists ell, C:   tau^ell <= sigma^n + C
    triangle   for all ell, n exists D:   tau^ell <= sigma^n + D
"""

from __future__ import annotations

import math

import numpy as np

from .core import (DEFAULT_GRID, _BLOCK, _C_GRID, Dilated, GridSpec, Rows, Scaled,
                   WeightFunction, decade_starts, dilations, germ_above, require_decades)
from .errors import (BridgeViolation, EmptyInput, IndexSearchExhausted, NonFinite,
                     NotMonotone, UnknownRelation, ValidationFailed)
from .verdict import Record, Verdict, conjunction, fails, holds, inconclusive

__all__ = [
    "WeightMatrix",
    "RelationVerdict",
    "DEFAULT_ELL_GRID",
    "RELATIONS",
    "MATRIX_RELATIONS",
    "compare",
    "bridge_check",
    "matrix_relation",
]

DEFAULT_ELL_GRID = tuple(2.0 ** k for k in range(-6, 7))
_EXTENDED_ELL_GRID = tuple(2.0 ** k for k in range(-12, 13))
_EPS_GRID = (1.0, 0.5, 0.1, 0.01)
_C1_GRID = [2.0 ** k for k in range(13)]

# the relation ids `compare` and `matrix_relation` accept
RELATIONS = ("le", "preceq", "sim", "triangle", "preceq_c", "sim_c", "triangle_c")
MATRIX_RELATIONS = ("beurling", "roumieu", "triangle")


# ---------------------------------------------------------------------------
# weight matrices
# ---------------------------------------------------------------------------

class WeightMatrix(Record):
    """A family {w^ell : ell > 0}, pointwise nondecreasing in ell.  kind:
    "exponential" | "dilatation" | "explicit"; entries: ((ell,
    WeightFunction), ...) for explicit."""

    __slots__ = ("kind", "base", "entries", "nondecreasing")
    _defaults = {"base": None, "entries": (), "nondecreasing": True}

    @staticmethod
    def exponential(w: WeightFunction) -> "WeightMatrix":
        """w^ell = ell * w."""
        return WeightMatrix(kind="exponential", base=w,
                            nondecreasing=w.nondecreasing)

    @staticmethod
    def dilatation(w: WeightFunction) -> "WeightMatrix":
        """w^ell = w(ell *)."""
        if not w.nondecreasing:
            raise NotMonotone("dilatation-type matrices require a nondecreasing base")
        return WeightMatrix(kind="dilatation", base=w)

    @staticmethod
    def explicit(entries) -> "WeightMatrix":
        items = tuple((float(l), w) for l, w in entries)
        if not items:
            raise ValidationFailed("explicit matrix needs at least one entry")
        ells = [l for l, _ in items]
        if any(b <= a for a, b in zip(ells[:-1], ells[1:])):
            raise ValidationFailed("explicit matrix indices must be strictly increasing")
        nd = all(w.nondecreasing for _, w in items)
        return WeightMatrix(kind="explicit", entries=items, nondecreasing=nd)

    def weight_at(self, ell: float) -> WeightFunction:
        _check_index(ell)
        if self.kind == "exponential":
            return Scaled(ell, self.base)
        if self.kind == "dilatation":
            return Dilated(ell, self.base)
        for l, w in self.entries:
            if math.isclose(l, ell, rel_tol=1e-12):
                return w
        raise ValidationFailed(f"index {ell:g} not present in the explicit matrix")

    def indices(self, ell_grid, extended=False):
        if self.kind == "explicit":
            return tuple(l for l, _ in self.entries)
        return tuple(_EXTENDED_ELL_GRID) if extended else tuple(ell_grid)

    def _at(self, ells, args):
        """w^ell(t) for the indices `ells` and the arguments `args`, broadcast
        against each other, read with one evaluation of the base (of each
        entry an index names, for an explicit matrix).  Each value is bit for
        bit weight_at(ell).evaluate(t); a read that cannot be done raises a
        WeightlabError, not always the one weight_at(ell) would raise."""
        ells = np.asarray(ells, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == "dilatation":
                return self.base.evaluate(ells * args)
            if self.kind == "exponential":
                out = ells * self.base.evaluate(args)
                if out.size and out.max() == math.inf:
                    raise NonFinite("non-finite weight value encountered")
                return out
        entries = np.unique(ells)
        ells, args = np.broadcast_arrays(ells, args)
        out = np.empty(ells.shape)
        for ell in entries:
            at = ells == ell
            out[at] = self.weight_at(ell).evaluate(args[at])
        return out

    def _rows(self, ells, args):
        """The rows w^ell(args) for the indices `ells`, as one
        (len(ells), len(args)) array read by `_at`.  One row raises that
        weight's own error: a dilated row is read as weight_at(ell), whose
        horizon error names its own corners; a block that cannot be read
        is read again row by row through `core.Rows`."""
        if self.kind == "dilatation" and len(ells) == 1:
            return self.weight_at(ells[0]).evaluate(args)[None]
        for ell in ells:
            _check_index(ell)
        return self._at(np.asarray(ells, dtype=float)[:, None], args)

    def verify_pointwise_order(self, ell_grid=DEFAULT_ELL_GRID, grid=DEFAULT_GRID):
        tg = grid.points()
        ells = sorted(self.indices(ell_grid))
        if self.kind == "exponential":
            _check_exponential(self.base, ells, tg)
            return
        # the pairs below a row that cannot be read are checked first
        rows, err = Rows(self._rows, tg).block(ells)
        _check_order(tg, rows)
        if err is not None:
            raise err


def _check_index(ell):
    if ell <= 0:
        raise ValidationFailed("matrix index must be positive")
    if not math.isfinite(ell):
        raise ValidationFailed("matrix index must be finite")


def _check_exponential(base, ells, tg):
    """The order check of the rows ell * base(tg) for the sorted indices
    `ells`, from one read of the base.  With w = base(tg) finite and >= 0,
    fl(l1 w) <= fl(l2 w) for 0 < l1 < l2, rounding being monotone, so the
    rows are in order and only a read can fail: the error is the one the
    row-by-row read meets first, at the first index that is not valid,
    the base's own, or NonFinite at the first index where ell * w
    overflows."""
    if not ells:
        raise EmptyInput("no matrix indices to read")
    peak = None
    for ell in ells:
        _check_index(ell)
        if peak is None:
            peak = float(base.evaluate(tg).max())
        if ell * peak == math.inf:
            raise NonFinite("non-finite weight value encountered")


def _check_order(tg, rows):
    """ValidationFailed at the first t of the first pair of adjacent rows
    where the lower row exceeds the upper one beyond its tolerance."""
    if len(rows) < 2:
        return
    upper = rows[1:]
    tol = 1e-9 * (1.0 + np.abs(upper).max(axis=1))
    bad = rows[:-1] > upper + tol[:, None]
    pairs = bad.any(axis=1)
    if pairs.any():
        k = int(np.argmax(bad[np.argmax(pairs)]))
        raise ValidationFailed(f"matrix order violated at t={tg[k]:g} between indices")


class RelationVerdict(Record):
    __slots__ = ("verdict", "rel", "index_map")
    _defaults = {"index_map": None}

    @property
    def holds(self):
        return self.verdict.holds

    @property
    def fails(self):
        return self.verdict.fails

    @property
    def inconclusive(self):
        return self.verdict.inconclusive


# ---------------------------------------------------------------------------
# bounded-gap machinery shared by all relation checks
# ---------------------------------------------------------------------------

def _decade_sups(d, edges):
    """The suprema of d over the decades that start at `edges`, early
    decades first."""
    return np.maximum.reduceat(d, edges).astype(float).tolist()


class _Gaps:
    """The bounded-gap rule on each row d of a (k x n) block of gaps D on
    the sorted grid tg, from the suprema a, b, c of d over the last three
    decades: d is growing when b and c each rise by more than 5 % (at
    least 1e-9), and the row holds, with C the smallest power of two at
    least max(sup d, 1), when d is not growing and C <= 2^40.  The block
    costs two reductions, its decade suprema and its row peaks, each read
    once as Python floats; the rule then runs row by row on those, and
    NaN compares false, so a row with an inf or NaN peak never holds.
    `held` lists whether each row holds; a row's C and verdict are found
    when asked for."""

    def __init__(self, tg, D, edges, what="gap"):
        require_decades(edges, 3)
        self.tg, self.D, self.what = tg, D, what
        self.sups = np.maximum.reduceat(D, edges[-3:], axis=1).tolist()
        self.peak = D.max(axis=1).tolist()
        self.growing = [c > b + max(1e-9, 0.05 * abs(b)) and b > a + max(1e-9, 0.05 * abs(a))
                        for a, b, c in self.sups]
        self.held = [p <= _C_MAX and not g for p, g in zip(self.peak, self.growing)]

    def C(self, i):
        """C of row i, or the list of C of the rows of a slice i, each a
        row that holds."""
        if isinstance(i, slice):
            return [_power_of_two_at_least(p) for p in self.peak[i]]
        return _power_of_two_at_least(self.peak[i])

    def verdict(self, i):
        peak, sups, what = self.peak[i], self.sups[i], self.what
        a, b, c = sups
        if self.growing[i] and c > 0 and c >= 1.2 * max(b, 1e-300) \
                and b >= 1.2 * max(a, 1e-300):
            k = int(np.argmax(self.D[i]))
            return fails({"t": float(self.tg[k]), what: peak, "decade_sups": sups},
                         margin=peak, notes=f"{what} grows by >=20% per decade")
        if self.held[i]:
            C = self.C(i)
            return holds({"C": C, "decade_sups": sups}, margin=C - peak)
        return inconclusive(margin=peak, notes=f"{what} trend undecided at horizon")


# the largest C of the bounded-gap rule
_C_MAX = float(_C_GRID[-1])


def _power_of_two_at_least(x):
    """The smallest power of two >= max(x, 1), exactly, for x <= 2^40."""
    m, e = math.frexp(max(x, 1.0))
    return math.ldexp(1.0, e - 1 if m == 0.5 else e)


def _bounded_gap(tg, d, edges, what="gap"):
    """Verdict on sup d < oo from the decade trend of d."""
    return _Gaps(tg, d[None], edges, what).verdict(0)


def _ratio_vanishes(tg, s, t, edges):
    """tau/sigma -> 0, tested on decade suprema of the damped ratio."""
    with np.errstate(invalid="ignore"):
        r = t / (s + 1.0)
    sups = _decade_sups(r, require_decades(edges, 3))
    peak, last = float(max(sups)), float(sups[-1])
    if peak <= 1e-12:
        return holds({"ratio_sup": peak}, margin=-peak)
    if last <= 0.5 * peak and sups[-1] <= sups[-2] <= sups[-3]:
        consts = {f"eps={eps}": float(np.max(t - eps * s))
                  for eps in _EPS_GRID}
        return holds({"eps_constants": consts, "decade_sups": sups},
                     margin=0.5 * peak - last)
    if last >= 0.9 * peak:
        k = int(np.argmax(r))
        return fails({"t": float(tg[k]), "ratio": float(r[k]),
                      "decade_sups": sups},
                     notes="tau/sigma shows no decay across the horizon")
    return inconclusive(notes="ratio decays too slowly to classify")


# ---------------------------------------------------------------------------
# scalar comparisons
# ---------------------------------------------------------------------------

def compare(sigma: WeightFunction, tau: WeightFunction, rel: str,
            grid: GridSpec = DEFAULT_GRID) -> RelationVerdict:
    if rel not in RELATIONS:
        raise UnknownRelation(f"unknown relation {rel!r}")
    edges = grid.require_decades(3)
    tg = grid.points()
    s = np.asarray(sigma.evaluate(tg))
    t = np.asarray(tau.evaluate(tg))
    return RelationVerdict(_relation(sigma, tau, rel, tg, s, t, edges), rel)


def _relation(sigma, tau, rel, tg, s, t, edges) -> Verdict:
    """The verdict on sigma rel tau, with s = sigma(tg), t = tau(tg) and
    edges = decade_starts(tg)."""
    if rel == "le":
        tol = 1e-12 * (1.0 + float(np.max(np.abs(s))))
        bad = t > s + tol
        if np.any(bad):
            k = int(np.argmax(bad))
            return fails({"t": float(tg[k]), "sigma": float(s[k]), "tau": float(t[k])})
        return holds({"pointwise": True}, margin=float(np.min(s - t)))

    if rel == "preceq":
        # tau <= C sigma + C: bounded ratio tau/(sigma+1)
        with np.errstate(invalid="ignore"):
            r = t / (s + 1.0)
        return _bounded_gap(tg, r, edges, "ratio")

    if rel in ("sim", "sim_c"):
        one_way = {"sim": "preceq", "sim_c": "preceq_c"}[rel]
        return conjunction({"forward": _relation(sigma, tau, one_way, tg, s, t, edges),
                            "backward": _relation(tau, sigma, one_way, tg, t, s, edges)})

    if rel == "triangle":
        # the eps-quantified bound is equivalent to tau/sigma -> 0, which is
        # scale-free and immune to eps-dependent crossover points beyond the
        # grid horizon
        return _ratio_vanishes(tg, s, t, edges)

    if rel == "preceq_c":
        return _dilation_dom(sigma, tg, s, t, edges)

    # triangle_c, the last of RELATIONS
    gaps = _Gaps(tg, t - _dilations(sigma, tg, s).all(_EPS_GRID), edges)
    return conjunction({f"eps={eps}": gaps.verdict(i) for i, eps in enumerate(_EPS_GRID)})


def _dilations(sigma, tg, s):
    """The rows sigma(C tg) of sigma's dilatation matrix, the row C = 1 being
    s = sigma(tg); a row that cannot be read keeps sigma's own error."""
    rows = dilations(sigma, tg)
    rows.rows[1.0] = s
    return rows


def _dilation_dom(sigma, tg, s, t, edges):
    """tau(t) <= sigma(C1 t) + C2 for some C1, C2; s = sigma(tg), t = tau(tg).
    The factors C1 = 1, 2, 4, ..., 2^12 are tested in chunks, as a partner
    search tests its candidates, and the first that holds is kept."""
    for chunk, block in _dilations(sigma, tg, s).doubling(_C1_GRID):
        gaps = _Gaps(tg, t - block, edges)
        if True in gaps.held:
            i = gaps.held.index(True)
            v = gaps.verdict(i)
            return holds({"C1": chunk[i], "C2": v.certificate["C"]}, margin=v.margin)
    # dilation-insensitive divergence: doubling C1 no longer helps, and the
    # gap still grows between decades -- certifies failure (the last two
    # rows are the factors 2^11 and 2^12)
    prev_peak, last_peak = gaps.peak[-2:]
    if last_peak > 0 and abs(prev_peak - last_peak) <= 0.1 * abs(last_peak) \
            and gaps.verdict(-1).fails:
        k = int(np.argmax(gaps.D[-1]))
        return fails({"t": float(tg[k]), "gap": float(gaps.D[-1][k]),
                      "C1_max": _C1_GRID[-1]},
                     notes="gap diverges and is insensitive to further dilation")
    return inconclusive(notes="no dilation factor up to 2^12 certified")


# ---------------------------------------------------------------------------
# bridges between the affine and dilation-style relations
# ---------------------------------------------------------------------------

def bridge_check(sigma: WeightFunction, tau: WeightFunction,
                 grid: GridSpec = DEFAULT_GRID):
    """Consistency of the four scalar relations with the doubling conditions.

    When one of the two weights is doubling with slack (om6), the affine
    relation transfers to the dilation form; when one is doubling (om1),
    the reverse transfers hold.  A certified violation of any of these
    one-way streets means a checker bug, reported as BridgeViolation.
    """
    from . import conditions
    from .conditions import ConsistencyReport

    if not (sigma.nondecreasing and tau.nondecreasing):
        raise NotMonotone("bridge_check requires nondecreasing weights")

    # "either sigma or tau" suffices for both hypotheses
    om1_any = _any_holds(conditions.check_condition(sigma, "om1", grid),
                         conditions.check_condition(tau, "om1", grid))
    om6_any = _any_holds(conditions.check_condition(sigma, "om6", grid),
                         conditions.check_condition(tau, "om6", grid))

    rels = {r: compare(sigma, tau, r, grid).verdict
            for r in ("preceq", "preceq_c", "triangle", "triangle_c")}

    links = [("om6", "preceq", "preceq_c"),
             ("om1", "preceq_c", "preceq"),
             ("om1", "triangle", "triangle_c"),
             ("om6", "triangle_c", "triangle")]
    hyp = {"om1": om1_any, "om6": om6_any}
    edges = []
    for h, a, b in links:
        applicable = hyp[h].holds and rels[a].holds
        if applicable and rels[b].fails:
            raise BridgeViolation(
                f"{h} holds and {a} holds but {b} fails for this pair")
        edges.append({"hypothesis": h, "from": a, "to": b,
                      "applicable": applicable})
    items = {**{f"rel_{k}": v for k, v in rels.items()},
             "om1_any": om1_any, "om6_any": om6_any}
    return ConsistencyReport(items=items, edges=edges)


def _any_holds(v1: Verdict, v2: Verdict) -> Verdict:
    if v1.holds or v2.holds:
        which = "first" if v1.holds else "second"
        src = v1 if v1.holds else v2
        return holds({"which": which, "inner": src.certificate})
    if v1.fails and v2.fails:
        return fails({"both": [v1.witness, v2.witness]})
    return inconclusive(notes="neither side certified")


# ---------------------------------------------------------------------------
# matrix-level relations
# ---------------------------------------------------------------------------

def _partner_search(outer, cands, outer_rows, cand_rows, gap, tg, edges):
    """For every o in `outer`, the first c in the nonempty list `cands`
    whose gap(outer_rows(o), cand_rows(c)) is certified bounded on tg,
    whose decades start at `edges`.

    The outer rows are read as one block and tested against the first
    candidate in blocks of at most core._BLOCK // len(tg) rows.  An outer
    index that does not hold there tests the later candidates in chunks of
    2, 4, 8, ..., one block of gaps per chunk, and keeps the first that
    holds, as a loop over them does; a row that cannot be read raises once
    that loop, outer row first, reaches it.  Returns ({o: (c, C)}, None,
    None), or (None, o, None) for the first o without a partner.
    """
    found = {}
    rows, err = outer_rows.block(outer)
    step = max(1, _BLOCK // len(tg))
    for lo in range(0, len(rows), step):
        first = _Gaps(tg, gap(rows[lo:lo + step], cand_rows.all(cands[:1])), edges)
        for i, row in enumerate(rows[lo:lo + step]):
            o = outer[lo + i]
            if first.held[i]:
                found[o] = (cands[0], first.C(i))
                continue
            for chunk, block in cand_rows.doubling(cands[1:], 2):
                gaps = _Gaps(tg, gap(row, block), edges)
                if True in gaps.held:
                    k = gaps.held.index(True)
                    found[o] = (chunk[k], gaps.C(k))
                    break
            else:
                return None, o, None
    if err is not None:
        raise err
    return found, None, None


def _every_pair(outer, cands, outer_rows, cand_rows, gap, tg, edges):
    """Whether gap(outer_rows(o), cand_rows(c)) is certified bounded on tg
    for every o in `outer` and c in the list `cands`, read and tested as
    in `_partner_search` but with each o's candidates as one block.
    Returns ({(o, c): (c, C)}, None, None), or (None, (o, c), v) for the
    first pair in that order that does not hold, v being its verdict."""
    found = {}
    rows, err = outer_rows.block(outer)
    for o, row in zip(outer, rows):
        block, cand_err = cand_rows.block(cands)
        gaps = _Gaps(tg, gap(row, block), edges)
        if False in gaps.held:
            i = gaps.held.index(False)
            return None, (o, cands[i]), gaps.verdict(i)
        found.update(((o, c), (c, C)) for c, C in zip(cands, gaps.C(slice(None))))
        if cand_err is not None:
            raise cand_err
    if err is not None:
        raise err
    return found, None, None


def _minus_from(a, b):
    return b - a


def _matrix_search(S, T, rel, ell_grid, grid):
    """The partner search behind `rel`, on rows T minus rows S over grid."""
    tg, edges = grid.points(), grid.decade_starts()
    tau, sig = Rows(T._rows, tg), Rows(S._rows, tg)
    s_idx, t_idx = sorted(S.indices(ell_grid)), sorted(T.indices(ell_grid))
    if rel == "beurling":
        s_ext = sorted(S.indices(ell_grid, extended=True))
        return _partner_search(t_idx, s_ext, tau, sig, np.subtract, tg, edges)
    if rel == "roumieu":
        t_ext = sorted(T.indices(ell_grid, extended=True))
        # pairs read T's row first: if both rows fail, T's error wins
        tau.all(t_ext[:1])
        return _partner_search(s_idx, t_ext, sig, tau, _minus_from, tg, edges)
    return _every_pair(t_idx, s_idx, tau, sig, np.subtract, tg, edges)


def _germ_refutation(S, T, rel, ell_grid):
    """`fails` on a mixed-kind pair whose T base has a germ above its S
    base's, else None.  Both kinds of row of a base of germ (a, b) are
    equivalent to t^a (log t)^b whatever ell > 0 is, and those of an "exp"
    base outgrow every t^a, so every tau^ell / sigma^n tends to infinity
    and no gap tau^ell - sigma^n is bounded."""
    if {S.kind, T.kind} != {"exponential", "dilatation"}:
        return None
    gs, gt = S.base.germ, T.base.germ
    if not germ_above(gt, gs):
        return None
    v = fails({"germ_sigma": gs, "germ_tau": gt},
              notes="tau's growth order exceeds sigma's, so no index pair "
                    "has a bounded gap")
    if rel != "triangle":
        return RelationVerdict(v, rel)
    return RelationVerdict(v, rel, {"ell": min(T.indices(ell_grid)),
                                    "n": min(S.indices(ell_grid))})


def _reduction(S, T, rel, grid):
    if S.kind != T.kind or S.kind == "explicit":
        return None, None
    base = "triangle" if rel == "triangle" else "preceq"
    if S.kind == "dilatation":
        base += "_c"
    return compare(S.base, T.base, base, grid).verdict, base


def matrix_relation(S: WeightMatrix, T: WeightMatrix, rel: str,
                    ell_grid=DEFAULT_ELL_GRID,
                    grid: GridSpec = DEFAULT_GRID) -> RelationVerdict:
    if rel not in MATRIX_RELATIONS:
        raise UnknownRelation(f"unknown matrix relation {rel!r}")
    S.verify_pointwise_order(ell_grid, grid)
    T.verify_pointwise_order(ell_grid, grid)
    if not math.isfinite(grid.t_max * 1e6):
        raise ValidationFailed(f"t_max = {grid.t_max:g} is too large: the partner search "
                               "reads up to t_max * 1e6, past the double range")
    by_germ = _germ_refutation(S, T, rel, ell_grid)
    if by_germ is not None:
        return by_germ
    # pair certificates are checked far beyond the reporting grid: a large
    # partner index can push the crossover point out by many decades
    search = GridSpec(grid.t_min, grid.t_max * 1e6, 2 * grid.n_points)

    red, red_name = _reduction(S, T, rel, grid)
    found, binding, v = _matrix_search(S, T, rel, ell_grid, search)
    refuted = red is not None and red.fails

    if binding is not None:
        if rel == "triangle":
            ell, n = binding
            if not v.fails:
                return RelationVerdict(inconclusive(
                    notes=f"pair (ell={ell}, n={n}) undecided"), rel)
            if red is not None and red.holds:
                raise ValidationFailed(
                    f"direct triangle search fails but the {red_name} "
                    "reduction holds")
            return RelationVerdict(v, rel, {"ell": ell, "n": n})
        if refuted:
            return RelationVerdict(
                fails({"binding_index": binding,
                       "reduction": red.witness},
                      notes=f"no partner index found; {red_name} reduction fails"),
                rel)
        raise IndexSearchExhausted(binding)

    # the reduction is an exact equivalence, so partners found where it
    # refutes are a horizon artifact, and it wins; ROADMAP item 14 revisits
    # this rule, whose reduction reads a shorter grid than the search
    if refuted:
        return RelationVerdict(
            fails({"reduction": red.witness},
                  notes=f"scalar {red_name} reduction refutes {rel}; "
                        "direct index map discarded as a horizon artifact"),
            rel)
    if rel == "triangle":
        return RelationVerdict(holds({"pairs": len(found)}), rel,
                               {str(k): C for k, (_, C) in found.items()})
    partner = "n" if rel == "beurling" else "ell"
    index_map = {o: {partner: c, "C": C} for o, (c, C) in found.items()}
    return RelationVerdict(holds({"indices_covered": len(index_map)}), rel, index_map)


def mixed_doubling_search(S, T, outer, tg):
    """For each ell in `outer` the first n with tau^ell(2t) <= sigma^n(t) + L.

    Returns ({ell: {"n": n, "L": L}}, None), or (None, ell) for the first
    ell without a partner.
    """
    s_ext = sorted(S.indices(DEFAULT_ELL_GRID, extended=True))
    found, binding, _ = _partner_search(outer, s_ext, Rows(T._rows, 2 * tg),
                                        Rows(S._rows, tg), np.subtract, tg, decade_starts(tg))
    if found is None:
        return None, binding
    return {ell: {"n": n, "L": L} for ell, (n, L) in found.items()}, None
