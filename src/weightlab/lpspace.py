"""Discretized weighted L^p norms and the constructive witness functions.

All functions are radial profiles f(t) >= 0 on [0, T] in dimension d, with

    ||f||_{p,w} = ( int_0^T f(t)^p e^{w(t)} c_d t^{d-1} dt )^{1/p},
    ||f||_{oo,w} = sup_t f(t) e^{w(t)},

where c_d = d pi^{d/2} / Gamma(1 + d/2) is the sphere-measure factor
(c_1 = 2, both half-lines).  Everything is computed in the log domain so
that huge exponents never overflow.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import relations
from .core import _BLOCK, GridSpec, Rows, WeightFunction, _require_count
from .errors import (HorizonTooSmall, NonFinite, ValidationFailed, WeightlabError,
                     WitnessConstructionFailed)
from .relations import WeightMatrix
from .verdict import Record, holds, inconclusive, to_json

__all__ = [
    "SampledFunction",
    "NormResult",
    "sphere_factor",
    "weighted_norm",
    "theta_function",
    "nontriviality_witness",
    "inclusion_experiment",
    "ExperimentReport",
]

DEFAULT_NORM_GRID = GridSpec(0.0, 60.0, 6001, spacing="linear")


def sphere_factor(d: int) -> float:
    """Surface measure constant c_d = d pi^{d/2} / Gamma(1 + d/2)."""
    return d * math.pi ** (d / 2) / math.gamma(1 + d / 2)


class SampledFunction:
    """Nonnegative radial profile sampled at strictly increasing radii.

    The radii and values may be given as any sequence; they are stored as
    read-only float arrays."""

    __slots__ = ("ts", "values", "d", "label")

    def __init__(self, ts, values, d: int = 1, label: str = ""):
        ts = np.array(ts, dtype=float)
        vals = np.array(values, dtype=float)
        if ts.size == 0 or ts.size != vals.size:
            raise ValidationFailed("need matching nonempty radius/value arrays")
        if np.any(np.diff(ts) <= 0):
            raise ValidationFailed("radii must be strictly increasing")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValidationFailed("sample values must be finite and >= 0")
        _require_count(d, "dimension", 1)
        ts.flags.writeable = False
        vals.flags.writeable = False
        self.ts = ts
        self.values = vals
        self.d = d
        self.label = label

    @classmethod
    def from_log_values(cls, ts, log_values, d: int = 1, label: str = ""):
        vals = np.exp(np.minimum(np.asarray(log_values, dtype=float), 0.0))
        return cls(ts, vals, d, label)

    def log_value_array(self):
        with np.errstate(divide="ignore"):
            return np.log(self.values)


class NormResult(Record):
    """kind: "finite" | "divergent"."""

    __slots__ = ("p", "kind", "value", "error_estimate", "evidence")
    _defaults = {"value": None, "error_estimate": None, "evidence": ""}

    @property
    def divergent(self):
        return self.kind == "divergent"

    def to_dict(self):
        return to_json({"p": None if math.isinf(self.p) else self.p, "kind": self.kind,
                        "value": self.value, "error_estimate": self.error_estimate,
                        "evidence": self.evidence})


def _check_exponent(p):
    if p != math.inf and not 1 <= p < math.inf:
        raise ValidationFailed("p must be in [1, oo]")


def weighted_norm(f: SampledFunction, w: WeightFunction, p) -> NormResult:
    """||f||_{p,w} on the sample grid (p in [1, oo])."""
    _check_exponent(p)
    return _Norms([f], p)(np.asarray(w.evaluate(f.ts)))[0]


def _sup_norm(ts, log_terms, p):
    """||f||_{oo,w} from log_terms = log f + w on the radii ts."""
    fin = np.isfinite(log_terms)
    if not np.any(fin):
        return NormResult(p, "finite", 0.0, 0.0)
    peak = float(np.max(log_terms[fin]))
    if peak > 700.0:
        return NormResult(p, "divergent", evidence=f"log supremum {peak:g}")
    # a supremum attained "at infinity": the log terms still climb at
    # the right edge of the grid
    T = ts[fin][-1]
    half = fin & (ts >= T / 2)
    if np.count_nonzero(half) >= 3:
        tail = log_terms[half]
        if tail[-1] >= float(np.max(tail[:3])) + 0.5 and tail[-1] >= tail[-3]:
            return NormResult(
                p, "divergent",
                evidence=f"sup still climbing at the grid edge "
                         f"(log level {tail[-1]:.3g})")
    return NormResult(p, "finite", math.exp(peak), 0.0)


class _Norms:
    """Weighted norms of sampled functions that share their radii and
    dimension.  What the norms need of the functions (log f, p log f, the
    final decade of each support) and of the radii (the (d - 1) log t
    term, the trapezoid spacings) is computed once; each call takes the
    samples of a weight on the radii, one row for all the functions or one
    row per function, and gives a NormResult per row, each computed as
    weighted_norm computes it."""

    def __init__(self, fns, p):
        f = fns[0]
        self.ts, self.d, self.p = f.ts, f.d, p
        self.logf = np.stack([g.log_value_array() for g in fns])
        if p == math.inf:
            return
        ts = self.ts
        with np.errstate(divide="ignore", invalid="ignore"):
            self.plogf = p * self.logf
            self.radial = (f.d - 1) * np.log(np.where(ts > 0, ts, 1.0))
        self.log_cd = math.log(sphere_factor(f.d))
        # the divergence trend: the integrand must decay over the final
        # decade of radii where the function is supported
        self.window = np.zeros(self.logf.shape, dtype=bool)
        for win, logf in zip(self.window, self.logf):
            sup_ts = ts[np.isfinite(logf)]
            if sup_ts.size:
                T = sup_ts[-1]
                win[:] = (ts >= max(T * 0.9, T - 5.0)) & (ts <= T)
        self.steps, self.coarse_steps = np.diff(ts), np.diff(ts[::2])

    def __call__(self, wt) -> list:
        p, ts = self.p, self.ts
        if p == math.inf:
            return [_sup_norm(ts, row, p) for row in np.atleast_2d(self.logf + wt)]
        wt = np.atleast_2d(wt)
        # a few rows at a time, each temporary within core._BLOCK doubles;
        # a single row stands for every row
        step = max(1, _BLOCK // ts.size)
        out = []
        for r in range(0, max(len(self.logf), len(wt)), step):
            out += self._block(*(a if len(a) == 1 else a[r:r + step]
                                 for a in (self.plogf, wt, self.window)))
        return out

    def _block(self, plogf, wt, window):
        p, ts = self.p, self.ts
        with np.errstate(divide="ignore", invalid="ignore"):
            log_int = plogf + wt + self.log_cd + self.radial
        if self.d > 1:
            log_int[:, ts == 0] = -math.inf
        finite = np.isfinite(log_int)
        found = finite.any(axis=1)
        shift = np.where(found, np.where(finite, log_int, -math.inf).max(axis=1), 0.0)
        last = finite & window
        count = np.count_nonzero(last, axis=1)
        rows = np.arange(len(log_int))
        head = log_int[rows, last.argmax(axis=1)]
        tail = log_int[rows, last.shape[1] - 1 - last[:, ::-1].argmax(axis=1)]
        dens = np.where(finite, np.exp(log_int - shift[:, None]), 0.0)
        total = (self.steps * (dens[:, 1:] + dens[:, :-1]) / 2.0).sum(axis=1)
        dens = dens[:, ::2]
        coarse = (self.coarse_steps * (dens[:, 1:] + dens[:, :-1]) / 2.0).sum(axis=1)
        out = []
        for k, sh, n, hd, tl, tot, crs in zip(found.tolist(), shift.tolist(), count.tolist(),
                                               head, tail, total.tolist(), coarse.tolist()):
            if not k:
                out.append(NormResult(p, "finite", 0.0, 0.0))
            elif n >= 3 and tl >= hd - 1e-12 and tl - sh > -30:
                out.append(NormResult(
                    p, "divergent",
                    evidence=f"integrand nondecreasing near the grid edge "
                             f"(log level {tl:.3g})"))
            elif tot <= 0:
                out.append(NormResult(p, "finite", 0.0, 0.0))
            else:
                log_ip = sh + math.log(tot)
                value = math.exp(log_ip / p) if log_ip / p < 700 else math.inf
                if math.isfinite(value):
                    out.append(NormResult(p, "finite", value, abs(tot - crs) / tot))
                else:
                    out.append(NormResult(p, "divergent",
                                          evidence=f"norm exponent {log_ip / p:g} overflows"))
        return out


# ---------------------------------------------------------------------------
# theta functions
# ---------------------------------------------------------------------------

def theta_function(w: WeightFunction, p, grid: GridSpec = DEFAULT_NORM_GRID,
                   d: int = 1) -> SampledFunction:
    """theta^p_w = e^{-w/p} (p < oo) or e^{-w} (p = oo)."""
    _check_exponent(p)
    ts = grid.points()
    return _theta(ts, np.asarray(w.evaluate(ts)), p, d)


def _theta(ts, wt, p, d):
    """theta^p from the samples wt of the weight on the radii ts."""
    scale = 1.0 if p == math.inf else 1.0 / p
    return SampledFunction.from_log_values(ts, -scale * wt, d,
                                           label=f"theta_p{p}")


# ---------------------------------------------------------------------------
# nontriviality witness
# ---------------------------------------------------------------------------

class MembershipReport(Record):
    """rows: ((ell, NormResult), ...)."""

    __slots__ = ("rows", "all_finite", "exponents")
    _defaults = {"exponents": None}

    def to_dict(self):
        return to_json({"rows": [{"ell": l, "norm": r} for l, r in self.rows],
                        "all_finite": self.all_finite, "exponents": self.exponents})


def nontriviality_witness(W: WeightMatrix, p, t_max: float = 40.0,
                          d: int = 1, test_indices=(1.0, 2.0, 4.0)):
    """A strictly positive profile lying in every tested weighted space.

    The profile decays block-by-block: on radii [n, n+1) it uses the matrix
    row n+1, squared for p = oo and raised to a tailored power a_n * b_n
    for p < oo so that the extra decay beats both the weight and the
    volume growth.
    """
    if not W.nondecreasing:
        raise ValidationFailed("witness construction needs a nondecreasing matrix")
    if not math.isfinite(t_max):
        raise ValidationFailed("t_max must be finite")
    n_max = int(t_max)
    ts = np.linspace(0.0, t_max, max(int(t_max * 100) + 1, 200))

    # n0: first block where the smallest relevant row clears level 1
    n0 = None
    for n in range(1, n_max + 1):
        if float(W.weight_at(1.0).evaluate(float(n))) > 1.0:
            n0 = n
            break
    if n0 is None:
        raise WitnessConstructionFailed(n_max)

    log_psi = np.zeros_like(ts)
    exponents = {}
    # block n is [n, n + 1) of the sorted radii, the last one [n_max, oo),
    # and reads row n + 1 there and, for p < oo, at max(n, n0) and n + 1
    starts = np.searchsorted(ts, np.arange(n_max + 1), side="left").tolist() + [ts.size]
    blocks = [n for n in range(n_max + 1) if starts[n] < starts[n + 1]]
    at = _witness_reads(W, ts, starts, blocks, n0, p)
    for j, n in enumerate(blocks):
        blk = slice(starts[n], starts[n + 1])
        wvals = at(n, ts[blk], blk)
        if p == math.inf:
            log_psi[blk] = -wvals ** 2
        else:
            base = float(at(n, float(max(n, n0)), ts.size + j))
            if base <= 1.0:
                log_psi[blk] = -wvals  # before n0 plain decay suffices
                continue
            a_n = max(1.0, math.log(2 * (d + 1) * math.log(2.0 + n))
                      / math.log(base))
            b_n = max(1.0, (a_n * math.log(max(
                float(at(n, float(n + 1), ts.size + len(blocks) + j)), base)) + math.log(2.0))
                / math.log(base))
            exponents[n] = {"a_n": a_n, "b_n": b_n}
            log_psi[blk] = -(wvals ** (a_n * b_n)) / p
    psi = SampledFunction.from_log_values(ts, log_psi, d, label="psi_witness")

    # the tested rows as one block, and their norms as one
    norms = []
    if len(test_indices):
        _check_exponent(p)
        norms = _Norms([psi], p)(Rows(W._rows, ts).all(test_indices))
    rows = tuple(zip(test_indices, norms))
    ok = not any(res.divergent for res in norms)
    return psi, MembershipReport(rows, ok, exponents or None)


def _witness_reads(W, ts, starts, blocks, n0, p):
    """(n, t, k) -> W^(n+1)(t), for the reads of the witness's loop over
    its blocks: row n + 1 on the radii of block n, at k = that block's
    slice of ts, and for p < oo row n + 1 at max(n, n0) and at n + 1, at
    k = len(ts) + j and len(ts) + len(blocks) + j, block n being
    blocks[j].  All are read with one `WeightMatrix._at`, whose values are
    the rows' own bit for bit; if that read cannot be done, each is read
    alone, through weight_at, when the loop asks for it, so the error is
    the one the loop over the blocks meets first."""
    ells = np.repeat(np.arange(1.0, len(starts)), np.diff(starts))
    args = ts
    if p != math.inf:
        rows = np.array(blocks, dtype=float) + 1
        ells = np.concatenate([ells, rows, rows])
        args = np.concatenate([ts, np.maximum(rows - 1, n0), rows])
    try:
        read = W._at(ells, args)
    except WeightlabError:
        return lambda n, t, k: W.weight_at(float(n + 1)).evaluate(t)
    return lambda n, t, k: read[k]


# ---------------------------------------------------------------------------
# inclusion experiment
# ---------------------------------------------------------------------------

class ExperimentReport(Record):
    """The relation, its two doubling hypotheses and the norm rows that test
    it.  degraded: a hypothesis is not certified, or a row of the relation
    cannot be read on its grid, which leaves the relation inconclusive."""

    __slots__ = ("relation", "hypotheses", "degraded", "forward_rows", "converse_rows",
                 "all_ok")


def _battery(S: WeightMatrix, p, grid, d):
    ts = grid.points()
    fns = [_theta(ts, row, p, d) for row in Rows(S._rows, ts).all((0.5, 1.0, 2.0))]
    try:
        psi, _ = nontriviality_witness(S, p, t_max=min(grid.t_max, 40.0), d=d,
                                       test_indices=())
        fns.append(psi)
    except (ValidationFailed, WitnessConstructionFailed):
        pass
    fns.append(SampledFunction(ts, np.exp(-ts ** 2), d, "gaussian"))
    plateau = np.where(ts <= 1.0, 1.0, np.maximum(0.0, 2.0 - ts))
    fns.append(SampledFunction(ts, plateau, d, "plateau"))
    return fns


def _battery_norms(fns, p):
    """w -> (i -> the norm of fns[i] against w).  The functions are grouped
    by their radii and dimension; w is read on a group's radii when the
    first of its members is asked for, as a loop over the members reads
    it, and gives the norms of the whole group."""
    groups, where = [], []
    for f in fns:
        for g, members in enumerate(groups):
            if members[0].d == f.d and np.array_equal(members[0].ts, f.ts):
                break
        else:
            g, members = len(groups), []
            groups.append(members)
        where.append((g, len(members)))
        members.append(f)
    norms = [_Norms(members, p) for members in groups]

    def against(w):
        got = {}

        def norm(i):
            g, j = where[i]
            if g not in got:
                got[g] = norms[g](np.asarray(w.evaluate(norms[g].ts)))
            return got[g][j]
        return norm
    return against


def _mixed_doubling(M: WeightMatrix, tg):
    """The hypothesis that M has a doubling partner for ell = 1 on tg: holds
    with the index map, or inconclusive where no partner is found or a row
    cannot be read on tg, which leaves it undecided."""
    try:
        index_map, binding = relations.mixed_doubling_search(M, M, (1.0,), tg)
    except (HorizonTooSmall, NonFinite) as exc:
        return inconclusive(notes=f"{type(exc).__name__}: {exc}")
    if index_map:
        return holds({"index_map": index_map})
    return inconclusive(notes=f"undecided at ell={binding}")


def inclusion_experiment(S: WeightMatrix, T: WeightMatrix, p,
                         kind: str = "beurling",
                         grid: GridSpec = DEFAULT_NORM_GRID,
                         d: int = 1) -> ExperimentReport:
    """Norm-level evidence for the weighted-space inclusion S-classes into
    T-classes: a certified index relation must make every battery norm
    inequality pass, and a refuted relation must come with a theta function
    whose T-side norms diverge."""
    if kind not in ("beurling", "roumieu"):
        raise ValidationFailed("kind must be beurling or roumieu")
    _check_exponent(p)

    tg = GridSpec(1e-2, 1e6, 400).points()
    hypotheses = {f"mixed_doubling_{side}": _mixed_doubling(M, tg)
                  for side, M in (("S", S), ("T", T))}
    degraded = not all(h.holds for h in hypotheses.values())
    try:
        rel = relations.matrix_relation(S, T, kind, ell_grid=(0.5, 1.0, 2.0))
    except (HorizonTooSmall, NonFinite) as exc:
        rel = relations.RelationVerdict(inconclusive(notes=f"{type(exc).__name__}: {exc}"),
                                        kind)
        degraded = True

    forward_rows = []
    converse_rows = []
    all_ok = True

    if rel.holds and rel.index_map:
        battery = _battery(S, p, grid, d)
        norms = _battery_norms(battery, p)
        # the norms against each partner weight, kept by side and index:
        # entries often share a partner
        norms_of = functools.cache(lambda M, idx: norms(M.weight_at(idx)))
        for key, entry in rel.index_map.items():
            if kind == "beurling":
                ell, n, C = float(key), entry["n"], entry["C"]
            else:
                n, ell, C = float(key), entry["ell"], entry["C"]
            factor = math.exp(min(C if p == math.inf else C / p, 700))
            lhs_of, rhs_of = norms_of(T, ell), norms_of(S, n)
            for i, fn in enumerate(battery):
                lhs, rhs = lhs_of(i), rhs_of(i)
                if rhs.divergent:
                    ok = True   # the bound is vacuous for this member
                    lv, rv = None, None
                elif lhs.divergent:
                    # tau^ell <= sigma^n + C forces the sigma-side norm to
                    # diverge with the tau-side one; the tail test can miss
                    # that when the crossover lies past the norm grid, so
                    # fall back to checking the certificate pointwise
                    cg = np.geomspace(1e-2, 1e8, 400)
                    gap = (np.asarray(T.weight_at(ell).evaluate(cg))
                           - np.asarray(S.weight_at(n).evaluate(cg)) - C)
                    ok = bool(np.all(gap <= 1e-9 * (1.0 + abs(C))))
                    lv, rv = None, None
                else:
                    lv = lhs.value if not lhs.divergent else math.inf
                    rv = factor * rhs.value
                    ok = lv <= rv * (1 + 1e-6) + 1e-300
                forward_rows.append({"function": fn.label, "ell": ell, "n": n,
                                     "C": C, "lhs": lv, "rhs": rv, "ok": ok})
                all_ok = all_ok and ok
    elif rel.fails:
        th = theta_function(S.weight_at(1.0), p, grid, d)
        t_indices = (0.5, 1.0, 2.0, 4.0)
        for n, res in zip(t_indices, _Norms([th], p)(Rows(T._rows, th.ts).all(t_indices))):
            converse_rows.append({"function": th.label, "t_index": n,
                                  "kind": res.kind, "value": res.value})
        all_ok = all(row["kind"] == "divergent" for row in converse_rows)

    return ExperimentReport(rel, hypotheses, degraded,
                            tuple(forward_rows), tuple(converse_rows), all_ok)
