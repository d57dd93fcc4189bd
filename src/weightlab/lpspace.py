"""Discretized weighted L^p norms and the constructive witness functions.

All functions are radial profiles f(t) >= 0 on [0, T] in dimension d, with

    ||f||_{p,w} = ( int_0^T f(t)^p e^{w(t)} c_d t^{d-1} dt )^{1/p},
    ||f||_{oo,w} = sup_t f(t) e^{w(t)},

where c_d = d pi^{d/2} / Gamma(1 + d/2) is the sphere-measure factor
(c_1 = 2, both half-lines).  Everything is computed in the log domain so
that huge exponents never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import relations
from .core import GridSpec, WeightFunction
from .errors import (GridTooNarrow, NoViolationFound, OverflowUnrecoverable,
                     ValidationFailed, WitnessConstructionFailed)
from .relations import WeightMatrix
from .verdict import Verdict, fails, holds, inconclusive, report_dict, to_json

__all__ = [
    "SampledFunction",
    "NormResult",
    "sphere_factor",
    "weighted_norm",
    "theta_function",
    "theta_membership",
    "nontriviality_witness",
    "staircase_witness",
    "translation_bound_check",
    "inclusion_experiment",
    "ExperimentReport",
]

DEFAULT_NORM_GRID = GridSpec(0.0, 60.0, 6001, spacing="linear")


def sphere_factor(d: int) -> float:
    """Surface measure constant c_d = d pi^{d/2} / Gamma(1 + d/2)."""
    return d * math.pi ** (d / 2) / math.gamma(1 + d / 2)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Nonnegative radial profile sampled at strictly increasing radii.

    The radii and values may be given as any sequence; they are stored as
    read-only float arrays."""

    ts: np.ndarray
    values: np.ndarray
    d: int = 1
    label: str = ""

    def __post_init__(self):
        ts = np.array(self.ts, dtype=float)
        vals = np.array(self.values, dtype=float)
        if ts.size == 0 or ts.size != vals.size:
            raise ValidationFailed("need matching nonempty radius/value arrays")
        if np.any(np.diff(ts) <= 0):
            raise ValidationFailed("radii must be strictly increasing")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValidationFailed("sample values must be finite and >= 0")
        if self.d < 1:
            raise ValidationFailed("dimension must be >= 1")
        for name, arr in (("ts", ts), ("values", vals)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_log_values(cls, ts, log_values, d: int = 1, label: str = ""):
        vals = np.exp(np.minimum(np.asarray(log_values, dtype=float), 0.0))
        return cls(ts, vals, d, label)

    def t_array(self):
        return self.ts

    def value_array(self):
        return self.values

    def log_value_array(self):
        with np.errstate(divide="ignore"):
            return np.log(self.values)

    def scaled(self, c: float):
        return SampledFunction(self.ts, c * self.values, self.d, self.label)

    def translated(self, x0: float):
        """f(t - x0) resampled on the same radii; zero outside the data."""
        ts = self.t_array()
        vals = self.value_array()
        out = np.interp(ts - x0, ts, vals, left=0.0, right=0.0)
        # refuse silently truncating genuinely positive mass off the grid;
        # values below ~machine precision of the peak do not count as mass
        support = ts[vals > np.max(vals) * 1e-15]
        if support.size and support[-1] + x0 > ts[-1] + 1e-12:
            raise GridTooNarrow(
                f"translated support reaches {support[-1] + x0:g}, grid ends "
                f"at {ts[-1]:g}")
        return SampledFunction(self.ts, out, self.d,
                               f"{self.label}+{x0:g}" if self.label else "")


@dataclass(frozen=True)
class NormResult:
    p: float
    kind: str                      # "finite" | "divergent"
    value: float | None = None
    error_estimate: float | None = None
    evidence: str = ""

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
    ts = f.t_array()
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

    cd = sphere_factor(f.d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_int = p * logf + wt + math.log(cd) + (f.d - 1) * np.log(
            np.where(ts > 0, ts, 1.0))
    log_int[ts == 0] = -math.inf if f.d > 1 else log_int[ts == 0]
    finite = np.isfinite(log_int)
    if not np.any(finite):
        return NormResult(p, "finite", 0.0, 0.0)
    shift = float(np.max(log_int[finite]))
    if not math.isfinite(shift):
        raise OverflowUnrecoverable("integrand is infinite even in log scale")

    # divergence trend: the integrand must decay over the final decade of
    # radii where f is supported
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
        return NormResult(p, "divergent",
                          evidence=f"norm exponent {log_ip / p:g} overflows")
    return NormResult(p, "finite", value, err)


# ---------------------------------------------------------------------------
# theta functions
# ---------------------------------------------------------------------------

def theta_function(w: WeightFunction, p, grid: GridSpec = DEFAULT_NORM_GRID,
                   d: int = 1) -> SampledFunction:
    """theta^p_w = e^{-w/p} (p < oo) or e^{-w} (p = oo)."""
    ts = grid.points()
    wt = np.asarray(w.evaluate(ts))
    scale = 1.0 if p == math.inf else 1.0 / p
    return SampledFunction.from_log_values(ts, -scale * wt, d,
                                           label=f"theta_p{p}")


def theta_membership(W: WeightMatrix, p, ell: float, ellp: float,
                     grid: GridSpec = DEFAULT_NORM_GRID, d: int = 1) -> Verdict:
    """Does theta^p of row ell lie in the weighted L^p space of row ell'?"""
    th = theta_function(W.weight_at(ell), p, grid, d)
    res = weighted_norm(th, W.weight_at(ellp), p)
    if res.divergent:
        return fails({"ell": ell, "ell_prime": ellp, "evidence": res.evidence},
                     notes="weighted norm diverges")
    # exact prediction: for ell' <= ell and p = oo the sup is at most 1
    if p == math.inf and ellp <= ell and W.kind in ("exponential", "dilatation"):
        if res.value > 1.0 + 1e-9:
            raise ValidationFailed(
                f"sup bound 1 violated for ell'={ellp} <= ell={ell}: {res.value}")
    return holds({"norm": res.value, "error_estimate": res.error_estimate,
                  "ell": ell, "ell_prime": ellp})


# ---------------------------------------------------------------------------
# nontriviality witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    rows: tuple                # ((ell, NormResult), ...)
    all_finite: bool
    exponents: dict | None = None

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
                log_psi[blk] = -wvals  # before n0 plain decay suffices
                continue
            a_n = max(1.0, math.log(2 * (d + 1) * math.log(2.0 + n))
                      / math.log(base))
            b_n = max(1.0, (a_n * math.log(max(
                float(row.evaluate(float(n + 1))), base)) + math.log(2.0))
                / math.log(base))
            exponents[n] = {"a_n": a_n, "b_n": b_n}
            log_psi[blk] = -(wvals ** (a_n * b_n)) / p
    psi = SampledFunction.from_log_values(ts, log_psi, d, label="psi_witness")

    rows = []
    ok = True
    for ell in test_indices:
        res = weighted_norm(psi, W.weight_at(ell), p)
        rows.append((ell, res))
        ok = ok and not res.divergent
    return psi, MembershipReport(tuple(rows), ok, exponents or None)


# ---------------------------------------------------------------------------
# staircase witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaircaseReport:
    centers: tuple
    half_widths: tuple
    lp_mass: float
    weighted_divergent: dict     # ell -> bool, via exact partial sums
    partial_sums: dict

    to_dict = report_dict


def staircase_witness(W: WeightMatrix, p, n_blocks: int = 8, d: int = 1,
                      search_max: float = 1e14,
                      test_indices=(0.25, 1.0, 4.0)):
    """A unit-mass L^p function outside every weighted class.

    Blocks sit at radii x_n where row 1/n already exceeds n^2; block n
    carries exact L^p mass 2^{-n}, so the plain norm sums to about 1 while
    each weighted integrand picks up at least e^{n^2} 2^{-n} per block.
    Raises NoViolationFound when the rows stay too small (bounded system).
    """
    if p == math.inf or not 1 <= p < math.inf:
        raise ValidationFailed("staircase witness is an L^p construction, p < oo")
    cd = sphere_factor(d)

    centers = []
    x_prev = 0.0
    for n in range(1, n_blocks + 1):
        row = W.weight_at(1.0 / n)
        target = n * n
        xs = np.geomspace(max(x_prev + 2.0, 1.0), search_max, 4000)
        vals = np.asarray(row.evaluate(xs))
        above = vals > target
        if not np.any(above):
            raise NoViolationFound(
                f"row 1/{n} never exceeds {target} up to {search_max:g}; "
                "the system looks bounded at this horizon")
        x_n = float(xs[np.argmax(above)])
        centers.append(x_n)
        x_prev = x_n

    half = []
    for i, x in enumerate(centers):
        gap_l = x - (centers[i - 1] if i else 0.0)
        gap_r = (centers[i + 1] - x) if i + 1 < len(centers) else math.inf
        half.append(min(1.0, 0.45 * gap_l, 0.45 * gap_r))

    # exact block arithmetic
    Js = [cd * ((x + h) ** d - (x - h) ** d) / d for x, h in zip(centers, half)]
    lp_mass = sum(2.0 ** -(n + 1) for n in range(len(centers)))

    divergent = {}
    partial = {}
    for ell in test_indices:
        row = W.weight_at(ell)
        log_terms = []
        for n, (x, J) in enumerate(zip(centers, Js), start=1):
            # block value of |g|^p e^{w} integrated exactly over the block,
            # bounded below using the weight at the inner edge
            wmin = float(row.evaluate(x - half[n - 1]))
            log_terms.append(-n * math.log(2.0) + wmin)
        sums = np.logaddexp.accumulate(np.array(log_terms))
        partial[ell] = [float(s) for s in sums]
        divergent[ell] = bool(len(log_terms) >= 3
                              and log_terms[-1] > log_terms[-3]
                              and sums[-1] > 50)

    # sampled representation for plotting / norm checks
    ts, vals = [0.0], [0.0]
    for n, (x, h, J) in enumerate(zip(centers, half, Js), start=1):
        height = (2.0 ** n * J) ** (-1.0 / p)
        eps = min(h * 1e-6, 1e-6)
        ts += [x - h - eps, x - h, x + h, x + h + eps]
        vals += [0.0, height, height, 0.0]
    g = SampledFunction(ts, vals, d, label="staircase")

    return g, StaircaseReport(tuple(centers), tuple(half), lp_mass,
                              divergent, partial)


# ---------------------------------------------------------------------------
# translation bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslationReport:
    rows: tuple
    all_ok: bool
    hypothesis: Verdict

    to_dict = report_dict


def translation_bound_check(S: WeightMatrix, T: WeightMatrix,
                            f: SampledFunction, x0_set, p,
                            ells=(0.5, 1.0, 2.0),
                            grid: GridSpec = GridSpec(1e-2, 1e6, 400)):
    """Check ||f(. - x0)||_{p,tau^ell} <= e^L e^{sigma^n(x0)} ||f||_{p,sigma^n}.

    The partner index n and constant L come from the mixed doubling search
    between the two matrices; translated samples are extended by zero
    beyond the stored radii.
    """
    if not (S.nondecreasing and T.nondecreasing):
        raise ValidationFailed("translation bound requires nondecreasing matrices")
    tg = grid.points()
    index_map, binding = relations.mixed_doubling_search(S, T, ells, tg)
    if index_map is None:
        hyp = inconclusive(notes=f"mixed doubling undecided at ell={binding}")
        return TranslationReport((), False, hyp)
    hyp = holds({"index_map": {str(k): v for k, v in index_map.items()}})

    rows = []
    all_ok = True
    for ell in ells:
        n, L = index_map[ell]["n"], index_map[ell]["L"]
        sig_n = S.weight_at(n)
        tau_ell = T.weight_at(ell)
        base = weighted_norm(f, sig_n, p)
        for x0 in x0_set:
            shifted = f.translated(float(x0))
            lhs_res = weighted_norm(shifted, tau_ell, p)
            sig_x0 = float(sig_n.evaluate(float(x0)))
            if p == math.inf:
                rhs = math.exp(min(L + sig_x0, 700)) * (base.value or 0.0)
                lhs = lhs_res.value or 0.0
            else:
                rhs = math.exp(min((L + sig_x0) / p, 700)) * (base.value or 0.0)
                lhs = lhs_res.value or 0.0
            ok = (not lhs_res.divergent and not base.divergent
                  and lhs <= rhs * (1 + 1e-6) + 1e-300)
            rows.append({"ell": ell, "n": n, "L": L, "x0": float(x0),
                         "lhs": lhs, "rhs": rhs, "ok": ok})
            all_ok = all_ok and ok
    return TranslationReport(tuple(rows), all_ok, hyp)


# ---------------------------------------------------------------------------
# inclusion experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    relation: relations.RelationVerdict
    hypotheses: dict
    degraded: bool
    forward_rows: tuple
    converse_rows: tuple
    all_ok: bool

    to_dict = report_dict


def _battery(S: WeightMatrix, p, grid, d):
    fns = []
    for ell in (0.5, 1.0, 2.0):
        fns.append(theta_function(S.weight_at(ell), p, grid, d))
    try:
        psi, _ = nontriviality_witness(S, p, t_max=min(grid.t_max, 40.0), d=d)
        fns.append(psi)
    except (ValidationFailed, WitnessConstructionFailed):
        pass
    ts = grid.points()
    fns.append(SampledFunction(ts, np.exp(-ts ** 2), d, "gaussian"))
    plateau = np.where(ts <= 1.0, 1.0, np.maximum(0.0, 2.0 - ts))
    fns.append(SampledFunction(ts, plateau, d, "plateau"))
    return fns


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
    hyp_map_S, bind_S = relations.mixed_doubling_search(S, S, (1.0,), tg)
    hyp_map_T, bind_T = relations.mixed_doubling_search(T, T, (1.0,), tg)
    hypotheses = {
        "mixed_doubling_S": holds({"index_map": hyp_map_S}) if hyp_map_S
        else inconclusive(notes=f"undecided at ell={bind_S}"),
        "mixed_doubling_T": holds({"index_map": hyp_map_T}) if hyp_map_T
        else inconclusive(notes=f"undecided at ell={bind_T}"),
    }
    degraded = not (hyp_map_S and hyp_map_T)

    rel = relations.matrix_relation(S, T, kind, ell_grid=(0.5, 1.0, 2.0))

    forward_rows = []
    converse_rows = []
    all_ok = True

    if rel.holds and rel.index_map:
        battery = _battery(S, p, grid, d)
        for key, entry in rel.index_map.items():
            if kind == "beurling":
                ell, n, C = float(key), entry["n"], entry["C"]
            else:
                n, ell, C = float(key), entry["ell"], entry["C"]
            factor = math.exp(min(C if p == math.inf else C / p, 700))
            for fn in battery:
                lhs = weighted_norm(fn, T.weight_at(ell), p)
                rhs = weighted_norm(fn, S.weight_at(n), p)
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
        any_finite = False
        for n in (0.5, 1.0, 2.0, 4.0):
            res = weighted_norm(th, T.weight_at(n), p)
            converse_rows.append({"function": th.label, "t_index": n,
                                  "kind": res.kind, "value": res.value})
            any_finite = any_finite or not res.divergent
        all_ok = not any_finite

    return ExperimentReport(rel, hypotheses, degraded,
                            tuple(forward_rows), tuple(converse_rows), all_ok)
