"""A piecewise-linear weight with plateaus that defeat convexification.

The log-scale profile phi consists of blocks j = 1, 2, ...: a steep rise
of slope k_j from x_j to xbar_j, a flat plateau to y_j, and a shallow
connector of slope ell_j to x_{j+1}.  The block geometry is driven by a
decreasing parameter sequence delta_j and the recursion

    t_{j+1} = (1/j - t_j)/2,     x_1 = 2/t_1,
    phi(x_j) = delta_j j x_j,    y_j = 2 j x_j / (1 - j t_j),
    phi(y_j) = 2 j phi(x_j)/(1 - j t_j),
    xbar_j = t_j y_j + (1 - t_j) x_j,   phi(xbar_j) = phi(y_j),
    x_{j+1} = (j+1) y_j.

The plateaus make phi(xbar_j) overshoot every convex combination bound
A t_j phi(y_j) + A (1-t_j) phi(x_j) + A once j is large enough, which
rules out any equivalent weight with convex log-scale profile, while the
slopes k_j / phi(x_j) -> 0 keep the profile slowly varying.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PiecewiseLogLinear, WeightFunction
from .errors import GammaTooLarge, JHorizonTooSmall, NonFinite, OverflowAtJ, ValidationFailed
from .verdict import Verdict, fails, holds, inconclusive, report_dict, to_json

__all__ = [
    "AdmissibleDelta",
    "CounterexampleProfile",
    "CertificateBundle",
    "default_delta",
    "power_delta",
    "construct",
    "verify_profile",
    "nonconvexity_certificate",
    "slow_variation_certificate",
    "nonequivalence",
]

_LOG_CAP = math.log(1e300)
_RTOL = 1e-12


# ---------------------------------------------------------------------------
# parameter sequences
# ---------------------------------------------------------------------------

class AdmissibleDelta:
    """Positive block parameters with controlled decay.

    Required: delta_{j+1} <= delta_j <= (j+2) delta_{j+1} for every j, and
    j * delta_j strictly increasing over the final third of the indices
    (the finite-horizon stand-in for j*delta_j -> infinity).
    """

    __slots__ = ("values", "provenance")

    def __init__(self, values: tuple, provenance: str = "user"):
        v = np.asarray(values, dtype=float)
        if v.size < 1 or np.any(~np.isfinite(v)) or np.any(v <= 0):
            raise ValidationFailed("delta values must be positive finite reals")
        for j in range(1, v.size):           # j is 1-based block index of v[j-1]
            dj, dj1 = v[j - 1], v[j]
            if not (dj1 <= dj * (1 + _RTOL)):
                raise ValidationFailed(f"delta must be nonincreasing (index {j})")
            if not (dj <= (j + 2) * dj1 * (1 + _RTOL)):
                raise ValidationFailed(
                    f"delta decays too fast at index {j}: "
                    f"{dj:g} > {(j + 2) * dj1:g}")
        if v.size >= 3:
            tail = v * np.arange(1, v.size + 1)
            start = 2 * v.size // 3
            inc = np.diff(tail[start:])
            if np.any(inc <= 0):
                raise ValidationFailed(
                    "j * delta_j must increase strictly over the final third")
        self.values = values
        self.provenance = provenance

    def __len__(self):
        return len(self.values)

    def __getitem__(self, j):
        """1-based access: delta[j] is the j-th block parameter."""
        return self.values[j - 1]


def default_delta(J: int) -> AdmissibleDelta:
    """delta_j = 1/log(e + j)."""
    if J < 1:
        raise ValidationFailed("J must be >= 1")
    return AdmissibleDelta(tuple(1.0 / math.log(math.e + j)
                                 for j in range(1, J + 1)), "default-formula")


def power_delta(delta: AdmissibleDelta, alpha: float) -> AdmissibleDelta:
    """Raise each parameter to the power alpha in (0, 1]; revalidated."""
    if not 0 < alpha <= 1:
        raise ValidationFailed("alpha must lie in (0, 1]")
    return AdmissibleDelta(tuple(d ** alpha for d in delta.values),
                           f"power({alpha})-of-{delta.provenance}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class CounterexampleProfile:
    __slots__ = ("J", "t1", "delta", "t", "x", "xbar", "y", "phi_x", "phi_y", "k", "ell",
                 "weight")

    def __init__(self, J: int, t1: float, delta: AdmissibleDelta, t: np.ndarray,
                 x: np.ndarray, xbar: np.ndarray, y: np.ndarray, phi_x: np.ndarray,
                 phi_y: np.ndarray, k: np.ndarray, ell: np.ndarray, weight: WeightFunction):
        self.J = J
        self.t1 = t1
        self.delta = delta
        self.t = t              # t_1..t_J
        self.x = x              # x_1..x_{J+1}  (one lookahead for gap checks)
        self.xbar = xbar        # xbar_1..xbar_J
        self.y = y              # y_1..y_J
        self.phi_x = phi_x      # phi(x_1)..phi(x_J)
        self.phi_y = phi_y      # phi(y_j) = phi(xbar_j)
        self.k = k              # rise slopes k_1..k_J
        self.ell = ell          # connector slopes ell_1..ell_{J-1}
        self.weight = weight


def construct(delta: AdmissibleDelta, t1: float, J: int) -> CounterexampleProfile:
    if not 0 < t1 < 1:
        raise ValidationFailed("t1 must lie in (0, 1)")
    if J < 1:
        raise ValidationFailed("J must be >= 1")
    if len(delta) < J:
        raise ValidationFailed(f"need {J} delta values, got {len(delta)}")

    t = np.zeros(J)
    x = np.zeros(J + 1)
    xbar = np.zeros(J)
    y = np.zeros(J)
    phi_x = np.zeros(J)
    phi_y = np.zeros(J)

    t[0] = t1
    x[0] = 2.0 / t1
    log_x = math.log(x[0])  # log x_j, the overflow guard
    for j in range(1, J + 1):
        i = j - 1
        dj = delta[j]
        phi_x[i] = dj * j * x[i]
        y[i] = 2 * j * x[i] / (1 - j * t[i])
        phi_y[i] = 2 * j * phi_x[i] / (1 - j * t[i])
        xbar[i] = t[i] * y[i] + (1 - t[i]) * x[i]
        log_x += math.log(j + 1) + math.log(2 * j) - math.log1p(-j * t[i])
        if log_x > _LOG_CAP:
            raise OverflowAtJ(j + 1, j - 1)
        x[i + 1] = (j + 1) * y[i]
        if j < J:
            t[i + 1] = 0.5 * (1.0 / j - t[i])

    k = np.array([delta[j] * j / t[j - 1] for j in range(1, J + 1)])
    ell = np.array([(delta[j + 1] * (j + 1) ** 2 - delta[j] * j) / j
                    for j in range(1, J)])

    corners = [(0.0, 0.0)]
    for i in range(J):
        corners += [(x[i], phi_x[i]), (xbar[i], phi_y[i]), (y[i], phi_y[i])]
    # close with a ray at the connector slope the next block would use
    final_slope = delta[J] * (J * J + J + 1) / J
    corners.append((2 * y[J - 1], phi_y[J - 1] + final_slope * y[J - 1]))
    weight = PiecewiseLogLinear(tuple(corners))

    return CounterexampleProfile(J=J, t1=t1, delta=delta, t=t, x=x, xbar=xbar,
                                 y=y, phi_x=phi_x, phi_y=phi_y, k=k, ell=ell,
                                 weight=weight)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class CertificateBundle:
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items

    @property
    def all_ok(self):
        return all(i["ok"] for i in self.items)

    def failures(self):
        return [i for i in self.items if not i["ok"]]

    def to_dict(self):
        return to_json({"all_ok": self.all_ok, "items": self.items})


def _rel_close(a, b):
    return abs(a - b) <= _RTOL * max(1.0, abs(a), abs(b))


def verify_profile(p: CounterexampleProfile) -> CertificateBundle:
    """Re-derive every structural invariant from the stored arrays."""
    items = []

    def add(name, j, ok, margin):
        items.append({"name": name, "j": j, "ok": bool(ok),
                      "margin": float(margin)})

    d = p.delta
    for j in range(1, p.J + 1):
        i = j - 1
        add("t_window", j, 0 < p.t[i] < 1.0 / j, 1.0 / j - p.t[i])
        add("ordering", j,
            p.x[i] < p.xbar[i] < p.y[i] < p.x[i + 1],
            min(p.xbar[i] - p.x[i], p.y[i] - p.xbar[i], p.x[i + 1] - p.y[i]))
        add("x_lower_bound", j, p.x[i] >= 2 * j / p.t[i] * (1 - _RTOL),
            p.x[i] - 2 * j / p.t[i])
        gap = min(p.y[i] - p.xbar[i], p.y[i] - p.x[i],
                  p.x[i + 1] - p.y[i], p.xbar[i] - p.x[i])
        add("min_gap_at_least_j", j, gap >= j * (1 - _RTOL), gap - j)
        quotient = (p.phi_y[i] - p.phi_x[i]) / (p.xbar[i] - p.x[i])
        add("rise_slope_identity", j,
            _rel_close(quotient, d[j] * j / p.t[i]),
            quotient - d[j] * j / p.t[i])
        add("corner_slope_x", j, _rel_close(p.phi_x[i] / p.x[i], d[j] * j),
            p.phi_x[i] / p.x[i] - d[j] * j)
        add("corner_slope_y", j, _rel_close(p.phi_y[i] / p.y[i], d[j] * j),
            p.phi_y[i] / p.y[i] - d[j] * j)
        plateau_val = 2 * j * p.phi_x[i] / (1 - j * p.t[i])
        add("plateau_identity", j, _rel_close(p.phi_y[i], plateau_val),
            p.phi_y[i] - plateau_val)
        mid = p.t[i] * p.y[i] + (1 - p.t[i]) * p.x[i]
        add("plateau_abscissa", j, _rel_close(p.xbar[i], mid), p.xbar[i] - mid)

    for j in range(1, p.J):
        i = j - 1
        bound = d[j] * (j * j + j + 1) / j
        add("connector_positive", j, p.ell[i] > 0, p.ell[i])
        add("connector_upper_bound", j, p.ell[i] <= bound * (1 + _RTOL),
            bound - p.ell[i])
        add("connector_below_next_rise", j, p.ell[i] < p.k[i + 1],
            p.k[i + 1] - p.ell[i])

    return CertificateBundle(tuple(items))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def nonconvexity_certificate(p: CounterexampleProfile, A_max: float):
    """For each A = 1, 2, 4, ..., A_max find a block where the plateau value
    beats A t phi(y) + A (1-t) phi(x) + A.

    A certified violation at level A rules out any equivalent weight with a
    convex log-scale profile whose equivalence constant B satisfies
    B^2 + B <= A.  Since j t_j -> 1/3, rung A needs a witness block just
    past 2A/3: rungs 1..64 sit at j = ceil(2A/3) and rung 128 at j = 86.
    Abscissae from block 86 on leave double range (`construct` raises
    `OverflowAtJ`), so no profile built here reaches rung 128.  If the
    profile is too short for some rung of the ladder, `JHorizonTooSmall`
    carries the required block estimate and the rungs already certified.
    """
    if not A_max >= 1:
        raise ValidationFailed("A_max must be >= 1")
    results = []
    A = 1.0
    while A <= A_max * (1 + 1e-12):
        found = None
        for j in range(1, p.J + 1):
            i = j - 1
            rhs = A * p.t[i] * p.phi_y[i] + A * (1 - p.t[i]) * p.phi_x[i] + A
            lhs = p.phi_y[i]               # = phi(xbar_j)
            if lhs > rhs:
                found = {"A": A, "j": j, "lhs": lhs, "rhs": rhs,
                         "margin": lhs - rhs}
                break
        if found is None:
            raise JHorizonTooSmall(A, math.ceil(2 * A / 3) + 2,
                                   certified=results)
        results.append(found)
        A *= 2.0
    return results


class SlowVariationReport:
    __slots__ = ("gamma", "j0", "case_bounds", "block_sup_ratios", "certified_K_e",
                 "threshold_j")

    def __init__(self, gamma: float, j0: int, case_bounds: tuple, block_sup_ratios: tuple,
                 certified_K_e: bool, threshold_j: int | None):
        self.gamma = gamma
        self.j0 = j0
        self.case_bounds = case_bounds
        self.block_sup_ratios = block_sup_ratios
        self.certified_K_e = certified_K_e
        self.threshold_j = threshold_j

    to_dict = report_dict


def slow_variation_certificate(p: CounterexampleProfile, gamma_set):
    """Certify phi(gamma + s)/phi(s) -> 1 via the per-block slope bounds.

    Within block j a shift by gamma <= j changes phi by at most gamma times
    the local slope, and each slope-to-value ratio obeys an explicit 1/j
    bound: k_j/phi(x_j) = 1/(t_j x_j) <= 1/(2j) on the rise,
    ell_j/phi(y_j) <= (j^2+j+1)/(4 j^4) on the connector, and
    k_{j+1}/phi(y_j) <= (j+1)/(2 j^2) at the next rise.
    """
    reports = []
    for gamma in gamma_set:
        if not gamma > 0:
            raise ValidationFailed("gamma must be positive")
        if gamma == math.inf:
            raise ValidationFailed("gamma must be finite")
        j0 = max(1, math.ceil(gamma))
        if j0 > p.J:
            raise GammaTooLarge(gamma, j0)

        bounds = []
        for j in range(j0, p.J + 1):
            i = j - 1
            r1 = p.k[i] / p.phi_x[i]
            bounds.append({"j": j, "case": "rise", "value": r1,
                           "bound": 1.0 / (2 * j),
                           "ok": r1 <= 1.0 / (2 * j) * (1 + _RTOL)})
            exact = 1.0 / (p.t[i] * p.x[i])
            bounds[-1]["ok"] = bounds[-1]["ok"] and _rel_close(r1, exact)
            if j < p.J:
                r2 = p.ell[i] / p.phi_y[i]
                b2 = (j * j + j + 1) / (4.0 * j ** 4)
                bounds.append({"j": j, "case": "connector", "value": r2,
                               "bound": b2, "ok": r2 <= b2 * (1 + _RTOL)})
                r3 = p.k[i + 1] / p.phi_y[i]
                b3 = (j + 1) / (2.0 * j * j)
                bounds.append({"j": j, "case": "next_rise", "value": r3,
                               "bound": b3, "ok": r3 <= b3 * (1 + _RTOL)})

        # the blocks j0, j0 + 1, ... up to the first whose end leaves the
        # double range; phi(s + gamma) and phi(s) of each block are read as
        # the rows of one array, in the order of a loop over the blocks
        his = np.append(p.x[j0:p.J], p.y[p.J - 1])
        reach = ~(np.isfinite(his) & (his + gamma <= 1e300))
        n = int(reach.argmax()) if reach.any() else his.size
        sups = []
        if n:
            # each later block starts where the one before it ends, so the
            # first start is the one end left to check before linspace
            if not math.isfinite(p.x[j0 - 1]):
                raise NonFinite("non-finite phi value encountered")
            s = np.linspace(p.x[j0 - 1:j0 - 1 + n], his[:n], 60, axis=1)
            args = np.stack([s + gamma, s], axis=1).reshape(-1, 60)
            vals = p.weight.phi(args)
            ratio = vals[0::2] / vals[1::2]
            sups = [{"j": j, "sup_minus_1": sup - 1.0}
                    for j, sup in enumerate(ratio.max(axis=1).tolist(), start=j0)]

        # the first block from which every ratio is at most 2
        threshold = None
        for row in reversed(sups):
            if not row["sup_minus_1"] <= 1.0:
                break
            threshold = row["j"]
        reports.append(SlowVariationReport(
            gamma=float(gamma), j0=j0, case_bounds=tuple(bounds),
            block_sup_ratios=tuple(sups),
            certified_K_e=threshold is not None, threshold_j=threshold))
    return reports


def nonequivalence(delta: AdmissibleDelta, delta_prime: AdmissibleDelta,
                   J: int, t1: float = 0.5) -> Verdict:
    """Are the two parameterized profiles genuinely inequivalent?

    The corner abscissas depend only on t1, so the profiles differ exactly
    by the ratio delta_j/delta'_j at the corners, and only the profile of
    delta is built.  A ratio that climbs past the threshold 1e3 certifies
    inequivalence; a bounded ratio refutes it; a climbing ratio still below
    the threshold is reported undecided with the trend attached.
    """
    threshold = 1e3
    p = construct(delta, t1, J)
    if len(delta_prime) < J:
        raise ValidationFailed(f"need {J} delta values, got {len(delta_prime)}")

    r = np.array([delta[j] / delta_prime[j] for j in range(1, J + 1)])
    for direction, seq in (("delta/delta'", r), ("delta'/delta", 1.0 / r)):
        increasing = bool(np.all(np.diff(seq) > 0))
        if increasing and seq[-1] >= threshold:
            jw = int(np.argmax(seq >= threshold)) + 1
            return holds({"direction": direction, "ratio_at_J": float(seq[-1]),
                          "witness_x": float(p.x[jw - 1]),
                          "phi_ratio": float(seq[jw - 1])},
                         margin=float(seq[-1]) - threshold)
    inc_fwd = bool(np.all(np.diff(r) > 0))
    inc_bwd = bool(np.all(np.diff(1.0 / r) > 0))
    if inc_fwd or inc_bwd:
        seq = r if inc_fwd else 1.0 / r
        return inconclusive(
            certificate={"trend": "strictly_increasing",
                         "direction": "delta/delta'" if inc_fwd else "delta'/delta",
                         "ratio_at_J": float(seq[-1]),
                         "threshold": threshold},
            margin=float(seq[-1]),
            notes="ratio diverges monotonically but has not reached the "
                  "threshold at this horizon")
    sup = float(np.max(np.maximum(r, 1.0 / r)))
    return fails({"sup_ratio": sup},
                 notes="corner ratios stay bounded in both directions")
