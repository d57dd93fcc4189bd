"""Hand-written answer key for the verdicts the benchmark scores.

The key never imports weightlab.  Condition truths follow the definitions
of Braun, Meise and Taylor, "Ultradifferentiable functions and Fourier
analysis", Results Math. 17 (1990), applied to each family by elementary
analysis; relation truths follow from the growth orders

    log < log^beta (beta > 1) < t^a < t^b (a < b)

of Hardy, "Orders of Infinity" (1910).  Weights are described by the
JSON documents the benchmark hands to weightlab, plus two benchmark-only
forms: ``{"opaque": doc}`` (the same function behind a wrapper that hides
its family) and ``{"counterexample": {"J": .., "t1": ..}}`` (the plateau
staircase profile).  ``None`` means "not scored".
"""

from __future__ import annotations

SCORED_CONDITIONS = ("om1", "om2", "om3", "om4", "om5", "om6", "om_nq",
                     "om_snq", "om_sub", "alpha0", "normalized",
                     "nondecreasing", "unbounded_limit")

RELATIONS = ("le", "preceq", "sim", "triangle", "preceq_c", "sim_c",
             "triangle_c")


def _power(a: float) -> dict:
    """w(t) = t^a, a > 0."""
    return {
        "om1": True,            # (2t)^a = 2^a t^a
        "om2": a <= 1,          # t^a = O(t)
        "om3": True,            # log t = o(t^a)
        "om4": True,            # u -> e^{a u} is convex
        "om5": a < 1,           # t^a = o(t)
        "om6": True,            # 2 t^a <= (H t)^a with H = 2^{1/a}
        "om_nq": a < 1,         # int t^{a-2} dt < oo
        "om_snq": a < 1,        # kappa(y) = y^a / (1 - a)
        "om_sub": a <= 1,       # concave with w(0) = 0 iff a <= 1
        "alpha0": a <= 1,       # lam^a <= C lam for all lam >= 1
        "normalized": False,    # t^a > 0 on (0, 1]
        "nondecreasing": True,
        "unbounded_limit": True,
    }


def _logpower(b: float) -> dict:
    """w(t) = log(1 + t)^b, b >= 1 (b = 1 is the plain log weight)."""
    return {
        "om1": True,
        "om2": True,
        "om3": b > 1,           # log t = o(log^b t) iff b > 1
        "om4": True,            # softplus(u)^b, convex increasing composite
        "om5": True,
        "om6": False,           # w(Ht) + H ~ w(t): 2 w(t) is never reached
        "om_nq": True,
        "om_snq": True,         # kappa(y) ~ log^b y
        "om_sub": b == 1,       # log(1+t)^b ~ t^b near 0 is superadditive
        "alpha0": True,
        "normalized": False,
        "nondecreasing": True,
        "unbounded_limit": True,
    }


def _exp() -> dict:
    """w(t) = e^t - 1."""
    return {
        "om1": False, "om2": False, "om3": True, "om4": True, "om5": False,
        "om6": True,            # (e^t - 1)^2 >= 0 gives 2w(t) <= w(2t)
        "om_nq": False, "om_snq": False,
        "om_sub": False,        # (e^s - 1)(e^t - 1) > 0: superadditive
        "alpha0": False,
        "normalized": False, "nondecreasing": True, "unbounded_limit": True,
    }


def _profile(corners) -> dict:
    """Exact truths of a finite piecewise-log-linear profile phi(u) = w(e^u)."""
    slopes = [(v1 - v0) / (u1 - u0)
              for (u0, v0), (u1, v1) in zip(corners[:-1], corners[1:])]
    return {
        "om4": all(b >= a for a, b in zip(slopes[:-1], slopes[1:])),
        "nondecreasing": all(s >= 0 for s in slopes),
        "unbounded_limit": slopes[-1] > 0,
    }


# The plateau staircase: phi rises with slope k_1, then the first plateau
# has slope 0 < k_1, so om4 fails there; every slope is >= 0 and the final
# connector keeps rising.
_COUNTEREXAMPLE = {"om4": False, "nondecreasing": True, "unbounded_limit": True}


def _positive_on_unit_interval(doc) -> bool | None:
    """True when w(t) > 0 for some t in (0, 1] (so w is not normalized)."""
    if "opaque" in doc:
        return _positive_on_unit_interval(doc["opaque"])
    fam = doc.get("family")
    if fam in ("power", "gevrey", "log", "logpower", "exp"):
        return True
    if fam == "scaled":
        return _positive_on_unit_interval(doc["base"])
    return None


def condition_table(doc) -> dict:
    """Truth of every scored condition for the weight ``doc``."""
    if "opaque" in doc:
        # the wrapper evaluates the same function
        return condition_table(doc["opaque"])
    if "counterexample" in doc:
        return dict(_COUNTEREXAMPLE)
    if "profile" in doc:
        return _profile(doc["profile"])
    fam = doc.get("family")
    p = doc.get("params", {})
    if fam == "power":
        return _power(float(p["alpha"]))
    if fam == "gevrey":
        return _power(1.0 / float(p["s"]))
    if fam == "log":
        return _logpower(1.0)
    if fam == "logpower":
        return _logpower(float(p["beta"]))
    if fam == "exp":
        return _exp()
    if fam == "scaled":
        # c*w: every scored condition is invariant under c > 0
        return condition_table(doc["base"])
    if fam == "dilated":
        # w(ct): the asymptotic conditions, om4 (a shift in u), om_sub and
        # monotonicity carry over; only flatness on [0, 1] can change
        c = float(p["c"])
        table = condition_table(doc["base"])
        table.pop("normalized", None)
        base = doc["base"]
        if _positive_on_unit_interval(base):
            table["normalized"] = False
        elif "profile" in base:
            first = base["profile"][1]
            if c > 1 and first[1] > 0:
                # w(ct) = phi(log c + log t) > 0 for t in (1/c, 1]
                table["normalized"] = False
            elif c <= 1:
                table["normalized"] = True
        return table
    return {}


def condition_truth(doc, cond: str):
    if cond not in SCORED_CONDITIONS:
        return None
    return condition_table(doc).get(cond)


def growth_order(doc):
    """(kind, exponent): kind 0 is log^exponent, kind 1 is t^exponent.

    Scaling and dilation keep the order; None for weights outside the chain.
    """
    if "opaque" in doc:
        return growth_order(doc["opaque"])
    fam = doc.get("family")
    p = doc.get("params", {})
    if fam == "log":
        return (0, 1.0)
    if fam == "logpower":
        return (0, float(p["beta"]))
    if fam == "power":
        return (1, float(p["alpha"]))
    if fam == "gevrey":
        return (1, 1.0 / float(p["s"]))
    if fam in ("scaled", "dilated"):
        return growth_order(doc["base"])
    return None


def relation_truth(sigma_doc, tau_doc, rel: str):
    """Truth of ``compare(sigma, tau, rel)`` from the growth orders alone.

    Scored only when the orders differ strictly.  With tau of lower order,
    tau = o(sigma(eps t)) for every eps > 0, so the one-sided relations hold
    and the symmetric ones fail; ``le`` depends on constants and stays
    unscored.  With tau of higher order nothing dominates tau.
    """
    if rel not in RELATIONS:
        return None
    s, t = growth_order(sigma_doc), growth_order(tau_doc)
    if s is None or t is None or s == t:
        return None
    if t < s:
        return {"le": None, "preceq": True, "sim": False, "triangle": True,
                "preceq_c": True, "sim_c": False, "triangle_c": True}[rel]
    return False
