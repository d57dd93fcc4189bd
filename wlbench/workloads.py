"""Seeded workload generation.

A workload is a list of ops plus the weights they refer to, all plain
JSON data, so the CLI runner, the library runner and the answer key share
one description.  The seed draws the family parameters, the profile
corners, the y and ell lists and the op order.  The J=60 counterexample,
``Normalized(LogPower(2))``, both sequences, the growth-order chain used for relations and matrices, and the malformed
inputs are the same for every seed, so the three outcome fractions do not
depend on the seed.

Parameter ranges stay clear of the thresholds where a truth flips
(alpha = 1, beta = 1), so the answer key is unambiguous for every draw.
"""

from __future__ import annotations

import math
import random

from . import answer_key

WORKLOADS = ("cli-cold", "lib-numeric", "lib-families")

# log < log^2 < t^(1/4) < t^(1/2) < t
CHAIN = {
    "c_log": {"family": "log", "params": {}},
    "c_log2": {"family": "logpower", "params": {"beta": 2.0}},
    "c_t14": {"family": "power", "params": {"alpha": 0.25}},
    "c_t12": {"family": "power", "params": {"alpha": 0.5}},
    "c_t1": {"family": "power", "params": {"alpha": 1.0}},
}

COUNTEREXAMPLE = {"counterexample": {"J": 60, "t1": 0.5}}
NORMALIZED_LOG2 = {"family": "normalized", "params": {},
                   "base": {"family": "logpower", "params": {"beta": 2.0}}}
# sqrt(k!) with 60 terms; the loader reads the entries as log M_k
SQRT_FACTORIAL = {"sequence": [0.5 * math.lgamma(k + 1) for k in range(60)]}
# log M_k = 3k^2/4: the associated weight is log^2-type and its supremum
# stays inside the 60 stored terms
GAUSSIAN_SEQUENCE = {"sequence": [0.75 * k * k for k in range(60)]}

# the two malformed inputs: a dilation with the wrong parameter name, and
# an unknown condition id
MALFORMED_WEIGHT = {"family": "dilated", "params": {"lam": 2},
                    "base": {"family": "power", "params": {"alpha": 0.5}}}
MALFORMED_CONDITION = "om9"

CONDITION_IDS = ("om1", "om2", "om3", "om3w", "om4", "om5", "om6",
                 "om_nq", "om_snq", "om_sub", "alpha0",
                 "normalized", "nondecreasing", "unbounded_limit")
RELATIONS = answer_key.RELATIONS
MATRIX_RELATIONS = ("beurling", "roumieu", "triangle")
CERTIFICATES = ("verify", "nonconvexity", "slow_variation", "nonequivalence")


def _power(a):
    return {"family": "power", "params": {"alpha": a}}


def _opaque(doc):
    return {"opaque": doc}


def _draw(rng: random.Random) -> dict:
    """Parameters every workload draws, in a fixed order.

    The ranges are narrow enough that an op costs about the same for every
    seed, so the spread between seeds stays within the benchmark's bounds.
    """
    slopes = sorted(rng.uniform(1.0, 2.0) for _ in range(3))
    u, v, corners = 0.0, 0.0, [[0.0, 0.0]]
    for s in slopes:
        du = rng.uniform(0.9, 1.2)
        u, v = u + du, v + s * du
        corners.append([u, v])
    return {
        "alpha_sub": rng.uniform(0.4, 0.6),
        "alpha_sup": rng.uniform(1.4, 1.7),
        "s": rng.uniform(1.8, 2.5),
        "beta": rng.uniform(1.8, 2.5),
        "c_scale": math.exp(rng.uniform(math.log(0.5), math.log(4.0))),
        "c_dil": math.exp(rng.uniform(math.log(0.5), math.log(4.0))),
        "corners": corners,
        "ys": sorted(math.exp(rng.uniform(0.0, math.log(1e3))) for _ in range(6)),
        "ells": sorted(math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
                       for _ in range(3)),
        "x_max": rng.uniform(3.0, 5.0),
    }


def _op(call, **args):
    return {"call": call, **args}


def _lib_numeric(d) -> tuple[dict, list]:
    w = {
        "prof": COUNTEREXAMPLE,
        "dpll": {"family": "dilated", "params": {"c": 4.0},
                 "base": {"profile": d["corners"]}},
        "nlp2": NORMALIZED_LOG2,
        "sqrtfact": SQRT_FACTORIAL,
        "seq": GAUSSIAN_SEQUENCE,
        "o_sqrt": _opaque(_power(0.5)),
        "o_log": _opaque({"family": "log", "params": {}}),
        "o_sq": _opaque(_power(2.0)),
        "o_exp": _opaque({"family": "exp", "params": {}}),
        "o_pow": _opaque(_power(d["alpha_sub"])),
        "o_sup": _opaque(_power(d["alpha_sup"])),
        "o_gev": _opaque({"family": "gevrey", "params": {"s": d["s"]}}),
        "o_lp": _opaque({"family": "logpower", "params": {"beta": d["beta"]}}),
        "o_dil": _opaque({"family": "dilated", "params": {"c": d["c_dil"]},
                          "base": _power(d["alpha_sub"])}),
    }
    # mixed-kind matrix pairs use the fixed chain: whether a partner-index
    # search runs out depends on the exponents, and fixing them keeps the
    # typed-error share the same for every seed
    w.update(CHAIN)
    # The single-condition checks and the kappa calls put the p50 among
    # many ops of a few ms; the heavy ops (classify on the profile and the
    # sequence, the kappa equivalence checks) stay under a tenth of the ops,
    # so the p90 falls among the ~35 ms matrix searches and opaque classifies.
    ops = []
    opaque = [k for k in w if k.startswith("o_")]
    for k in ("prof", "dpll", "nlp2", "sqrtfact", "seq", *opaque):
        ops.append(_op("classify", w=k))
    for k in opaque:
        for cond in ("om1", "om4", "om5", "om6", "alpha0", "nondecreasing"):
            ops.append(_op("check_condition", w=k, cond=cond))
    for k in ("prof", "dpll", "nlp2", "o_pow"):
        for y in d["ys"]:
            ops.append(_op("kappa", w=k, y=y))
    for k in ("prof", "dpll", "nlp2", "o_pow", "o_log"):
        ops.append(_op("kappa_equivalence_check", w=k))
    for k in ("prof", "dpll", "nlp2", "seq", "o_pow", "o_lp"):
        ops.append(_op("growth_index", w=k))
    for k in ("prof", "nlp2", "o_pow", "o_gev"):
        ops.append(_op("young_conjugate", w=k, x_max=d["x_max"], points=201))
    for k in ("nlp2", "o_pow"):
        for ell in d["ells"]:
            ops.append(_op("associated_weight_matrix", w=k, ell=ell, j_max=30))
    bases = ("c_t12", "c_log", "c_log2")
    for s in bases:
        for t in bases:
            if s == t:
                continue
            for kinds in (("exponential", "dilatation"), ("dilatation", "exponential")):
                for rel in MATRIX_RELATIONS:
                    ops.append(_op("matrix_relation", s=s, s_kind=kinds[0],
                                   t=t, t_kind=kinds[1], rel=rel))
    ops.append(_op("inclusion_experiment", s="c_t12", s_kind="exponential",
                   t="c_log", t_kind="dilatation", p=2.0, kind="beurling"))
    ops.append(_op("inclusion_experiment", s="c_log2", s_kind="dilatation",
                   t="c_t12", t_kind="exponential", p=2.0, kind="roumieu"))
    for cert in CERTIFICATES:
        ops.append(_op("certificate", cert=cert))
    return w, ops


def _lib_families(d) -> tuple[dict, list]:
    w = dict(CHAIN)
    bases = {
        "pow": _power(d["alpha_sub"]),
        "sup": _power(d["alpha_sup"]),
        "gev": {"family": "gevrey", "params": {"s": d["s"]}},
        "log": {"family": "log", "params": {}},
        "lp": {"family": "logpower", "params": {"beta": d["beta"]}},
        "exp": {"family": "exp", "params": {}},
    }
    for name, doc in bases.items():
        w[f"f_{name}"] = doc
        w[f"f_sc_{name}"] = {"family": "scaled", "params": {"c": d["c_scale"]},
                             "base": doc}
        w[f"f_dil_{name}"] = {"family": "dilated", "params": {"c": d["c_dil"]},
                              "base": doc}
    # The op counts place the p50 among the closed-form classify calls and
    # the light comparisons (0.1-0.5 ms) and the p90 inside the preceq_c /
    # sim_c comparisons, never on the edge between two groups of unlike
    # cost; a p50 among the ~10 us single-condition checks moved by a third
    # between processes.
    ops = []
    for name in bases:
        for cond in CONDITION_IDS:
            ops.append(_op("check_condition", w=f"f_{name}", cond=cond))
    for k in (k for k in w if k.startswith("f_")):
        ops.append(_op("classify", w=k))
    for name in bases:
        ops.append(_op("growth_index", w=f"f_{name}"))
    for k in ("f_pow", "f_gev", "f_log", "f_lp", "f_dil_log"):
        for y in d["ys"][:3]:
            ops.append(_op("kappa", w=k, y=y))
    chain = list(CHAIN)
    near = set(zip(chain[:-1], chain[1:])) | {("c_log", "c_t1")}
    near |= {(t, s) for s, t in near}
    for s in chain:
        for t in chain:
            if s == t:
                continue
            for rel in RELATIONS:
                if (s, t) in near or rel in ("preceq_c", "sim_c"):
                    ops.append(_op("compare", sigma=s, tau=t, rel=rel))
    # same-kind pairs, where the scalar reduction applies
    for s, kind, t, rel in (("c_t12", "exponential", "c_t14", "beurling"),
                            ("c_t14", "dilatation", "c_t12", "beurling"),
                            ("c_log2", "dilatation", "c_t14", "beurling"),
                            ("c_t12", "exponential", "c_t14", "triangle")):
        ops.append(_op("matrix_relation", s=s, s_kind=kind, t=t, t_kind=kind,
                       rel=rel))
    return w, ops


def _cli_cold(d) -> tuple[dict, list]:
    w = {
        "f_pow": _power(d["alpha_sub"]),
        "f_gev": {"family": "gevrey", "params": {"s": d["s"]}},
        "f_log": {"family": "log", "params": {}},
        "f_dil": {"family": "dilated", "params": {"c": d["c_dil"]},
                  "base": _power(d["alpha_sub"])},
        "pll": {"profile": d["corners"]},
        "dpll": {"family": "dilated", "params": {"c": 4.0},
                 "base": {"profile": d["corners"]}},
        "nlp2": NORMALIZED_LOG2,
        "seq": GAUSSIAN_SEQUENCE,
        "sqrtfact": SQRT_FACTORIAL,
        "malformed": MALFORMED_WEIGHT,
    }
    w.update(CHAIN)
    ys = ",".join(repr(y) for y in d["ys"])
    ells = ",".join(repr(e) for e in d["ells"])
    xmax = repr(d["x_max"])
    rels = ",".join(RELATIONS)
    # one op per subcommand, plus the typed-error and malformed cases: a
    # pass takes about 15 s, so a run times each op once or twice
    argvs = [
        ["analyze", "--weight", "@dpll", "--conditions",
         "om4,nondecreasing,unbounded_limit,normalized"],
        ["classify", "--weight", "@f_gev"],
        ["classify", "--weight", "@sqrtfact"],
        ["conjugate", "--weight", "@nlp2", "--xmax", xmax],
        ["matrix", "--weight", "@nlp2", "--ell", ells, "--jmax", "30"],
        ["index", "--weight", "@f_dil"],
        ["kappa", "--weight", "@pll", "--y", ys],
        ["compare", "--sigma", "@c_t14", "--tau", "@c_log2", "--rel", rels],
        ["matrix-compare", "--s-type", "exp", "--s-weight", "@f_pow",
         "--t-type", "dil", "--t-weight", "@f_log",
         "--rel", ",".join(MATRIX_RELATIONS)],
        ["lp-experiment", "--s", "@f_pow", "--t", "@f_log", "--s-type", "exp",
         "--t-type", "dil", "--p", "2"],
        ["counterexample", "--J", "60", "--t1", "0.5", "--certify", "all"],
        ["report", "--weight", "@seq"],
    ]
    ops = [_op("cli", argv=a) for a in argvs]
    ops.append(_op("cli", argv=["analyze", "--weight", "@malformed"],
                   malformed=True))
    ops.append(_op("cli", argv=["analyze", "--weight", "@f_pow", "--conditions",
                                MALFORMED_CONDITION], malformed=True))
    return w, ops


def _malformed_lib_ops(weight_key):
    return [_op("load_weight", doc=MALFORMED_WEIGHT, malformed=True),
            _op("check_condition", w=weight_key, cond=MALFORMED_CONDITION,
                malformed=True)]


def generate(workload: str, seed: int) -> dict:
    """The workload for ``seed``: weights, ops (in run order) and draws."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    d = _draw(rng)
    if workload == "cli-cold":
        weights, ops = _cli_cold(d)
    elif workload == "lib-numeric":
        weights, ops = _lib_numeric(d)
        ops += _malformed_lib_ops("o_pow")
    else:
        weights, ops = _lib_families(d)
        ops += _malformed_lib_ops("f_pow")
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{i:03d}"
    return {"workload": workload, "seed": seed, "draws": d,
            "weights": weights, "ops": ops}
