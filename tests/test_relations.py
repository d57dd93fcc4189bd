import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import GridSpec, Log, LogPower, Power, Scaled, core, lpspace, relations
from weightlab.errors import (BridgeViolation, HorizonTooSmall, NotMonotone, UnknownRelation,
                             ValidationFailed)
from weightlab.relations import DEFAULT_ELL_GRID
from weightlab.verdict import fails, holds, inconclusive


# --------------------------------------------------------------------------
# scalar relations
# --------------------------------------------------------------------------

ALPHAS = (0.25, 0.5, 1.0)


@pytest.mark.parametrize("a", ALPHAS)
@pytest.mark.parametrize("b", ALPHAS)
def test_power_truth_table(a, b):
    """t^b against t^a: domination iff b <= a, strict domination iff b < a."""
    sigma, tau = Power(a), Power(b)
    assert relations.compare(sigma, tau, "preceq").verdict.holds == (b <= a)
    assert relations.compare(sigma, tau, "triangle").verdict.holds == (b < a)
    assert relations.compare(sigma, tau, "preceq_c").verdict.holds == (b <= a)
    assert relations.compare(sigma, tau, "triangle_c").verdict.holds == (b < a)
    assert relations.compare(sigma, tau, "sim").verdict.holds == (a == b)


def test_le_is_pointwise():
    assert relations.compare(Power(0.5), Power(0.5), "le").verdict.holds
    assert relations.compare(Power(1.0), Power(0.5), "le",
                             GridSpec(1.0, 1e6, 400)).verdict.holds


def test_log_below_powers():
    v = relations.compare(Power(0.5), Log(), "triangle")
    assert v.verdict.holds
    v = relations.compare(Log(), Power(0.5), "preceq")
    assert v.verdict.fails


def test_unknown_relation():
    with pytest.raises(ValueError):
        relations.compare(Power(1.0), Power(1.0), "nope")


def test_an_unknown_relation_is_refused_before_any_weight_is_read(monkeypatch):
    def refuse(self, t):
        raise RuntimeError("evaluated")
    monkeypatch.setattr(core.WeightFunction, "evaluate", refuse)
    with pytest.raises(UnknownRelation, match=r"^unknown relation 'nope'$"):
        relations.compare(Power(1.0), Power(1.0), "nope")
    S = relations.WeightMatrix.exponential(Power(1.0))
    with pytest.raises(UnknownRelation, match=r"^unknown matrix relation 'nope'$"):
        relations.matrix_relation(S, S, "nope")


@pytest.mark.parametrize("rel", relations.RELATIONS)
def test_compare_evaluates_each_weight_once_per_argument(rel, monkeypatch):
    # sim and sim_c pass both sample arrays to both directions, and the
    # dilation C1 = 1 and eps = 1 reuse sigma's samples on the grid
    seen = collections.Counter()
    evaluate = core.WeightFunction.evaluate

    def counting(self, t):
        seen[id(self), np.asarray(t, dtype=float).tobytes()] += 1
        return evaluate(self, t)

    monkeypatch.setattr(core.WeightFunction, "evaluate", counting)
    relations.compare(Power(0.5), LogPower(2.0), rel)
    assert seen and max(seen.values()) == 1


@pytest.mark.parametrize("pair", [(Power(1.0), Power(0.5)),
                                  (Power(0.5), Log()),
                                  (Power(1.0), Log()),
                                  (Power(0.5), Power(0.5))])
def test_bridges_consistent(pair):
    relations.bridge_check(*pair)  # an inconsistent pair raises BridgeViolation


def test_bridge_check_raises_on_a_broken_link(monkeypatch):
    # with om6, sigma preceq tau transfers to preceq_c; a checker that
    # certifies preceq but refutes preceq_c contradicts itself
    from weightlab import conditions

    def check(w, cond, grid=None):
        return holds({"forced": True}) if cond == "om6" else inconclusive(notes="forced")

    def compare(sigma, tau, rel, grid=None):
        v = {"preceq": holds({"forced": True}), "preceq_c": fails({"forced": True})}
        return relations.RelationVerdict(v.get(rel, inconclusive(notes="forced")), rel)

    monkeypatch.setattr(conditions, "check_condition", check)
    monkeypatch.setattr(relations, "compare", compare)
    with pytest.raises(BridgeViolation, match="om6 holds and preceq holds but preceq_c fails"):
        relations.bridge_check(Power(1.0), Power(0.5))


# --------------------------------------------------------------------------
# weight matrices
# --------------------------------------------------------------------------

def test_matrix_construction():
    W = relations.WeightMatrix.exponential(Power(0.5))
    assert W.kind == "exponential"
    assert W.weight_at(2.0).evaluate(4.0) == pytest.approx(4.0)
    D = relations.WeightMatrix.dilatation(Power(0.5))
    assert D.weight_at(4.0).evaluate(1.0) == pytest.approx(2.0)
    bad = relations.WeightMatrix.exponential  # monotonicity gate on dilatation
    from weightlab import PiecewiseLogLinear
    nonmono = PiecewiseLogLinear([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])
    with pytest.raises(NotMonotone):
        relations.WeightMatrix.dilatation(nonmono)


def test_matrix_relation_reduces_to_scalar():
    S = relations.WeightMatrix.exponential(Power(1.0))
    T = relations.WeightMatrix.exponential(Power(0.5))
    ells = (0.5, 1.0, 2.0)
    assert relations.matrix_relation(S, T, "beurling", ells).verdict.holds
    assert relations.matrix_relation(S, T, "roumieu", ells).verdict.holds
    assert relations.matrix_relation(S, T, "triangle", ells).verdict.holds
    # the reverse direction is refuted, in agreement with t <= C sqrt(t) + C failing
    v = relations.matrix_relation(T, S, "beurling", ells).verdict
    assert v.fails
    assert "reduction" in v.witness


@pytest.mark.parametrize("rel", ["beurling", "roumieu"])
def test_a_refuting_reduction_discards_the_partners_the_search_found(rel):
    # the search finds a partner n (or ell) for every index on its grid,
    # since log t grows slowly, but log^2 <= C log + C fails: the scalar
    # preceq reduction wins, and no index map is reported
    S = relations.WeightMatrix.exponential(Log())
    T = relations.WeightMatrix.exponential(LogPower(2))
    rv = relations.matrix_relation(S, T, rel)
    assert rv.fails
    assert set(rv.verdict.witness) == {"reduction"}
    assert rv.verdict.notes == (f"scalar preceq reduction refutes {rel}; "
                                "direct index map discarded as a horizon artifact")
    assert rv.index_map is None


@pytest.mark.xfail(strict=True, reason="wrong verdict: the triangle_c reduction reads the "
                   "grid to 1e6 only, ROADMAP item 14")
def test_a_dilatation_triangle_past_the_reduction_grid_holds():
    # log^2(1 + ell t) <= (n t)^(1/4) + D holds for every ell and n, but
    # log^2(1 + t) crosses t^(1/4) near 2.15e11, which the search grid (to
    # 1e12) reaches and the reduction grid (to 1e6) does not
    S = relations.WeightMatrix.dilatation(Power(0.25))
    T = relations.WeightMatrix.dilatation(LogPower(2))
    assert relations.matrix_relation(S, T, "triangle").holds


def test_matrix_relation_reflexive():
    S = relations.WeightMatrix.exponential(Power(0.5))
    v = relations.matrix_relation(S, S, "beurling", (0.5, 1.0, 2.0))
    assert v.verdict.holds
    assert v.index_map  # concrete (ell, n, C) pairs recorded


def test_a_grid_whose_search_grid_leaves_the_double_range_is_refused():
    # the partner search grid would end at t_max * 1e6 = inf; the refusal
    # names the t_max the caller passed
    S = relations.WeightMatrix.exponential(Power(0.5))
    T = relations.WeightMatrix.exponential(Power(0.25))
    with pytest.raises(ValidationFailed, match=r"^t_max = 1e\+303 is too large: .* t_max \* 1e6"):
        relations.matrix_relation(S, T, "beurling", grid=GridSpec(1e-2, 1e303, 600))


@pytest.mark.parametrize("rel", relations.RELATIONS)
def test_compare_refuses_a_grid_of_two_decades_with_the_one_guard(rel):
    # [1, 10^3] holds two decades (hi/10, hi] counted down from 10^3, the
    # partition the trend rules read: compare's guard refuses it for every
    # relation, le included, with the guard's own message
    with pytest.raises(HorizonTooSmall, match=r"^trend needs a grid of at least 3 decades "
                                              r"\(hi/10, hi\] counted down from its last "
                                              r"point, not 2$"):
        relations.compare(Power(0.5), Power(1.0), rel, GridSpec(1.0, 1e3, 91))
    # a grid just past 10^3 holds three
    grid = GridSpec(1.0, 1.001e3, 91)
    assert len(grid.require_decades(3)) == 3
    relations.compare(Power(0.5), Power(1.0), rel, grid)


def test_dilatation_matrix_reduces_to_shifted_scalar():
    S = relations.WeightMatrix.dilatation(Power(1.0))
    T = relations.WeightMatrix.dilatation(Power(0.5))
    ells = (0.5, 1.0, 2.0)
    assert relations.matrix_relation(S, T, "beurling", ells).verdict.holds
    assert relations.matrix_relation(T, S, "beurling", ells).verdict.fails


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.2, max_value=1.0),
       st.floats(min_value=0.2, max_value=1.0))
def test_exponential_type_matches_scalar_order(a, b):
    sigma, tau = Power(a), Power(b)
    scalar = relations.compare(sigma, tau, "preceq").verdict
    S = relations.WeightMatrix.exponential(sigma)
    T = relations.WeightMatrix.exponential(tau)
    matrix = relations.matrix_relation(S, T, "beurling", (0.5, 1.0, 2.0)).verdict
    if not (scalar.inconclusive or matrix.inconclusive):
        assert matrix.holds == scalar.holds


@pytest.mark.parametrize("ell", [math.inf, math.nan])
def test_weight_at_refuses_non_finite_index(ell):
    for W in (relations.WeightMatrix.exponential(Power(0.5)),
              relations.WeightMatrix.dilatation(Power(0.5))):
        with pytest.raises(ValidationFailed):
            W.weight_at(ell)


# --------------------------------------------------------------------------
# mixed doubling: tau^ell(2t) <= sigma^n(t) + L
# --------------------------------------------------------------------------

_DOUBLING_TG = GridSpec(1e-2, 1e6, 400).points()
_FIRST_N = 2.0 ** -12      # the least index of the extended partner grid
_LAST_N = 2.0 ** 12        # the largest


def _pow2_at_least(x):
    """The least power of two >= x, but at least 1: the least constant of
    the grid the search certifies L on."""
    return max(1.0, 2.0 ** math.ceil(math.log2(x))) if x > 0 else 1.0


def _first_partner(threshold):
    """The least index of the extended grid >= threshold."""
    return max(_FIRST_N, 2.0 ** math.ceil(math.log2(threshold)))


_EXP, _DIL = relations.WeightMatrix.exponential, relations.WeightMatrix.dilatation

# (S, T, least admissible n for row ell of T, the gap's supremum at that n);
# every partner here is the least grid index past a closed-form threshold
_DOUBLING_CASES = {
    # (2 ell t)^a = sigma^(2 ell)(t) exactly
    **{f"dilatation-t^{a}": (_DIL(Power(a)), _DIL(Power(a)),
                             lambda ell: 2 * ell, lambda ell, n: 0.0)
       for a in (0.25, 0.5, 1.0, 2.0)},
    # ell (2t)^a = 2^a ell t^a
    **{f"exponential-t^{a}": (_EXP(Power(a)), _EXP(Power(a)),
                              lambda ell, a=a: 2.0 ** a * ell, lambda ell, n: 0.0)
       for a in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)},
    # ell log(1 + 2t) - ell log(1 + t) rises to ell log 2
    "exponential-log": (_EXP(Log()), _EXP(Log()),
                        lambda ell: ell, lambda ell, n: ell * math.log(2.0)),
    # log(1 + 2 ell t) - log(1 + n t) rises to log(2 ell / n) for any n
    "dilatation-log": (_DIL(Log()), _DIL(Log()),
                       lambda ell: _FIRST_N, lambda ell, n: math.log(2 * ell / n)),
    # ell sqrt(2t) <= sqrt(n t) iff n >= 2 ell^2
    "dilatation-below-exponential": (_DIL(Power(0.5)), _EXP(Power(0.5)),
                                     lambda ell: 2 * ell ** 2, lambda ell, n: 0.0),
    # sqrt(2 ell t) <= n sqrt(t) iff n >= sqrt(2 ell)
    "exponential-below-dilatation": (_EXP(Power(0.5)), _DIL(Power(0.5)),
                                     lambda ell: math.sqrt(2 * ell), lambda ell, n: 0.0),
}


@pytest.mark.parametrize("case", _DOUBLING_CASES)
def test_mixed_doubling_partners_match_the_closed_form(case):
    S, T, threshold, gap = _DOUBLING_CASES[case]
    found, binding = relations.mixed_doubling_search(S, T, DEFAULT_ELL_GRID, _DOUBLING_TG)
    expected = {}
    for ell in DEFAULT_ELL_GRID:
        n = _first_partner(threshold(ell))
        if n > _LAST_N:
            # no row of S is large enough: the search stops at this ell
            assert (found, binding) == (None, ell)
            return
        expected[ell] = {"n": n, "L": _pow2_at_least(gap(ell, n))}
    assert binding is None
    assert found == expected


def _explicit(base, ells):
    """An explicit matrix whose row ell is ell * base."""
    return relations.WeightMatrix.explicit((ell, Scaled(ell, base)) for ell in ells)


def test_explicit_matrix_relation():
    S, T = _explicit(Power(0.5), (1.0, 2.0, 4.0)), _explicit(Log(), (1.0, 2.0))
    v = relations.matrix_relation(S, T, "beurling")
    assert v.holds
    # every row of T has the first row of S as partner
    assert {ell: entry["n"] for ell, entry in v.index_map.items()} == {1.0: 1.0, 2.0: 1.0}
    assert relations.matrix_relation(S, T, "triangle").holds


def test_explicit_matrix_refusals():
    with pytest.raises(ValidationFailed, match="at least one entry"):
        relations.WeightMatrix.explicit([])
    with pytest.raises(ValidationFailed, match="strictly increasing"):
        relations.WeightMatrix.explicit([(2.0, Power(0.5)), (1.0, Power(0.5))])
    with pytest.raises(ValidationFailed, match="not present"):
        _explicit(Power(0.5), (1.0, 2.0)).weight_at(3.0)


def test_inclusion_experiment_on_an_explicit_matrix_is_a_typed_error():
    # the test battery reads rows 0.5, 1 and 2 of S, which has no row 0.5
    S, T = _explicit(Power(0.5), (1.0, 2.0, 4.0)), _explicit(Log(), (1.0, 2.0))
    with pytest.raises(ValidationFailed, match="index 0.5 not present"):
        lpspace.inclusion_experiment(S, T, 2.0)
