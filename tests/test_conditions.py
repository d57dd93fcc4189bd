import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weightlab import (Dilated, Exp, GridSpec, Log, LogPower, Normalized,
                       PiecewiseLogLinear, Power, Scaled, WeightFunction,
                       conditions, core, counterexample, growth, load_weight)
from weightlab.errors import (ChainViolation, HorizonTooSmall, QuadratureFailure,
                              WeightlabError)
from weightlab.verdict import Status, fails, holds, inconclusive

from conftest import _Opaque

H, F = "holds", "fails"

# condition id -> expected status, derived analytically per family
TRUTH = {
    Power(0.5): dict(om1=H, om2=H, om3=H, om3w=H, om4=H, om5=H, om6=H,
                     om_nq=H, om_snq=H, om_sub=H, alpha0=H, normalized=F,
                     nondecreasing=H, unbounded_limit=H),
    Power(1.0): dict(om1=H, om2=H, om3=H, om3w=H, om4=H, om5=F, om6=H,
                     om_nq=F, om_snq=F, om_sub=H, alpha0=H, normalized=F,
                     nondecreasing=H, unbounded_limit=H),
    Log(): dict(om1=H, om2=H, om3=F, om3w=H, om4=H, om5=H, om6=F,
                om_nq=H, om_snq=H, om_sub=H, alpha0=H, normalized=F,
                nondecreasing=H, unbounded_limit=H),
    LogPower(2.0): dict(om1=H, om2=H, om3=H, om3w=H, om4=H, om5=H, om6=F,
                        om_nq=H, om_snq=H, om_sub=F, alpha0=H, normalized=F,
                        nondecreasing=H, unbounded_limit=H),
    Exp(): dict(om1=F, om2=F, om3=H, om3w=H, om4=H, om5=F, om6=H,
                om_nq=F, om_snq=F, om_sub=F, alpha0=F, normalized=F,
                nondecreasing=H, unbounded_limit=H),
}


@pytest.mark.parametrize("w", list(TRUTH), ids=repr)
def test_family_truth_table(w):
    got = {c: conditions.check_condition(w, c).status.value
           for c in conditions.CONDITION_IDS}
    assert got == TRUTH[w]


def test_unknown_condition_rejected():
    with pytest.raises(ValueError) as exc:
        conditions.check_condition(Power(1.0), "om99")
    assert isinstance(exc.value, WeightlabError)


def test_verdicts_carry_evidence():
    v = conditions.check_condition(Power(0.5), "om1")
    assert v.status is Status.HOLDS and v.certificate is not None
    v = conditions.check_condition(Exp(), "om1")
    assert v.status is Status.FAILS and v.witness is not None


def test_convexity_witness_on_profile(plateau_profile_small):
    v = conditions.check_condition(plateau_profile_small.weight, "om4")
    assert v.fails
    # the witness pins the first slope inversion, i.e. the first plateau
    assert v.witness["u"] == pytest.approx(plateau_profile_small.xbar[0])


def test_subadditivity_witness_is_a_violation():
    # closed-form dispatch covers the bare family; the wrapper goes through
    # the numeric scan, which must return a concrete violating pair
    w = Normalized(LogPower(2.0))
    v = conditions.check_condition(w, "om_sub")
    assert v.fails
    s, t = v.witness["s"], v.witness["t"]
    assert w.evaluate(s + t) > w.evaluate(s) + w.evaluate(t)


def test_normalized_wrapper_preserves_robust_conditions():
    base = Power(0.5)
    n = Normalized(base)
    for cond in ("om1", "om3", "om5", "om_nq", "alpha0"):
        assert conditions.check_condition(n, cond).status is \
            conditions.check_condition(base, cond).status
    assert conditions.check_condition(n, "normalized").holds


def test_scaled_inherits_conditions():
    for cond in ("om1", "om3", "om_nq"):
        assert conditions.check_condition(Scaled(3.0, Power(0.5)), cond).holds


def test_classify_power_half():
    rep = conditions.classify(Power(0.5))
    classes = {k: v.status.value for k, v in rep.classes.items()}
    assert classes["weight_function"] == H
    assert classes["bmt"] == H
    assert classes["bb"] == H
    assert classes["matrix_admissible"] == H
    d = rep.to_dict()
    assert set(d) >= {"conditions", "classes"}


def test_classify_log():
    rep = conditions.classify(Log())
    classes = {k: v.status.value for k, v in rep.classes.items()}
    # log weight: quasianalytic-side conditions hold but om3 fails
    assert classes["bmt"] == F
    assert classes["bb"] == H
    assert classes["matrix_admissible"] == F


def test_implication_chain_consistent():
    for w in (Power(0.5), Log(), Power(1.0)):
        conditions.check_implication_chain(w)  # a broken link raises ChainViolation


def test_implication_chain_raises_on_a_broken_link(monkeypatch):
    # om_snq => om_nq: a checker that certifies om_snq but refutes om_nq
    # contradicts itself
    forced = {"om_snq": holds({"forced": True}), "om_nq": fails({"forced": True})}

    def check(w, cond, grid=conditions.DEFAULT_GRID):
        return forced.get(cond, inconclusive(notes="forced"))

    monkeypatch.setattr(conditions, "check_condition", check)
    with pytest.raises(ChainViolation, match="om_snq holds but om_nq fails"):
        conditions.check_implication_chain(Power(0.5))


@given(st.floats(min_value=0.15, max_value=0.95))
def test_power_alpha_interior(alpha):
    w = Power(alpha)
    assert conditions.check_condition(w, "om5").holds
    assert conditions.check_condition(w, "om_nq").holds
    assert conditions.check_condition(w, "om_sub").holds


# the wrapped weights of the oracle test
ORACLE_WEIGHTS = {
    "t^0.25": Power(0.25), "t^0.5": Power(0.5), "t": Power(1.0),
    "t^1.5": Power(1.5), "t^2": Power(2.0), "log": Log(), "log^2": LogPower(2.0),
    "exp": Exp(), "2t^0.5": Scaled(2.0, Power(0.5)), "log(4t)": Dilated(4.0, Log()),
}


@pytest.mark.parametrize("name,cond", [
    (name, cond) for name in ORACLE_WEIGHTS for cond in conditions.CONDITION_IDS])
def test_numeric_verdicts_agree_with_the_closed_form(name, cond):
    # the opaque wrapper forces the numeric checkers; a definitive verdict
    # must be the closed-form answer for the wrapped family
    w = ORACLE_WEIGHTS[name]
    try:
        v = conditions.check_condition(_Opaque(w), cond)
    except WeightlabError:
        return
    truth = core.closed_form(w, cond)
    if not v.inconclusive and truth is not None:
        assert v.holds == truth


# finite profiles, log-type at infinity, whose final ray decides the
# asymptotic conditions exactly
RAY_PROFILES = {
    "staircase J=60": counterexample.construct(counterexample.default_delta(60), 0.5, 60).weight,
    "(1,1),(3,4)": PiecewiseLogLinear([(0, 0), (1, 1), (3, 4)]),
    "(1,2)": PiecewiseLogLinear([(0, 0), (1, 2)]),
    "(2,4),(5,5)": PiecewiseLogLinear([(0, 0), (2, 4), (5, 5)]),
    "(1,30)": PiecewiseLogLinear([(0, 0), (1, 30)]),
}


@pytest.mark.parametrize("name,cond", [
    (name, cond) for name in RAY_PROFILES for cond in conditions._RAY])
def test_numeric_verdicts_on_opaque_profiles_agree_with_the_final_ray(name, cond):
    p = RAY_PROFILES[name]
    v = conditions.check_condition(_Opaque(p), cond)
    assert v.inconclusive or v.status == conditions.check_condition(p, cond).status


class _Hump(WeightFunction):
    """w(t) = t / (1 + t^2 / 25): rises to 2.5 at t = 5, then falls."""

    nondecreasing = False

    def _eval(self, t):
        return t / (1.0 + t * t / 25.0)


@pytest.mark.parametrize("w", [
    Dilated(4.0, PiecewiseLogLinear([[0, 0], [1, 1], [3, 4]])),
    _Opaque(Power(0.5)),
    _Opaque(Log()),
], ids=["dilated_profile", "opaque_sqrt", "opaque_log"])
def test_nondecreasing_holds_on_increasing_weights(w):
    # the [0, 1] samples and the grid overlap; they are scanned in order
    assert conditions.check_condition(w, "nondecreasing").holds


def test_nondecreasing_witness_on_a_falling_weight():
    w = _Hump()
    v = conditions.check_condition(w, "nondecreasing")
    assert v.fails
    left, right = v.witness["t_left"], v.witness["t_right"]
    assert left < right
    assert w.evaluate(right) - w.evaluate(left) == pytest.approx(v.witness["drop"])
    assert v.witness["drop"] < 0


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


def test_bb_rescue_lets_programming_errors_through(monkeypatch):
    # t^1.5 is not subadditive, so classify tries the kappa rescue, which
    # reads om_snq; the opaque copy has no closed form for om_snq
    monkeypatch.setattr(conditions, "_check_om_snq", _raise(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        conditions.classify(_Opaque(Power(1.5)))


def test_bb_rescue_horizon_problem_is_inconclusive(monkeypatch):
    monkeypatch.setattr(conditions, "_check_om_snq", _raise(HorizonTooSmall("too short")))
    rep = conditions.classify(_Opaque(Power(1.5)))
    assert rep.classes["bb"].fails
    assert rep.classes["bb_equivalent"].inconclusive


def test_the_bb_rescue_reads_om_snq_without_a_kappa_call(monkeypatch):
    # om_nq stops at its first, divergent kappa and om_snq makes one batch
    # call; the rescue adds none
    calls = []
    kappa = growth.kappa

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kappa(*args, **kwargs)

    monkeypatch.setattr(growth, "kappa", counted)
    rep = conditions.classify(_Opaque(Power(1.5)))
    assert len(calls) == 2
    assert rep.classes["bb"].fails and rep.classes["bb_equivalent"].inconclusive
    # a closed-form om_snq needs no kappa at all
    calls.clear()
    assert growth.kappa_equivalence_check(Power(0.5)).holds
    assert calls == []


def test_sequence_unboundedness_is_exact():
    # past its last corner phi rises with slope P, so the profile rule holds
    w = load_weight({"sequence": [0.75 * k * k for k in range(60)]})
    v = conditions.check_condition(w, "unbounded_limit")
    assert v.holds and v.certificate == {"exact": True, "final_slope": 59.0}


def test_a_horizon_failure_leaves_one_condition_inconclusive():
    # the 60-term sqrt(k!) sequence has no phi past t ~ 7.7, and e^t leaves
    # the double range past t ~ 709: each check that looks further is
    # inconclusive, and classify still reports on the others
    w = load_weight({"sequence": [0.5 * math.lgamma(k + 1) for k in range(60)]})
    rep = conditions.classify(w)
    om1 = rep.conditions["om1"]
    assert om1.inconclusive and om1.notes.startswith("HorizonTooSmall: ")
    assert om1.horizon == conditions.DEFAULT_GRID.describe()
    assert rep.conditions["om4"].holds and rep.conditions["unbounded_limit"].holds
    v = conditions.check_condition(_Opaque(Exp()), "om1")
    assert v.inconclusive and v.notes.startswith("NonFinite: ")
    # a grid shorter than two decades is still refused
    with pytest.raises(HorizonTooSmall):
        conditions.check_condition(w, "om1", GridSpec(1.0, 50.0))


def test_a_grid_of_one_decade_is_refused():
    # [1, 100] holds one decade (hi/10, hi] counted down from 100; the
    # asymptotic conditions need two
    with pytest.raises(HorizonTooSmall, match=r"at least 2 decades .* not 1$"):
        conditions.check_condition(Power(0.5), "om1", GridSpec(1.0, 100.0))
    assert conditions.check_condition(Power(0.5), "om1", GridSpec(1.0, 101.0)).holds


def test_a_linear_grid_from_below_zero_has_decades_above_zero():
    # the decades (hi/10, hi] run down towards 0 and stop there
    grid = GridSpec(-1.0, 1e6, 600, "linear")
    assert conditions.check_condition(_Opaque(Power(0.5)), "om1", grid).holds


def test_the_unboundedness_trend_reads_one_maximum_per_decade():
    # the 7 decades (hi/10, hi] of the default grid, hi = 1, 10, ..., 10^6;
    # the points up to 0.1 lie in none
    w = _Opaque(Power(0.5))
    pts = conditions.DEFAULT_GRID.points()
    masks = [(pts > hi / 10) & (pts <= hi) for hi in 10.0 ** np.arange(7)]
    v = conditions.check_condition(w, "unbounded_limit")
    assert v.holds
    assert v.certificate["decade_maxima"] == [float(np.max(w.evaluate(pts[m]))) for m in masks]


def test_om_snq_names_the_first_y_past_the_last_corner():
    # om_snq's first y, 1, already takes log(yT) past the last corner of
    # the 60-term sqrt(k!) sequence: the note names that point, not one a
    # larger y reaches first
    w = load_weight({"sequence": [0.5 * math.lgamma(k + 1) for k in range(60)]})
    note = conditions.classify(w).conditions["om_snq"].notes
    assert note.endswith("at u=13.8155, past the last corner u=2.03877")


class _Steep(WeightFunction):
    """log w(e^u) rises with slope 1/2, but with slope 2 on [14, 19]: at
    T = 1e6 the kappa integrand fails the decay test for y from about 11
    to 2800, and passes it below and above."""

    def _phi_unchecked(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(0.5 * u + 1.5 * np.clip(u - 14.0, 0.0, 5.0))


def test_kappa_checks_stop_at_the_first_divergent_y(monkeypatch):
    # a quadrature failure that only a y past the first divergent one meets
    # must not replace the verdict that divergent y gives
    w = _Steep()
    late = w.evaluate(1e3)
    integrate = growth._integrate

    def failing(g, breaks):
        # g at v = 0 is w(y) for the y of each integral
        if np.max(g(np.zeros((len(breaks), 1)), np.arange(len(breaks)))) >= late:
            raise QuadratureFailure("integrated a y past the first divergent one")
        return integrate(g, breaks)

    monkeypatch.setattr(growth, "_integrate", failing)
    ys = np.geomspace(1.0, 1e5, 30)  # om_snq's y grid on the default grid
    first = next(y for y in ys if growth.kappa(w, float(y)).divergent)
    assert 10.0 < first < 11.0
    v = conditions._check_om_snq(w, conditions.DEFAULT_GRID)
    assert v.inconclusive and v.notes == f"kappa divergent at y={first}"
    assert growth.kappa_equivalence_check(w).to_dict() == v.to_dict()
