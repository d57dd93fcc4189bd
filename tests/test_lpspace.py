import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import Log, LogPower, Power, load_weight, lpspace, relations
from weightlab.verdict import to_json


@pytest.fixture(scope="module")
def exp_matrix():
    return relations.WeightMatrix.exponential(Power(1.0))


@pytest.fixture(scope="module")
def gaussian():
    t = np.linspace(0.0, 40.0, 4001)
    return lpspace.SampledFunction(tuple(t), tuple(np.exp(-t * t)))


def test_sphere_factor():
    assert lpspace.sphere_factor(1) == pytest.approx(2.0)
    assert lpspace.sphere_factor(2) == pytest.approx(2.0 * math.pi)
    assert lpspace.sphere_factor(3) == pytest.approx(4.0 * math.pi)


def test_unweighted_gaussian_l2(gaussian):
    # near-zero weight: || e^{-t^2} ||_2 with radial factor 2 on the line
    from weightlab import Scaled
    res = lpspace.weighted_norm(gaussian, Scaled(1e-12, Log()), 2.0)
    expect = math.sqrt(math.sqrt(math.pi / 2.0))
    assert res.value == pytest.approx(expect, rel=1e-3)


def test_norm_scaling_homogeneity(gaussian):
    base = lpspace.weighted_norm(gaussian, Log(), 2.0)
    doubled = lpspace.SampledFunction(gaussian.ts, 2.0 * gaussian.values)
    double = lpspace.weighted_norm(doubled, Log(), 2.0)
    assert double.value == pytest.approx(2.0 * base.value, rel=1e-9)


def test_sup_norm_is_weighted_peak(gaussian):
    res = lpspace.weighted_norm(gaussian, Log(), math.inf)
    expect = float(np.max(gaussian.values
                          * (1.0 + gaussian.ts)))  # e^{log(1+t)} = 1 + t
    assert res.value == pytest.approx(expect, rel=1e-9)


def test_divergent_norm_detected():
    t = np.linspace(0.0, 60.0, 6001)
    f = lpspace.SampledFunction(tuple(t), tuple(np.ones_like(t)))
    res = lpspace.weighted_norm(f, Power(1.0), math.inf)
    assert res.divergent


def test_nontriviality_witness(exp_matrix):
    psi, rep = lpspace.nontriviality_witness(exp_matrix, math.inf)
    assert rep.all_finite
    psi2, rep2 = lpspace.nontriviality_witness(exp_matrix, 2.0)
    assert rep2.all_finite


def test_inclusion_experiment_forward():
    S = relations.WeightMatrix.exponential(Power(1.0))
    T = relations.WeightMatrix.exponential(Power(0.5))
    er = lpspace.inclusion_experiment(S, T, 2.0, "beurling")
    assert er.relation.verdict.holds
    assert er.forward_rows and er.all_ok
    assert not er.degraded


def test_inclusion_experiment_converse():
    S = relations.WeightMatrix.exponential(Power(0.5))
    T = relations.WeightMatrix.exponential(Power(1.0))
    er = lpspace.inclusion_experiment(S, T, 2.0, "beurling")
    assert er.relation.verdict.fails
    assert er.converse_rows and er.all_ok
    assert all(r["kind"] == "divergent" for r in er.converse_rows)


# sha256 of the report's JSON (sorted keys) for the two experiments of the
# numeric benchmark workload, and for one whose witness is built on a
# dilatation of log(1 + t)^1.5
_INCLUSION_DIGESTS = {
    "exp:t12 dil:log beurling":
        "bf730e58a270fbaa88fafa52036abbc926ba6a3d14c5f15a4922b6d37f233418",
    "dil:log2 exp:t12 roumieu":
        "eb88b139fda42f7379bb0119d37d8ea2b1b3c655f1c1ab6303f5609989352a02",
    "dil:log15 exp:log roumieu":
        "698f426ccc259c80d2a2fc1ae3ad80ee6db4f2a5fdf49fef4a18d00e1e46d96e",
}
_MATRIX_KINDS = {"exp": relations.WeightMatrix.exponential,
                 "dil": relations.WeightMatrix.dilatation}
_MATRIX_BASES = {"t12": Power(0.5), "log": Log(), "log2": LogPower(2.0), "log15": LogPower(1.5)}


def _matrix(side):
    kind, base = side.split(":")
    return _MATRIX_KINDS[kind](_MATRIX_BASES[base])


@pytest.mark.parametrize("key", sorted(_INCLUSION_DIGESTS))
def test_inclusion_experiment_reports_are_pinned(key):
    s, t, kind = key.split()
    rep = lpspace.inclusion_experiment(_matrix(s), _matrix(t), 2.0, kind)
    assert rep.relation.holds and len(rep.forward_rows) == 18
    text = json.dumps(to_json(rep.to_dict()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _INCLUSION_DIGESTS[key]


def test_inclusion_experiment_decides_mixed_doubling_on_both_sides():
    # w(t) = t^(1/2), doubled: w(2t) is the dilatation row n = 2 itself, and
    # w(2t) = sqrt(2) w(t) lies below the exponential row n = 2, 2 w(t)
    S = relations.WeightMatrix.dilatation(Power(0.5))
    T = relations.WeightMatrix.exponential(Power(0.5))
    er = lpspace.inclusion_experiment(S, T, 2.0)
    for side in ("mixed_doubling_S", "mixed_doubling_T"):
        v = er.hypotheses[side]
        assert v.holds
        assert v.certificate["index_map"] == {1.0: {"n": 2.0, "L": 1.0}}
    assert not er.degraded


_EXP, _DIL = relations.WeightMatrix.exponential, relations.WeightMatrix.dilatation


# (S, T, each side's partner n and constant L for ell = 1, None where the
# side has none): exponential row 1 of t^a doubled is 2^a t^a, whose
# partner is the least grid row >= 2^a, and the grid ends at 2^12; row 1
# of log(1 + t) doubled stays within log 2 of itself; and any dilatation
# row of log(1 + t), the least one 2^-12 too, is within log(2 * 2^12) < 16
# of log(1 + 2t)
@pytest.mark.parametrize("S,T,partner_S,partner_T", [
    (_EXP(Power(1.0)), _EXP(Power(0.5)), (2.0, 1.0), (2.0, 1.0)),
    (_EXP(Power(2.0)), _EXP(Power(1.0)), (4.0, 1.0), (2.0, 1.0)),
    (_EXP(Power(0.5)), _EXP(Log()), (2.0, 1.0), (1.0, 1.0)),
    (_DIL(Power(1.0)), _DIL(Power(0.5)), (2.0, 1.0), (2.0, 1.0)),
    (_DIL(Log()), _DIL(Log()), (2.0 ** -12, 16.0), (2.0 ** -12, 16.0)),
    (_EXP(Power(0.5)), _EXP(Power(13.0)), (2.0, 1.0), None),
    (_EXP(Power(13.0)), _EXP(Power(0.5)), None, (2.0, 1.0)),
    (_EXP(Power(12.5)), _EXP(Power(12.5)), None, None),
], ids=["exp-t", "exp-t^2", "exp-log", "dil-t", "dil-log", "T-undoubled", "S-undoubled",
        "both-undoubled"])
def test_inclusion_experiment_degrades_exactly_where_a_side_has_no_doubling_partner(
        S, T, partner_S, partner_T):
    er = lpspace.inclusion_experiment(S, T, 2.0)
    for side, partner in (("mixed_doubling_S", partner_S), ("mixed_doubling_T", partner_T)):
        v = er.hypotheses[side]
        if partner is None:
            assert v.inconclusive and v.notes == "undecided at ell=1.0"
        else:
            n, L = partner
            assert v.holds and v.certificate["index_map"] == {1.0: {"n": n, "L": L}}
    assert er.degraded == (partner_S is None or partner_T is None)


@pytest.mark.parametrize("seq_side", ["S", "T"])
def test_a_row_past_the_stored_terms_leaves_the_report_degraded(seq_side):
    # the 60-term sequence 0.06 k^2 has no value past its last corner, near
    # t = e^7.02, inside the doubling search's grid and the relation's
    seq = _DIL(load_weight({"sequence": [0.06 * k * k for k in range(60)]}))
    S, T = (seq, _DIL(Log())) if seq_side == "S" else (_DIL(Log()), seq)
    er = lpspace.inclusion_experiment(S, T, 2.0)
    assert er.degraded
    for side, v in er.hypotheses.items():
        if side.endswith(seq_side):
            assert v.inconclusive and v.notes.startswith("HorizonTooSmall: ")
        else:
            assert v.holds
    assert er.relation.inconclusive
    assert er.relation.verdict.notes.startswith("HorizonTooSmall: ")
    assert er.forward_rows == () and er.converse_rows == ()


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=1.0, max_value=4.0))
def test_norm_monotone_in_weight(c):
    t = np.linspace(0.0, 20.0, 1001)
    f = lpspace.SampledFunction(tuple(t), tuple(np.exp(-t)))
    small = lpspace.weighted_norm(f, Log(), 2.0)
    from weightlab import Scaled
    big = lpspace.weighted_norm(f, Scaled(c, Log()), 2.0)
    assert big.value >= small.value - 1e-12
