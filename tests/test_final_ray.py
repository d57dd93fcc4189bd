"""The final-ray rule: a nondecreasing finite profile that ends in the ray
phi(u) = s u + c with s > 0 is s log t + c past its last corner, so every
asymptotic condition but unboundedness is decided as for log(1 + t), with
no sample.  Sequences, opaque copies, non-monotone profiles and s = 0 keep
their own paths."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import (Dilated, Log, Normalized, PiecewiseLogLinear, Scaled, WeightFunction,
                       conditions, conjugate, core, load_weight)
from weightlab.errors import NotMonotone, WeightlabError
from weightlab.verdict import to_json

from conftest import _Opaque

RAY = ("om1", "om2", "om3", "om3w", "om5", "om6", "om_nq", "om_snq", "alpha0")
LOG_TRUTH = {cond: core.closed_form(Log(), cond) for cond in RAY}


class _Counted(_Opaque):
    """An opaque copy that counts its evaluations."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def _eval(self, t):
        self.calls += 1
        return super()._eval(t)


@st.composite
def _rising_profiles(draw):
    """A nondecreasing profile from (0, 0) whose last slope is positive."""
    n = draw(st.integers(min_value=1, max_value=6))
    widths = draw(st.lists(st.floats(0.05, 8.0), min_size=n, max_size=n))
    slopes = draw(st.lists(st.floats(0.0, 6.0), min_size=n - 1, max_size=n - 1))
    slopes.append(draw(st.floats(1e-3, 6.0)))
    us = np.concatenate([[0.0], np.cumsum(widths)])
    vs = np.concatenate([[0.0], np.cumsum(np.multiply(slopes, widths))])
    return PiecewiseLogLinear(list(zip(us, vs)))


def _wrapped(w, c):
    return {"profile": w, "scaled": Scaled(c, w), "dilated": Dilated(c, w),
            "normalized": Normalized(w)}


def _no_sample(*args, **kwargs):
    raise AssertionError("the final-ray rule sampled the weight")


@settings(max_examples=40)
@given(_rising_profiles(), st.floats(0.2, 5.0))
def test_a_rising_profile_and_its_wrappers_are_decided_as_log(w, c):
    for name, v in _wrapped(w, c).items():
        s = float(v.profile.final_slope)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(WeightFunction, "evaluate", _no_sample)
            mp.setattr(WeightFunction, "phi", _no_sample)
            verdicts = {cond: conditions.check_condition(v, cond) for cond in RAY}
        for cond, got in verdicts.items():
            assert got.holds == LOG_TRUTH[cond] and not got.inconclusive, (name, cond)
            assert (got.certificate if got.holds else got.witness) == \
                {"final_slope": s, "equivalent_to": "log(1+t)"}, (name, cond)
            assert "truncated profile" in got.notes
        # the unboundedness rule keeps its own exact certificate
        assert conditions.check_condition(v, "unbounded_limit").certificate == \
            {"exact": True, "final_slope": s}


@settings(max_examples=10)
@given(_rising_profiles(), st.floats(0.2, 5.0))
def test_an_opaque_copy_keeps_the_numeric_path(w, c):
    for name, v in _wrapped(w, c).items():
        for cond in RAY:
            o = _Counted(v)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = conditions.check_condition(o, cond)
            except WeightlabError:
                got = None
            assert o.calls > 0, (name, cond)
            if got is not None:
                assert "final_slope" not in (got.certificate or got.witness or {})


# a subnormal value on the rising part made the ratios of om3, om3w and
# alpha0 overflow with a numpy warning; the ratio is inf, without a warning
@pytest.mark.parametrize("cond", ["om3", "om3w", "alpha0"])
def test_an_opaque_ratio_past_the_double_range_prints_no_warning(cond):
    w = _Opaque(PiecewiseLogLinear([(0.0, 0.0), (1.0, 5e-324), (2.0, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not conditions.check_condition(w, cond).fails

def _parent_path(w, cond):
    """The verdict, or the error, of `cond` with the final-ray rule off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "_final_ray", lambda w, cond: None)
        try:
            return to_json(conditions.check_condition(w, cond).to_dict())
        except WeightlabError as exc:
            return type(exc).__name__, str(exc)


def _verdict(w, cond):
    try:
        return to_json(conditions.check_condition(w, cond).to_dict())
    except WeightlabError as exc:
        return type(exc).__name__, str(exc)


_SEQUENCE = load_weight({"sequence": [0.75 * k * k for k in range(30)]})
_FALLING = PiecewiseLogLinear([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (4.0, 5.0)])
_LEVEL = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (3.0, 1.0)])


@pytest.mark.parametrize("w", [_SEQUENCE, Scaled(2.0, _SEQUENCE), Dilated(3.0, _SEQUENCE),
                               Normalized(_SEQUENCE), _FALLING, Scaled(2.0, _FALLING),
                               _LEVEL, Normalized(_LEVEL)],
                         ids=["sequence", "scaled_sequence", "dilated_sequence",
                              "normalized_sequence", "falling", "scaled_falling", "level",
                              "normalized_level"])
@pytest.mark.parametrize("cond", RAY)
def test_sequences_falling_and_level_profiles_keep_their_paths(w, cond):
    assert _verdict(w, cond) == _parent_path(w, cond)


def test_a_falling_profile_still_refuses_om6():
    assert _FALLING.final_slope > 0 and not _FALLING.nondecreasing
    with pytest.raises(NotMonotone):
        conditions.check_condition(_FALLING, "om6")


def test_the_truncated_construction_is_log_type(plateau_profile):
    w = plateau_profile.weight
    s = float(w.final_slope)
    assert s == pytest.approx(14.743, abs=1e-3)
    om3, om3w, om6 = (conditions.check_condition(w, c) for c in ("om3", "om3w", "om6"))
    assert om3.fails and om6.fails and om3w.holds
    assert om6.witness == {"final_slope": s, "equivalent_to": "log(1+t)"}
    report = conditions.classify(w)
    assert report.classes["matrix_admissible"].fails
    assert report.classes["petzsche_vogt_5"].fails
    assert report.classes["bb_equivalent"].holds


def test_the_associated_matrix_of_a_profile_is_its_exact_conjugate():
    # om3 fails on the profile, yet its conjugate is finite up to the final slope 1.5
    w = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (3.0, 4.0)])
    assert conditions.check_condition(w, "om3").fails
    logW = conjugate.associated_weight_matrix(w, ell=0.5, j_max=3)
    exact = conjugate.young_conjugate(w, 1.5).value(0.5 * np.arange(4)) / 0.5
    np.testing.assert_array_equal(logW, exact)
