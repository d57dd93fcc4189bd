"""Bad input at the library's entry points ends in a typed error, with no
numpy warning on the way: the contract of ROADMAP item 9, case by case."""

import math
import os
import tempfile
import warnings

import pytest

from weightlab import cli, conditions, conjugate, counterexample, growth, lpspace, relations
from weightlab.core import (Dilated, Gevrey, GridSpec, Log, LogPower, PiecewiseLogLinear, Power,
                            Scaled, load_weight)
from weightlab.errors import NonFinite, UnknownRelation, ValidationFailed, WeightlabError
from weightlab.relations import WeightMatrix

_NAN, _INF = math.nan, math.inf


def _profile():
    return counterexample.construct(counterexample.default_delta(8), 0.5, 8)


# a valid linear grid from t = -1: every weight is evaluated at t < 0 on it
_NEGATIVE_GRID = GridSpec(-1.0, 1e6, 600, "linear")
_CORNERS = PiecewiseLogLinear([(0, 0), (1, 1), (3, 4)])


def _sampled(d):
    return lpspace.SampledFunction([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], d=d)


def _load_unparsable_file():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.json")
        with open(path, "w") as fh:
            fh.write('{"family": "power",')
        return load_weight(path)


_CASES = {
    # a growth index gamma <= 0
    "index-gamma-0": (lambda: growth.growth_index(Power(0.5), [0.0, 100.0]), ValidationFailed),
    "index-gamma-negative": (lambda: growth.growth_index(Power(0.5), [-1.0, 100.0]),
                             ValidationFailed),
    # an unknown relation id
    "compare-unknown": (lambda: relations.compare(Power(1.0), Power(1.0), "nope"),
                        UnknownRelation),
    "matrix-unknown": (lambda: relations.matrix_relation(
        WeightMatrix.exponential(Log()), WeightMatrix.exponential(Log()), "nope"),
        UnknownRelation),
    # non-finite horizons, and a y array of two dimensions
    "kappa-T-nan": (lambda: growth.kappa(Power(0.5), 1.0, T=_NAN), ValidationFailed),
    "kappa-T-inf": (lambda: growth.kappa(Power(0.5), 1.0, T=_INF), ValidationFailed),
    "kappa-T-inf-array": (lambda: growth.kappa(Power(0.5), [1.0, 2.0], T=_INF),
                          ValidationFailed),
    "kappa-2d": (lambda: growth.kappa(Power(0.5), [[1.0, 4.0]]), ValidationFailed),
    "index-T-nan": (lambda: growth.growth_index(Power(0.5), T=_NAN), ValidationFailed),
    "index-T-inf": (lambda: growth.growth_index(Power(0.5), T=_INF), ValidationFailed),
    # parameters that are NaN or infinite
    "power-nan": (lambda: Power(_NAN), ValidationFailed),
    "gevrey-nan": (lambda: Gevrey(_NAN), ValidationFailed),
    "logpower-nan": (lambda: LogPower(_NAN), ValidationFailed),
    "scaled-nan": (lambda: Scaled(_NAN, Log()), ValidationFailed),
    "dilated-nan": (lambda: Dilated(_NAN, Log()), ValidationFailed),
    "power-inf": (lambda: Power(_INF), ValidationFailed),
    "logpower-inf": (lambda: LogPower(_INF), ValidationFailed),
    "scaled-inf": (lambda: Scaled(_INF, Log()), ValidationFailed),
    "dilated-inf": (lambda: Dilated(_INF, Log()), ValidationFailed),
    "nonconvexity-nan": (lambda: counterexample.nonconvexity_certificate(_profile(), _NAN),
                         ValidationFailed),
    "slow-variation-nan": (lambda: counterexample.slow_variation_certificate(_profile(), [_NAN]),
                           ValidationFailed),
    "slow-variation-inf": (lambda: counterexample.slow_variation_certificate(_profile(), [_INF]),
                           ValidationFailed),
    "theta-p-0": (lambda: lpspace.theta_function(Power(0.5), 0), ValidationFailed),
    "theta-p-negative": (lambda: lpspace.theta_function(Power(0.5), -1), ValidationFailed),
    "witness-t-max-nan": (lambda: lpspace.nontriviality_witness(
        WeightMatrix.exponential(Power(0.5)), 2.0, t_max=_NAN), ValidationFailed),
    "witness-t-max-inf": (lambda: lpspace.nontriviality_witness(
        WeightMatrix.exponential(Power(0.5)), 2.0, t_max=_INF), ValidationFailed),
    "grid-fractional-points": (lambda: GridSpec(1e-2, 1e6, 2.5), ValidationFailed),
    # block counts that are no integers, or are bools
    "default-delta-float": (lambda: counterexample.default_delta(60.0), ValidationFailed),
    "default-delta-bool": (lambda: counterexample.default_delta(True), ValidationFailed),
    "construct-float": (lambda: counterexample.construct(
        counterexample.default_delta(60), 0.5, 60.0), ValidationFailed),
    "construct-bool": (lambda: counterexample.construct(
        counterexample.default_delta(3), 0.5, True), ValidationFailed),
    "matrix-j-max-fractional": (lambda: conjugate.associated_weight_matrix(
        Power(0.5), 1.0, 2.5), ValidationFailed),
    "matrix-j-max-bool": (lambda: conjugate.associated_weight_matrix(
        Power(0.5), 1.0, True), ValidationFailed),
    # a grid that reaches below t = 0
    "condition-negative-grid": (lambda: conditions.check_condition(
        _CORNERS, "nondecreasing", _NEGATIVE_GRID), ValidationFailed),
    "classify-negative-grid": (lambda: conditions.classify(_CORNERS, _NEGATIVE_GRID),
                               ValidationFailed),
    "compare-negative-grid": (lambda: relations.compare(
        Power(0.5), Log(), "preceq", _NEGATIVE_GRID), ValidationFailed),
    "matrix-negative-grid": (lambda: relations.matrix_relation(
        WeightMatrix.exponential(Power(0.5)), WeightMatrix.exponential(Log()), "beurling",
        grid=_NEGATIVE_GRID), ValidationFailed),
    # a dimension that is no integer >= 1
    "sampled-d-nan": (lambda: _sampled(_NAN), ValidationFailed),
    "sampled-d-fractional": (lambda: _sampled(1.5), ValidationFailed),
    "sampled-d-0": (lambda: _sampled(0), ValidationFailed),
    # a weight document that does not parse, and a u grid that is not 1-d
    "load-weight-bad-json": (lambda: load_weight("{oops"), ValidationFailed),
    "load-weight-bad-file": (_load_unparsable_file, ValidationFailed),
    "double-conjugate-2d": (lambda: conjugate.double_conjugate(
        Power(0.5), [[1.0, 2.0], [3.0, 4.0]]), ValidationFailed),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_bad_input_ends_in_a_typed_error_without_a_warning(case):
    call, error = _CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(WeightlabError) as info:
            call()
    assert type(info.value) is error
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("make, name", [(Power, "alpha"), (LogPower, "beta"),
                                        (lambda c: Scaled(c, Log()), "scale"),
                                        (lambda c: Dilated(c, Log()), "dilation")],
                         ids=["power", "logpower", "scaled", "dilated"])
def test_a_nan_parameter_keeps_its_message_and_an_infinite_one_is_not_finite(make, name):
    with pytest.raises(ValidationFailed, match=f"^{name} must be (> 0|>= 1)$"):
        make(_NAN)
    with pytest.raises(ValidationFailed, match=f"^{name} must be finite$"):
        make(_INF)


def test_a_nan_gamma_still_ends_in_non_finite():
    with pytest.raises(NonFinite):
        growth.growth_index(Power(0.5), [_NAN, 1.0])


@pytest.mark.parametrize("gammas", ["0,100", "-1,100"])
def test_an_index_gamma_at_most_zero_is_one_error_line(tmp_path, capsys, gammas):
    path = tmp_path / "w.json"
    path.write_text('{"family": "power", "params": {"alpha": 0.5}}')
    assert cli.run(["index", "--weight", str(path), f"--gammas={gammas}"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: growth index gammas must be > 0\n")
