"""Bad input at the library's entry points ends in a typed error, with no
numpy warning on the way: the contract of ROADMAP item 9, case by case."""

import math
import warnings

import pytest

from weightlab import cli, counterexample, growth, lpspace, relations
from weightlab.core import Dilated, Gevrey, GridSpec, Log, LogPower, Power, Scaled
from weightlab.errors import (EmptyInput, NonFinite, UnknownRelation, ValidationFailed,
                             WeightlabError)
from weightlab.relations import WeightMatrix

_NAN, _INF = math.nan, math.inf


def _profile():
    return counterexample.construct(counterexample.default_delta(8), 0.5, 8)


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
    # non-finite horizons and an empty y grid
    "kappa-T-nan": (lambda: growth.kappa(Power(0.5), 1.0, T=_NAN), ValidationFailed),
    "kappa-T-inf": (lambda: growth.kappa(Power(0.5), 1.0, T=_INF), ValidationFailed),
    "kappa-T-inf-array": (lambda: growth.kappa(Power(0.5), [1.0, 2.0], T=_INF),
                          ValidationFailed),
    "index-T-nan": (lambda: growth.growth_index(Power(0.5), T=_NAN), ValidationFailed),
    "index-T-inf": (lambda: growth.growth_index(Power(0.5), T=_INF), ValidationFailed),
    "kappa-equivalence-empty": (lambda: growth.kappa_equivalence_check(Power(0.5), y_grid=[]),
                                EmptyInput),
    "kappa-equivalence-2d": (lambda: growth.kappa_equivalence_check(
        Power(0.5), y_grid=[[1.0, 4.0]]), ValidationFailed),
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
