import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weightlab import (Dilated, Exp, Gevrey, GridSpec, Log, LogPower,
                       Normalized, PiecewiseLogLinear, Power, Scaled,
                       WeightFunction, dump_weight, load_weight)
from weightlab.errors import (HorizonTooSmall, NonFinite, NotMonotone,
                              ValidationFailed)


def test_power_values():
    w = Power(0.5)
    assert w.evaluate(4.0) == pytest.approx(2.0)
    assert w.evaluate(0.0) == 0.0
    assert w.phi(2.0) == pytest.approx(math.e)


def test_gevrey_is_power():
    assert Gevrey(2.0).evaluate(16.0) == pytest.approx(Power(0.5).evaluate(16.0))


def test_log_and_logpower():
    assert Log().evaluate(0.0) == pytest.approx(math.log(1.0 + 0.0))
    assert LogPower(2.0).evaluate(math.e - 1.0) == pytest.approx(1.0)
    with pytest.raises(ValidationFailed):
        LogPower(0.5)


def test_exp_values():
    t = np.array([0.0, 1.0, 10.0])
    np.testing.assert_allclose(Exp().evaluate(t), np.expm1(t))


def test_pl_eval_exact_on_corners():
    rng = np.random.default_rng(7)
    us = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 40.0, 9))])
    vs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 2.0, 9))])
    w = PiecewiseLogLinear(np.column_stack([us, vs]))
    np.testing.assert_allclose(w.phi(us), vs, rtol=1e-13, atol=1e-13)
    # past the last corner phi follows the final ray
    ray = us[-1] + np.array([1e-3, 1.0, 50.0])
    np.testing.assert_allclose(w.phi(ray), vs[-1] + w.final_slope * (ray - us[-1]),
                               rtol=1e-13)
    # left of u = 0 the profile is exactly +0.0, even when it starts at -0.0
    for prof in (w, PiecewiseLogLinear([(0.0, -0.0), (1.0, 1.0)])):
        left = prof.phi(np.array([-50.0, -1.0, -1e-12]))
        assert np.all(left == 0.0) and not np.any(np.signbit(left))


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        Power(1.0).evaluate(-1.0)


def test_profile_validation():
    with pytest.raises(ValidationFailed):
        PiecewiseLogLinear([(1.0, 0.0), (2.0, 1.0)])  # must start at origin
    with pytest.raises(ValidationFailed):
        PiecewiseLogLinear([(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)])
    w = PiecewiseLogLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)])
    assert w.normalized
    assert w.nondecreasing
    assert w.final_slope == 0.0
    assert w.phi(0.5) == pytest.approx(1.0)
    assert w.phi(2.0) == pytest.approx(2.0)
    # beyond the last corner the final segment extends as a ray
    assert w.phi(10.0) == pytest.approx(2.0)


def test_scaled_dilated_normalized():
    w = Power(1.0)
    assert Scaled(3.0, w).evaluate(2.0) == pytest.approx(6.0)
    assert Dilated(3.0, w).evaluate(2.0) == pytest.approx(6.0)
    n = Normalized(Log())
    assert n.evaluate(0.5) == 0.0
    assert n.normalized
    with pytest.raises(ValidationFailed):
        Scaled(0.0, w)


def test_normalized_requires_monotone():
    bad = PiecewiseLogLinear([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])
    assert not bad.nondecreasing
    with pytest.raises(NotMonotone):
        Normalized(bad)


def test_gridspec():
    g = GridSpec(1.0, 1e4, 100)
    pts = g.points()
    assert pts.shape == (100,)
    assert pts[0] == pytest.approx(1.0) and pts[-1] == pytest.approx(1e4)
    lin = GridSpec(0.0, 10.0, 11, "linear")
    np.testing.assert_allclose(lin.points(), np.arange(11.0))
    with pytest.raises(ValidationFailed):
        GridSpec(0.0, 10.0, 11)  # log spacing needs t_min > 0
    with pytest.raises(ValidationFailed):
        GridSpec(5.0, 1.0)


@pytest.mark.parametrize("t_min,t_max,spacing", [
    (1e-2, math.inf, "logarithmic"), (-math.inf, 1.0, "linear"), (0.0, math.inf, "linear"),
])
def test_gridspec_refuses_an_end_outside_the_double_range(t_min, t_max, spacing):
    with pytest.raises(ValidationFailed):
        GridSpec(t_min, t_max, 600, spacing)


def test_grids_and_weight_families_are_values():
    assert GridSpec(1.0, 10.0) == GridSpec(1.0, 10.0, 400, "logarithmic")
    assert hash(GridSpec(1.0, 10.0)) == hash(GridSpec(1.0, 10.0))
    assert GridSpec(1.0, 10.0) != GridSpec(1.0, 10.0, 401)
    assert Power(0.5) == Power(0.5) != Gevrey(2.0)
    assert {Log(), Log(), Exp(), LogPower(2.0), LogPower(2.0)} == {Log(), Exp(), LogPower(2.0)}
    with pytest.raises(AttributeError):
        GridSpec(1.0, 10.0).t_max = 20.0
    with pytest.raises(AttributeError):
        Power(0.5).alpha = 1.0


@pytest.mark.parametrize("spec,space", [
    ((1e-2, 1e6, 600), np.geomspace), ((1e-2, 1e12, 1200), np.geomspace),
    ((0.0, 2048.0, 512, "linear"), np.linspace), ((1.0, 3.0, 7, "linear"), np.linspace),
])
def test_grid_points_are_built_once_and_read_only(spec, space):
    pts = GridSpec(*spec).points()
    assert pts.tobytes() == space(*spec[:3]).tobytes()
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0] = 1.0
    assert GridSpec(*spec).points() is pts


@pytest.mark.parametrize("w", [
    Power(0.5), Gevrey(3.0), Log(), LogPower(2.0), Exp(),
    Scaled(2.0, Power(1.0)), Dilated(0.5, Log()), Normalized(Log()),
    PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
])
def test_json_round_trip(w):
    doc = dump_weight(w)
    json.dumps(doc)  # serializable
    w2 = load_weight(doc)
    t = np.geomspace(1e-2, 50.0, 50)
    np.testing.assert_allclose(w2.evaluate(t), w.evaluate(t), rtol=1e-12)


_SEQ = [0.0, 0.0, 0.693, 1.792, 3.178]


@pytest.mark.parametrize("doc", [
    {"family": "power", "params": {"alpha": 0.5}},
    {"family": "gevrey", "params": {"s": 3.0}},
    {"family": "log", "params": {}},
    {"family": "logpower", "params": {"beta": 2.0}},
    {"family": "exp", "params": {}},
    {"family": "scaled", "params": {"c": 2.0}, "base": {"family": "log", "params": {}}},
    {"family": "dilated", "params": {"c": 0.5},
     "base": {"family": "power", "params": {"alpha": 0.25}}},
    {"family": "normalized", "params": {},
     "base": {"family": "logpower", "params": {"beta": 2.0}}},
    {"profile": [[0.0, 0.0], [1.0, 1.0], [2.0, 3.0]]},
    {"sequence": _SEQ},
    {"sequence": [0.0, 1.0, 3.0, 6.0], "increase_from": 2},
    {"family": "scaled", "params": {"c": 3.0},
     "base": {"sequence": _SEQ, "increase_from": 1}},
], ids=lambda doc: json.dumps(doc, sort_keys=True)[:40])
def test_load_dump_load_round_trip(doc):
    w = load_weight(doc)
    dumped = dump_weight(w)
    assert dumped == doc
    again = load_weight(json.loads(json.dumps(dumped)))
    assert dump_weight(again) == dumped
    assert getattr(again, "increase_from", None) == getattr(w, "increase_from", None)


def test_load_weight_rejects_garbage():
    with pytest.raises(ValidationFailed):
        load_weight({"family": "nope", "params": {}})
    with pytest.raises(ValidationFailed):
        load_weight({"unknown": 1})
    # a wrapper with a misnamed parameter names the one it expected
    with pytest.raises(ValidationFailed, match="lacks 'c'"):
        load_weight({"family": "dilated", "params": {"lam": 2},
                     "base": {"family": "power", "params": {"alpha": 0.5}}})
    for doc in ({"family": "power", "params": {"alpha": "abc"}},
                {"family": "power", "params": {"alpha": None}},
                {"family": "power", "params": {"alpha": True}},
                {"family": "power", "params": {"alpha": math.nan}},
                {"family": "power", "params": {"alpha": math.inf}},
                {"family": "power", "params": {"alpha": 10 ** 400}},
                {"family": "logpower", "params": {"beta": [2]}},
                {"family": "power", "params": [0.5]},
                {"family": ["power"], "params": {"alpha": 0.5}},
                {"family": "scaled", "params": {"c": 2.0}, "base": "power"},
                {"profile": "abc"},
                {"profile": [[0.0, 0.0], [1.0]]},
                {"profile": [[0.0, 0.0], [1.0, math.nan]]},
                {"sequence": [0, "a"]},
                {"sequence": [0.0, math.inf]},
                {"sequence": [0.0, 1.0, 3.0], "increase_from": "1"},
                [1, 2]):
        with pytest.raises(ValidationFailed):
            load_weight(doc)
    # the same refusals for a document read as JSON text
    with pytest.raises(ValidationFailed, match="finite number"):
        load_weight('{"family": "power", "params": {"alpha": 1e400}}')


def test_phi_past_the_double_range_is_refused():
    # phi(u) = max_k (k u - 300 k^2) is u - 300 for u up to 900, inside the
    # 40 stored terms; a sequence's phi is read off its corners, so it is
    # exact past u = 709, where e^u leaves the double range
    w = load_weight({"sequence": [300.0 * k * k for k in range(40)]})
    assert w.phi(700.0) == pytest.approx(400.0)
    assert w.phi(720.0) == pytest.approx(420.0)   # a clamp at 709 would give 409
    assert w.phi(800.0) == pytest.approx(500.0)
    # a weight defined only through w(t) has no phi past u = 709
    with pytest.raises(HorizonTooSmall):
        Exp().phi(720.0)
    with pytest.raises(HorizonTooSmall):
        Exp().phi(np.array([1.0, 800.0]))


# M_1 < M_0 in "shifted", so its phi rises from 0 left of u = 0; the hull
# of "skipping" passes over p = 3
_PHI_SEQUENCES = {
    "gaussian": [0.75 * k * k for k in range(60)],
    "sqrt_factorial": [0.5 * math.lgamma(k + 1) for k in range(60)],
    "skipping": [0.0, 1.0, 2.5, 6.0, *np.cumsum([8.5, *np.arange(3.5, 12.0)]).tolist()],
    "shifted": [0.5 * k * k - 2.0 * k for k in range(30)],
}


@pytest.mark.parametrize("name", list(_PHI_SEQUENCES))
def test_sequence_phi_is_the_supremum_over_the_stored_terms(name):
    lm = np.asarray(_PHI_SEQUENCES[name])
    w = load_weight({"sequence": lm.tolist()})
    last = float(w.us[-1])
    u = np.linspace(-10.0, last, 4001)[:-1]
    # the reference: max_p (p u - log M_p + log M_0) over every stored term,
    # whose argmax stays below P up to the last corner
    p = np.arange(len(lm))
    terms = p[None, :] * u[:, None] - (lm[None, :] - lm[0])
    assert np.all(np.argmax(terms, axis=1) < len(lm) - 1)
    np.testing.assert_allclose(w.phi(u), np.max(terms, axis=1), rtol=1e-12, atol=1e-12)
    with pytest.raises(HorizonTooSmall, match=f"P={len(lm) - 1}"):
        w.phi(last * (1 + 1e-12) + 1e-12)


@given(st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=1e-2, max_value=1e4))
def test_power_phi_matches_eval(alpha, t):
    w = Power(alpha)
    assert w.phi(math.log(t)) == pytest.approx(w.evaluate(t), rel=1e-10)


@given(st.floats(min_value=0.25, max_value=4.0),
       st.floats(min_value=0.0, max_value=1e3))
def test_scaling_is_pointwise(c, t):
    w = Scaled(c, Log())
    assert w.evaluate(t) == pytest.approx(c * Log().evaluate(t), rel=1e-12)


# --------------------------------------------------------------------------
# the checks of evaluate
# --------------------------------------------------------------------------

class _Table(WeightFunction):
    """Returns the stored values whatever the argument, to reach the checks."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def _eval(self, t):
        return self.values


def _evaluate_checked_one_by_one(w, t):
    """evaluate with one np.any/np.all reduction per check."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("weight argument must be >= 0")
    out = np.asarray(w._eval(arr))
    if not np.all(np.isfinite(out)):
        raise NonFinite("non-finite weight value encountered")
    if np.any(out < 0):
        raise NonFinite("negative weight value; representation invalid")
    return float(out.reshape(-1)[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _outcome(f):
    try:
        out = f()
    except (ValueError, NonFinite) as exc:
        return type(exc), str(exc)
    return type(out), np.asarray(out).shape, np.asarray(out).tobytes()


_EDGE = [0.0, -0.0, 1.0, -1.0, -1e-300, math.nan, math.inf, -math.inf, 1e308]


@given(st.lists(st.sampled_from(_EDGE), min_size=0, max_size=5),
       st.lists(st.sampled_from(_EDGE), min_size=0, max_size=5), st.booleans())
def test_evaluate_checks_as_one_reduction_per_check_did(args, values, scalar):
    # a NaN argument beside a negative one still raises ValueError, a
    # non-finite value comes before a negative one, and empty arrays pass
    n = 1 if scalar else len(args)
    t = (args[:1] or [0.0])[0] if scalar else np.asarray(args, dtype=float)
    w = _Table((values + [1.0] * n)[:n])
    assert _outcome(lambda: w.evaluate(t)) == \
        _outcome(lambda: _evaluate_checked_one_by_one(w, t))


def test_evaluate_edge_cases():
    with pytest.raises(ValueError, match="^weight argument must be >= 0$"):
        Power(1.0).evaluate(np.array([math.nan, -1.0]))
    with pytest.raises(ValueError, match="^weight argument must be >= 0$"):
        Power(1.0).evaluate(np.array([[1.0, 2.0], [-0.5, math.nan]]))
    with pytest.raises(NonFinite, match="^non-finite weight value encountered$"):
        Power(1.0).evaluate(math.nan)
    with pytest.raises(NonFinite, match="^non-finite weight value encountered$"):
        _Table([-1.0, math.inf]).evaluate(np.zeros(2))
    with pytest.raises(NonFinite, match="^negative weight value; representation invalid$"):
        _Table([1.0, -1e-300]).evaluate(np.zeros(2))
    assert _Table([-0.0]).evaluate(0.0) == 0.0
    for shape in [(0,), (0, 3), (2, 0), (2, 3)]:
        assert Power(0.5).evaluate(np.ones(shape)).shape == shape
    for t in (4.0, 4, np.float64(4.0), np.array(4.0)):
        v = Power(0.5).evaluate(t)
        assert type(v) is float and v == 2.0
    assert Power(0.5).evaluate([4.0]).shape == (1,)


_SCALAR_READS = {
    "logpower2": LogPower(2), "logpower1.5": LogPower(1.5),
    "scaled_logpower2": Scaled(3.0, LogPower(2)), "scaled_logpower1.5": Scaled(3.0, LogPower(1.5)),
    "dilated_logpower2": Dilated(3.0, LogPower(2)),
    "dilated_logpower1.5": Dilated(3.0, LogPower(1.5)),
    # controls, equal before LogPower's 0-d reads went through the array power
    "power0.45": Power(0.45), "power25.42": Power(25.42), "log": Log(), "exp": Exp(),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_READS))
def test_a_number_is_read_as_the_array_of_it_bit_for_bit(name):
    w = _SCALAR_READS[name]
    ts = np.random.default_rng(20_000).uniform(0.0, 50.0, 20_000)
    block = w.evaluate(ts)
    for t, v in zip(ts.tolist(), block.tolist()):
        one = w.evaluate(t)
        assert type(one) is float
        assert one == v == w.evaluate(np.array([t]))[0], t


# --------------------------------------------------------------------------
# a wrapped sequence's horizon
# --------------------------------------------------------------------------

@pytest.mark.parametrize("wrap", ["scaled", "dilated", "normalized", "nested"])
def test_a_wrapped_sequence_names_its_own_horizon(wrap):
    seq = load_weight({"sequence": [0.75 * k * k for k in range(60)]})
    w = {"scaled": Scaled(3.0, seq), "dilated": Dilated(2.0, seq),
         "normalized": Normalized(seq), "nested": Dilated(0.5, Scaled(2.0, seq))}[wrap]
    last = float(w.profile.us[-1])
    u = last + 0.15
    with pytest.raises(HorizonTooSmall) as expected:
        w.profile.phi(u)
    assert f"at u={u:g}, past the last corner u={last:g}" in str(expected.value)
    for call in (lambda: w.phi(u), lambda: w.phi(np.array([0.5, u, u + 1.0])),
                 lambda: w.evaluate(math.exp(u)),
                 lambda: w.evaluate(np.array([1.0, math.exp(u)]))):
        with pytest.raises(HorizonTooSmall) as err:
            call()
        assert str(err.value) == str(expected.value)
    # below the horizon the values are those of the wrapper's formula
    us = np.linspace(-5.0, last - 1e-6, 2001)
    formula = {"scaled": lambda: 3.0 * seq.phi(us),
               "dilated": lambda: seq.phi(us + math.log(2.0)),
               "normalized": lambda: np.where(us <= 0.0, 0.0,
                                              np.maximum(seq.phi(us) - seq.phi(0.0), 0.0)),
               "nested": lambda: 2.0 * seq.phi(us + math.log(0.5))}[wrap]()
    assert w.phi(us).tobytes() == formula.tobytes()
    np.testing.assert_allclose(w.evaluate(np.exp(us)), w.profile.phi(us), rtol=1e-12, atol=1e-12)
