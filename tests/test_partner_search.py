"""The matrix partner search: decade suprema, pinned outcomes, row reuse."""

import collections
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import (Dilated, Exp, Log, LogPower, Normalized, PiecewiseLogLinear,
                       Power, Scaled, WeightFunction, core, load_weight, relations)
from weightlab.errors import (EmptyInput, HorizonTooSmall, IndexSearchExhausted, NonFinite,
                              ValidationFailed, WeightlabError)
from weightlab.relations import DEFAULT_ELL_GRID, DEFAULT_GRID, WeightMatrix
from weightlab.verdict import conjunction, fails, holds, inconclusive

from conftest import _Opaque


# --------------------------------------------------------------------------
# decade suprema
# --------------------------------------------------------------------------

def _mask_decade_sups(tg, d):
    """Reference: one boolean mask per decade (hi/10, hi], hi = tg[-1],
    tg[-1]/10, ... while hi > 10 tg[0]; empty decades dropped."""
    sups = []
    hi = tg[-1]
    while hi > tg[0] * 10:
        m = (tg > hi / 10) & (tg <= hi)
        if np.any(m):
            sups.append(float(np.max(d[m])))
        hi /= 10
    return sups[::-1]


def _same(a, b):
    return len(a) == len(b) and all(x == y or (math.isnan(x) and math.isnan(y))
                                    for x, y in zip(a, b))


_geometric = st.builds(
    lambda t0, decades, n: np.geomspace(t0, t0 * 10.0 ** decades, n),
    st.floats(1e-3, 1e3), st.floats(0.05, 9.0), st.integers(2, 400))
_linear = st.builds(
    lambda t0, width, n: np.linspace(t0, t0 + width, n),
    st.sampled_from([0.0, 1e-3, 0.5, 3.0]), st.floats(1e-2, 1e7), st.integers(2, 400))
# a few scattered points: most decades are empty
_sparse = st.lists(st.floats(-3.0, 12.0), min_size=1, max_size=8).map(
    lambda xs: np.sort(10.0 ** np.asarray(xs)))
# less than one decade, or ending at exactly ten times the first point
_narrow = st.builds(
    lambda t0, ratio, n: np.append(np.geomspace(t0, t0 * ratio, n)[:-1], t0 * ratio),
    st.floats(1e-3, 1e3), st.sampled_from([1.5, 9.99, 10.0]), st.integers(2, 50))


@given(tg=st.one_of(_geometric, _linear, _sparse, _narrow), data=st.data())
def test_decade_sups_match_the_mask_loop(tg, data):
    d = np.asarray(data.draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=len(tg), max_size=len(tg))), dtype=float)
    assert _same(relations._decade_sups(d, core.decade_starts(tg)), _mask_decade_sups(tg, d))


def test_decade_sups_carry_nan():
    tg = np.geomspace(1e-2, 1e6, 600)
    d = np.arange(600.0)
    d[300] = np.nan
    sups = relations._decade_sups(d, core.decade_starts(tg))
    assert _same(sups, _mask_decade_sups(tg, d))
    assert sum(math.isnan(s) for s in sups) == 1


# the grids the trend tests run on: the scalar relations', matrix_relation's
# search grid, inclusion_experiment's, a linear grid from 0 and a grid of
# exactly three decades
_EDGE_GRIDS = [DEFAULT_GRID, relations.GridSpec(1e-2, 1e12, 1200),
               relations.GridSpec(1e-2, 1e6, 400),
               relations.GridSpec(0.0, 1e4, 300, "linear"), relations.GridSpec(1.0, 1e3, 91)]


@pytest.mark.parametrize("grid", _EDGE_GRIDS, ids=repr)
def test_each_grid_finds_its_decade_starts_once(grid):
    edges = grid.decade_starts()
    assert np.array_equal(edges, core.decade_starts(grid.points()))
    assert not edges.flags.writeable
    assert grid.decade_starts() is edges
    # an equal grid is the same grid
    assert relations.GridSpec(grid.t_min, grid.t_max, grid.n_points,
                              grid.spacing).decade_starts() is edges


def _relation_finding_edges_per_rule(sigma, tau, rel, tg, s, t):
    """`relations._relation` with the decade starts found from tg by each
    rule, one direction of sim and sim_c at a time."""
    if rel in ("sim", "sim_c"):
        one_way = {"sim": "preceq", "sim_c": "preceq_c"}[rel]
        return conjunction({
            "forward": _relation_finding_edges_per_rule(sigma, tau, one_way, tg, s, t),
            "backward": _relation_finding_edges_per_rule(tau, sigma, one_way, tg, t, s)})
    return relations._relation(sigma, tau, rel, tg, s, t, core.decade_starts(tg))


_CHAIN = {"log": Log(), "log2": LogPower(2.0), "t14": Power(0.25), "t12": Power(0.5),
          "t1": Power(1.0)}


@pytest.mark.parametrize("rel", relations.RELATIONS)
def test_compare_on_the_cached_decade_starts_is_compare_finding_them_per_rule(rel):
    tg = DEFAULT_GRID.points()
    for sigma in _CHAIN.values():
        for tau in _CHAIN.values():
            s, t = sigma.evaluate(tg), tau.evaluate(tg)
            expected = relations.RelationVerdict(
                _relation_finding_edges_per_rule(sigma, tau, rel, tg, s, t), rel)
            assert relations.compare(sigma, tau, rel).to_dict() == expected.to_dict()


# --------------------------------------------------------------------------
# the mixed-kind pairs of the numeric benchmark workload
# --------------------------------------------------------------------------

_BASES = {"t12": Power(0.5), "log": Log(), "log2": LogPower(2.0)}
_KINDS = {"exp": WeightMatrix.exponential, "dil": WeightMatrix.dilatation}

# "holds" with log2(partner):log2(C) per outer index for beurling/roumieu, or
# the leading sha256 digits of the JSON index map for triangle; "fails" with
# log2 of the refuting (ell, n), or with the witness's keys where no index
# map names a pair; "exhausted" with log2 of the binding index.  The pairs
# whose T base outgrows the S base fail from their germs
PINNED = {
    "exp:t12 dil:log beurling": "holds -12:4 -12:4 -12:4 -12:4 -12:4 -12:4 -12:5 -12:5 -12:5 -12:5 -12:5 -12:5 -12:5",
    "exp:t12 dil:log roumieu": "holds -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
    "exp:t12 dil:log triangle": "holds aca88b2bb24e3bfb",
    "dil:t12 exp:log beurling": "holds -12:0 -12:0 -12:0 -12:0 -12:1 -12:2 -12:3 -12:5 -12:6 -12:7 -12:8 -12:9 -12:11",
    "dil:t12 exp:log roumieu": "holds -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
    "dil:t12 exp:log triangle": "holds cf125bab4056b486",
    "exp:t12 dil:log2 beurling": "holds -12:9 -12:9 -12:9 -12:9 -12:9 -12:10 -12:10 -12:10 -12:10 -12:10 -12:10 -12:10 -12:10",
    "exp:t12 dil:log2 roumieu": "holds -12:5 -12:1 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
    "exp:t12 dil:log2 triangle": "holds 65c6326afb20c031",
    "dil:t12 exp:log2 beurling": "holds -12:0 -12:1 -12:2 -12:4 -12:6 -12:7 -12:8 -12:10 -12:11 -12:12 -12:13 -12:14 -12:16",
    "dil:t12 exp:log2 roumieu": "holds -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
    "dil:t12 exp:log2 triangle": "holds 4c2347211fb24f9b",
    "exp:log dil:t12 beurling": "fails germ_sigma,germ_tau",
    "exp:log dil:t12 roumieu": "fails germ_sigma,germ_tau",
    "exp:log dil:t12 triangle": "fails -6,-6",
    "dil:log exp:t12 beurling": "fails germ_sigma,germ_tau",
    "dil:log exp:t12 roumieu": "fails germ_sigma,germ_tau",
    "dil:log exp:t12 triangle": "fails -6,-6",
    "exp:log dil:log2 beurling": "fails germ_sigma,germ_tau",
    "exp:log dil:log2 roumieu": "fails germ_sigma,germ_tau",
    "exp:log dil:log2 triangle": "fails -6,-6",
    "dil:log exp:log2 beurling": "fails germ_sigma,germ_tau",
    "dil:log exp:log2 roumieu": "fails germ_sigma,germ_tau",
    "dil:log exp:log2 triangle": "fails -6,-6",
    "exp:log2 dil:t12 beurling": "fails germ_sigma,germ_tau",
    "exp:log2 dil:t12 roumieu": "fails germ_sigma,germ_tau",
    "exp:log2 dil:t12 triangle": "fails -6,-6",
    "dil:log2 exp:t12 beurling": "fails germ_sigma,germ_tau",
    "dil:log2 exp:t12 roumieu": "fails germ_sigma,germ_tau",
    "dil:log2 exp:t12 triangle": "fails -6,-6",
    "exp:log2 dil:log beurling": "holds -6:4 -6:4 -6:4 -6:4 -6:4 -6:4 -6:4 -6:5 -6:5 -6:5 -6:5 -6:5 -6:5",
    "exp:log2 dil:log roumieu": "holds -10:4 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
    "exp:log2 dil:log triangle": "holds 9655582eb4abbb5b",
    "dil:log2 exp:log beurling": "holds -12:0 -12:0 -12:0 -12:0 -12:1 -12:2 -12:3 -12:5 -12:6 -12:7 -12:8 -12:10 -12:11",
    "dil:log2 exp:log roumieu": "holds -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
    "dil:log2 exp:log triangle": "holds 2c4f8ef3a2bd07bf",
}


def _matrices(key):
    s, t, rel = key.split()
    (ks, bs), (kt, bt) = s.split(":"), t.split(":")
    return _KINDS[ks](_BASES[bs]), _KINDS[kt](_BASES[bt]), rel


def _lg(x):
    return int(math.log2(x))


def _outcome(S, T, rel):
    try:
        rv = relations.matrix_relation(S, T, rel)
    except IndexSearchExhausted as exc:
        return f"exhausted {_lg(exc.binding_index)}"
    status, im = rv.verdict.status.value, rv.index_map
    if status == "holds" and rel != "triangle":
        partner = "n" if rel == "beurling" else "ell"
        return "holds " + " ".join(f"{_lg(v[partner])}:{_lg(v['C'])}" for v in im.values())
    if status == "holds":
        digest = hashlib.sha256(json.dumps(im, sort_keys=True).encode()).hexdigest()
        return f"holds {digest[:16]}"
    if status == "fails" and im is None:
        return "fails " + ",".join(sorted(rv.verdict.witness))
    if status == "fails":
        return f"fails {_lg(im['ell'])},{_lg(im['n'])}"
    return status


@pytest.mark.parametrize("key", sorted(PINNED))
def test_mixed_kind_pairs_are_pinned(key):
    assert _outcome(*_matrices(key)) == PINNED[key]


def test_each_row_is_evaluated_at_most_once(monkeypatch):
    seen = collections.Counter()
    read = WeightMatrix._rows

    def counting(self, ells, args):
        for ell in ells:
            seen[id(self), ell, np.asarray(args, dtype=float).tobytes()] += 1
        return read(self, ells, args)

    monkeypatch.setattr(WeightMatrix, "_rows", counting)
    same_kind = ["exp:t12 exp:log2 beurling", "dil:log2 dil:t12 roumieu",
                 "exp:t12 exp:log triangle", "dil:log dil:t12 triangle"]
    for key in sorted(PINNED) + same_kind:
        seen.clear()
        try:
            relations.matrix_relation(*_matrices(key))
        except IndexSearchExhausted:
            pass
        assert seen and max(seen.values()) == 1, key


def test_a_row_that_cannot_be_evaluated_raises_where_the_search_reaches_it():
    # S rows run out of sequence terms past t ~ 5e9, T rows overflow past
    # t ~ 1e7.7; both matrices pass the order check on [1e-2, 1e6].  Each
    # pair reads T's row before S's, so T's error comes first.
    seq = WeightMatrix.exponential(load_weight(
        {"sequence": [0.19 * k * k for k in range(60)]}))
    big = WeightMatrix.exponential(Power(40.0))
    for rel in relations.MATRIX_RELATIONS:
        with pytest.raises(NonFinite):
            relations.matrix_relation(seq, big, rel)
        with pytest.raises(HorizonTooSmall):
            relations.matrix_relation(big, seq, rel)


def test_a_far_row_that_cannot_be_evaluated_is_read_only_if_needed():
    # S rows n >= 2^11 overflow on the search grid (t up to 1e12), and the
    # partner of tau^ell is n = 16 ell, up to 2^10: the candidate block
    # 2^3 ... 2^12 cannot be read whole, and is tested row by row
    base = Power(25.42)
    S = WeightMatrix.exponential(base)
    T = WeightMatrix.exponential(Scaled(16.0, base))
    with pytest.raises(NonFinite), np.errstate(over="ignore"):
        S.weight_at(2.0 ** 11).evaluate(np.array([1e12]))
    rv = relations.matrix_relation(S, T, "beurling")
    assert rv.holds
    assert {ell: v["n"] for ell, v in rv.index_map.items()} == {
        ell: 16 * ell for ell in DEFAULT_ELL_GRID}


def test_a_first_candidate_that_cannot_be_read_raises_once_an_outer_row_is_read():
    # S's first entry runs out of sequence terms past t ~ 4.6e9, inside
    # the search grid, and its second can be read there; `huge` leaves the
    # double range there.  The outer rows of T are read first: the error
    # is S's once T's first row is read, T's when it cannot be
    S = WeightMatrix.explicit([(1.0, load_weight({"sequence": [0.19 * k * k for k in range(60)]})),
                               (2.0, Power(1.0))])
    huge = Scaled(1e58, Power(30.0))
    first_candidate = _outcome_of(lambda: S.weight_at(1.0).evaluate(_TG))
    first_outer = _outcome_of(lambda: huge.evaluate(_TG))
    assert first_candidate[0] is HorizonTooSmall and first_outer[0] is NonFinite
    for T, expected in ((WeightMatrix.exponential(Log()), first_candidate),
                        (WeightMatrix.explicit([(1.0, Log()), (2.0, huge)]), first_candidate),
                        (WeightMatrix.explicit([(1.0, huge), (2.0, Scaled(2.0, huge))]),
                         first_outer)):
        assert _outcome_of(T.verify_pointwise_order) is None
        assert _outcome_of(lambda: relations.matrix_relation(S, T, "beurling")) == expected


# --------------------------------------------------------------------------
# the row reader and the order check
# --------------------------------------------------------------------------

_PROFILE = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.5), (2.5, 4.0), (4.0, 4.5)])
_SEQUENCE = load_weight({"sequence": [0.75 * k * k for k in range(60)]})
_READ_BASES = {
    "t12": Power(0.5), "log": Log(), "log2": LogPower(2.0),
    "opaque": _Opaque(Power(0.45)), "profile": _PROFILE, "sequence": _SEQUENCE,
    "dil_profile": Dilated(4.0, _PROFILE), "norm_log2": Normalized(LogPower(2.0)),
}
_READ_MATRICES = {
    **{f"{kind}:{name}": _KINDS[kind](w) for kind in _KINDS
       for name, w in _READ_BASES.items()},
    "explicit": WeightMatrix.explicit([
        (0.5, Power(0.25)), (1.0, Log()), (2.0, _Opaque(Power(0.5))),
        (4.0, _SEQUENCE), (8.0, Scaled(3.0, _PROFILE))]),
}
# the search grid of matrix_relation, and the two shifted grids of the
# matrix conditions
_TG = np.geomspace(DEFAULT_GRID.t_min, DEFAULT_GRID.t_max * 1e6, 2 * DEFAULT_GRID.n_points)
_ARGS = {"tg": _TG, "2tg": 2 * _TG, "tg+1": _TG + 1.0}


@pytest.mark.parametrize("args", sorted(_ARGS))
@pytest.mark.parametrize("key", sorted(_READ_MATRICES))
def test_block_rows_are_the_rows_bit_for_bit(key, args):
    W, a = _READ_MATRICES[key], _ARGS[args]
    ells = sorted(W.indices(DEFAULT_ELL_GRID, extended=True))
    block = W._rows(ells, a)
    assert block.shape == (len(ells), len(a))
    for ell, row in zip(ells, block):
        assert row.tobytes() == W.weight_at(ell).evaluate(a).tobytes(), ell


def _first_row_error(W, ells, args):
    """(i, error): the first row that cannot be read alone, and its error."""
    for i, ell in enumerate(ells):
        try:
            with np.errstate(over="ignore"):
                W.weight_at(ell).evaluate(args)
        except WeightlabError as exc:
            return i, exc
    raise AssertionError("every row can be read")


@pytest.mark.parametrize("W", [
    # the multiplication by ell overflows from ell = 2^11 on
    WeightMatrix.exponential(Power(25.42)),
    WeightMatrix.exponential(Power(40.0)),
    WeightMatrix.dilatation(Exp()),
    # an exponential row is read as ell times its base, whose error it keeps
    WeightMatrix.exponential(load_weight({"sequence": [0.19 * k * k for k in range(60)]})),
    # a dilated sequence names its own horizon, not its base's
    WeightMatrix.dilatation(load_weight({"sequence": [0.19 * k * k for k in range(60)]})),
    WeightMatrix.explicit([(1.0, Power(0.5)), (2.0, Power(40.0)), (3.0, Exp())]),
], ids=["exp_overflow", "exp_base_overflow", "dil_exp", "exp_sequence", "dil_sequence",
        "explicit"])
def test_a_block_that_cannot_be_read_raises_its_first_rows_error(W):
    ells = sorted(W.indices(DEFAULT_ELL_GRID, extended=True))
    i, expected = _first_row_error(W, ells, _TG)
    rows, err = core.Rows(W._rows, _TG).block(ells)
    assert type(err) is type(expected)
    assert str(err) == str(expected)
    assert rows.shape == (i, len(_TG))
    for ell, row in zip(ells, rows):
        assert row.tobytes() == W.weight_at(ell).evaluate(_TG).tobytes(), ell


class _Capped(WeightFunction):
    """min(t + 1e-5, 1): 1e-5 above t up to t = 1, then below it."""

    def _eval(self, t):
        return np.minimum(t + 1e-5, 1.0)


def _order_check_row_by_row(W, ell_grid=DEFAULT_ELL_GRID, grid=DEFAULT_GRID):
    """The order check one row at a time, each row against the one below."""
    tg = grid.points()
    prev = None
    ells = sorted(W.indices(ell_grid))
    if not ells:
        raise EmptyInput("no matrix indices to read")
    for l in ells:
        cur = np.asarray(W.weight_at(l).evaluate(tg))
        if prev is not None:
            tol = 1e-9 * (1.0 + float(np.max(np.abs(cur))))
            bad = prev > cur + tol
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ValidationFailed(
                    f"matrix order violated at t={tg[k]:g} between indices")
        prev = cur


def _outcome_of(check):
    try:
        check()
    except WeightlabError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("entries", [
    [(1.0, Power(1.0)), (2.0, Power(0.5))],
    [(1.0, Log()), (2.0, Power(0.5)), (3.0, Power(0.25))],
    # the violation below comes before the row that overflows
    [(1.0, Power(1.0)), (2.0, Power(0.5)), (3.0, Power(60.0))],
    [(1.0, Power(0.25)), (2.0, Power(60.0)), (3.0, Power(0.5))],
    # within the tolerance, which scales with the upper row, and in order
    [(1.0, Scaled(1.0 + 1e-10, Power(0.5))), (2.0, Power(0.5))],
    [(1.0, _Capped()), (2.0, Power(1.0))],
    [(1.0, Power(1.0)), (2.0, _Capped())],
    [(1.0, Log()), (2.0, Power(0.5)), (4.0, Power(1.0))],
], ids=["one_pair", "second_pair", "before_overflow", "overflow_first",
        "tolerance", "upper_tolerance", "beyond_lower_tolerance", "in_order"])
def test_the_order_check_reports_what_the_row_by_row_check_reports(entries):
    W = WeightMatrix.explicit(entries)
    expected = _outcome_of(lambda: _order_check_row_by_row(W))
    assert _outcome_of(W.verify_pointwise_order) == expected


def test_the_order_check_of_the_matrix_kinds():
    grid = relations.GridSpec(1e-2, 1e12, 600)
    for W in (WeightMatrix.exponential(Power(0.5)), WeightMatrix.dilatation(_SEQUENCE),
              WeightMatrix.exponential(Power(25.42))):
        assert _outcome_of(W.verify_pointwise_order) is None
        assert _outcome_of(lambda: W.verify_pointwise_order(grid=grid)) == \
            _outcome_of(lambda: _order_check_row_by_row(W, grid=grid))
    # an exponential matrix is read as its base once: ell * w overflows
    # only at ell = 64, the last index; a sequence base runs past its last
    # corner on the long grid; no index at all is refused
    seq = WeightMatrix.exponential(load_weight({"sequence": [0.19 * k * k for k in range(60)]}))
    for W, g, ell_grid, error in (
            (WeightMatrix.exponential(Power(51.1)), DEFAULT_GRID, DEFAULT_ELL_GRID, NonFinite),
            (seq, grid, DEFAULT_ELL_GRID, HorizonTooSmall),
            (WeightMatrix.exponential(Power(0.5)), DEFAULT_GRID, (), EmptyInput)):
        expected = _outcome_of(lambda: _order_check_row_by_row(W, ell_grid, g))
        assert expected[0] is error
        assert _outcome_of(lambda: W.verify_pointwise_order(ell_grid, g)) == expected
    with np.errstate(over="ignore"):
        assert WeightMatrix.exponential(Power(51.1)).weight_at(32.0).evaluate(
            DEFAULT_GRID.points()).max() < math.inf


# --------------------------------------------------------------------------
# the bounded-gap rule on a block of rows
# --------------------------------------------------------------------------

def _bounded_gap_one_row(tg, d, edges, what="gap"):
    """The bounded-gap rule on one row, in Python floats."""
    sups = relations._decade_sups(d, core.require_decades(edges, 3))
    a, b, c = sups[-3], sups[-2], sups[-1]
    growing = c > b + max(1e-9, 0.05 * abs(b)) and b > a + max(1e-9, 0.05 * abs(a))
    strongly = growing and c > 0 and c >= 1.2 * max(b, 1e-300) and b >= 1.2 * max(a, 1e-300)
    peak = float(np.max(d))
    if strongly:
        k = int(np.argmax(d))
        return fails({"t": float(tg[k]), what: peak, "decade_sups": sups[-3:]},
                     margin=peak, notes=f"{what} grows by >=20% per decade")
    C = next((C for C in (2.0 ** k for k in range(41)) if C >= max(peak, 1.0)), None)
    if C is not None and not growing:
        return holds({"C": C, "decade_sups": sups[-3:]}, margin=C - peak)
    return inconclusive(margin=peak, notes=f"{what} trend undecided at horizon")


_GAP_GRIDS = {"search": _TG, "report": DEFAULT_GRID.points(),
              "linear": np.linspace(0.5, 5e3, 300)}
_VALUE = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.0, 2.0 ** 40, 1e-300, 1e308, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True))


# the last C and just past it, peaks that are not numbers, and the exact C
# lookup at 1, at a power of two inside the grid, below 1 and at a negative
# peak: each value and its neighbours to either side
_EDGE_PEAKS = (2.0 ** 40, float(np.nextafter(2.0 ** 40, math.inf)), math.nan, math.inf,
               -math.inf, -3.0,
               *(float(np.nextafter(x, to)) for x in (0.0, 1.0, 2.0 ** 20)
                 for to in (-math.inf, x, math.inf)))


@st.composite
def _gap_row(draw, lengths):
    """A row of gaps, constant on each decade (so its decade suprema are
    exact), whose last three suprema sit on, just above or just below the
    rule's thresholds, or ties, constants and powers of two; or a free row."""
    kind = draw(st.sampled_from(["plateaus", "plateaus", "plateaus", "constant", "free"]))
    n = int(sum(lengths))
    if kind == "constant":
        return np.full(n, draw(_VALUE))
    if kind == "free":
        pattern = draw(st.lists(_VALUE, min_size=1, max_size=9))
        return np.resize(np.asarray(pattern, dtype=float), n)

    def step(x):
        rule = draw(st.sampled_from(["free", "tie", "rise5", "rise5", "rise20", "rise20",
                                     "pow2"]))
        y = {"free": lambda: draw(_VALUE), "tie": lambda: x,
             "rise5": lambda: x + max(1e-9, 0.05 * abs(x)),
             "rise20": lambda: 1.2 * max(x, 1e-300),
             "pow2": lambda: 2.0 ** draw(st.integers(-2, 42))}[rule]()
        with np.errstate(over="ignore"):  # a step past the largest float is inf
            return float(np.nextafter(y, draw(st.sampled_from([-math.inf, y, math.inf]))))

    # the leading points and the decades before the last two are free
    levels = [draw(_VALUE) for _ in range(len(lengths) - 2)]
    for _ in range(2):
        levels.append(step(levels[-1]))
    return np.repeat(np.asarray(levels), lengths)


@settings(max_examples=300)
@given(grid=st.sampled_from(sorted(_GAP_GRIDS)), data=st.data())
def test_the_block_rule_is_the_one_row_rule_row_by_row(grid, data):
    tg = _GAP_GRIDS[grid]
    edges = core.decade_starts(tg)
    # the leading points before the first decade, then one length per decade
    lengths = np.diff(np.concatenate([[0], edges, [len(tg)]]))
    # up to 16 drawn rows, the largest chunk a partner search tests
    drawn = [data.draw(_gap_row(lengths)) for _ in range(data.draw(st.integers(1, 16)))]
    rows = list(drawn)
    # each edge peak as a constant row, and at a drawn point of a drawn row
    # below it
    for peak in _EDGE_PEAKS:
        row = np.minimum(drawn[data.draw(st.integers(0, len(drawn) - 1))], peak)
        row[data.draw(st.integers(0, len(tg) - 1))] = peak
        rows += [np.full(len(tg), peak), row]
    D = np.stack(rows)
    k = len(D)
    what = data.draw(st.sampled_from(["gap", "ratio"]))
    gaps = relations._Gaps(tg, D, edges, what)
    held = []
    for i in range(k):
        expected = _bounded_gap_one_row(tg, D[i], edges, what)
        v = gaps.verdict(i)
        assert v.to_dict() == expected.to_dict()
        assert bool(gaps.held[i]) == expected.holds
        if expected.holds:
            assert gaps.C(i) == expected.certificate["C"]
            held.append(i)
        assert relations._bounded_gap(tg, D[i], edges, what).to_dict() == expected.to_dict()
    # the C of a block whose rows all hold, as `_every_pair` reads them
    if held:
        assert relations._Gaps(tg, D[held], edges).C(slice(None)) == [gaps.C(i) for i in held]


def test_the_block_rule_needs_three_decades():
    tg = np.geomspace(1.0, 500.0, 50)
    with pytest.raises(HorizonTooSmall, match="at least 3 decades"):
        relations._Gaps(tg, np.zeros((2, 50)), core.decade_starts(tg))
    with pytest.raises(HorizonTooSmall, match="at least 3 decades"):
        _bounded_gap_one_row(tg, np.zeros(50), core.decade_starts(tg))
