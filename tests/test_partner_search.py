"""The matrix partner search: decade suprema, pinned outcomes, row reuse."""

import collections
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weightlab import Dilated, Log, LogPower, Power, Scaled, core, load_weight, relations
from weightlab.errors import HorizonTooSmall, IndexSearchExhausted, NonFinite
from weightlab.relations import WeightMatrix


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
    assert _same(relations._decade_sups(tg, d), _mask_decade_sups(tg, d))
    assert _same(relations._decade_sups(tg, d, relations._decade_edges(tg)),
                 _mask_decade_sups(tg, d))


def test_decade_sups_carry_nan():
    tg = np.geomspace(1e-2, 1e6, 600)
    d = np.arange(600.0)
    d[300] = np.nan
    sups = relations._decade_sups(tg, d)
    assert _same(sups, _mask_decade_sups(tg, d))
    assert sum(math.isnan(s) for s in sups) == 1


# --------------------------------------------------------------------------
# the mixed-kind pairs of the numeric benchmark workload
# --------------------------------------------------------------------------

_BASES = {"t12": Power(0.5), "log": Log(), "log2": LogPower(2.0)}
_KINDS = {"exp": WeightMatrix.exponential, "dil": WeightMatrix.dilatation}

# "holds" with log2(partner):log2(C) per outer index for beurling/roumieu, or
# the leading sha256 digits of the JSON index map for triangle; "fails" with
# log2 of the refuting (ell, n); "exhausted" with log2 of the binding index
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
    "exp:log dil:t12 beurling": "exhausted -6",
    "exp:log dil:t12 roumieu": "exhausted -6",
    "exp:log dil:t12 triangle": "fails -6,-6",
    "dil:log exp:t12 beurling": "exhausted -6",
    "dil:log exp:t12 roumieu": "exhausted -6",
    "dil:log exp:t12 triangle": "fails -6,-6",
    "exp:log dil:log2 beurling": "holds 5:0 6:0 6:0 6:0 6:0 6:0 6:0 6:0 6:0 6:0 6:0 6:0 6:0",
    "exp:log dil:log2 roumieu": "exhausted -6",
    "exp:log dil:log2 triangle": "fails -6,-6",
    "dil:log exp:log2 beurling": "exhausted -5",
    "dil:log exp:log2 roumieu": "holds -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
    "dil:log exp:log2 triangle": "inconclusive",
    "exp:log2 dil:t12 beurling": "exhausted 4",
    "exp:log2 dil:t12 roumieu": "exhausted -6",
    "exp:log2 dil:t12 triangle": "fails -6,-6",
    "dil:log2 exp:t12 beurling": "exhausted -6",
    "dil:log2 exp:t12 roumieu": "holds -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0 -12:0",
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
    if status == "fails":
        return f"fails {_lg(im['ell'])},{_lg(im['n'])}"
    return status


@pytest.mark.parametrize("key", sorted(PINNED))
def test_mixed_kind_pairs_are_pinned(key):
    assert _outcome(*_matrices(key)) == PINNED[key]


def test_each_row_is_evaluated_at_most_once(monkeypatch):
    seen = collections.Counter()
    evaluate = core.WeightFunction.evaluate

    def counting(self, t):
        if isinstance(self, (Scaled, Dilated)):   # a matrix row
            seen[repr(self), np.asarray(t, dtype=float).tobytes()] += 1
        return evaluate(self, t)

    monkeypatch.setattr(core.WeightFunction, "evaluate", counting)
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
