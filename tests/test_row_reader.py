"""The row reader: compare's dilation relations, and the rule that a row
which cannot be read raises only where a loop over the rows reaches it."""

from collections import Counter

import numpy as np
import pytest

from weightlab import (Dilated, Exp, GridSpec, Log, LogPower, PiecewiseLogLinear, Power,
                       Scaled, WeightFunction, load_weight, relations)
from weightlab.errors import EmptyInput, IndexSearchExhausted, WeightlabError
from weightlab.relations import DEFAULT_ELL_GRID, DEFAULT_GRID, RelationVerdict, WeightMatrix
from weightlab.verdict import conjunction, fails, holds, inconclusive


class _Opaque(WeightFunction):
    """The same function behind a type without a closed form."""

    def __init__(self, inner):
        self.inner = inner
        self.nondecreasing = inner.nondecreasing

    def _eval(self, t):
        return self.inner._eval(t)


class _Wavy(WeightFunction):
    """sqrt(t) (1.5 + sin t): nonnegative, not monotone."""

    nondecreasing = False

    def _eval(self, t):
        return np.sqrt(t) * (1.5 + np.sin(t))


class _Steep(WeightFunction):
    """t^-400: finite for t >= 1, overflowing below about t = 0.17."""

    nondecreasing = False

    def _eval(self, t):
        with np.errstate(over="ignore", divide="ignore"):
            return t ** -400.0


class _Plus(WeightFunction):
    """a + b, raising wherever either raises."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _eval(self, t):
        return self.a._eval(t) + self.b._eval(t)


def _outcome(call):
    try:
        result = call()
    except WeightlabError as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.to_dict() if hasattr(result, "to_dict") else result


# --------------------------------------------------------------------------
# compare's dilation relations against a copy of the row-by-row loops
# --------------------------------------------------------------------------

def _dilation_dom_loop(sigma, tg, s, t):
    last_peak = prev_peak = None
    for k in range(13):
        C1 = 2.0 ** k
        d = t - (s if k == 0 else np.asarray(sigma.evaluate(C1 * tg)))
        v = relations._bounded_gap(tg, d)
        if v.holds:
            return holds({"C1": C1, "C2": v.certificate["C"]}, margin=v.margin)
        prev_peak, last_peak = last_peak, float(np.max(d))
    if prev_peak is not None and last_peak > 0 \
            and abs(prev_peak - last_peak) <= 0.1 * abs(last_peak):
        if v.fails:
            k = int(np.argmax(d))
            return fails({"t": float(tg[k]), "gap": float(d[k]), "C1_max": 2.0 ** 12},
                         notes="gap diverges and is insensitive to further dilation")
    return inconclusive(notes="no dilation factor up to 2^12 certified")


def _compare_loop(sigma, tau, rel, grid):
    tg = grid.points()
    s, t = np.asarray(sigma.evaluate(tg)), np.asarray(tau.evaluate(tg))
    if rel == "preceq_c":
        v = _dilation_dom_loop(sigma, tg, s, t)
    elif rel == "sim_c":
        v = conjunction({"forward": _dilation_dom_loop(sigma, tg, s, t),
                         "backward": _dilation_dom_loop(tau, tg, t, s)})
    else:
        parts = {}
        for eps in (1.0, 0.5, 0.1, 0.01):
            d = t - (s if eps == 1.0 else np.asarray(sigma.evaluate(eps * tg)))
            parts[f"eps={eps}"] = relations._bounded_gap(tg, d)
        v = conjunction(parts)
    return RelationVerdict(v, rel)


_PROFILE = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.5), (2.5, 4.0), (4.0, 4.5)])
# flat from t = e^20.8: against t, the gaps of the dilations 2^11 and 2^12
# peak alike, those of 2^10 and 2^11 do not
_CAPPED = PiecewiseLogLinear([(0.0, 0.0), (20.6, 0.0), (20.8, 3e5), (40.0, 3e5)])
# the last corner lies near t = 4e7: dilations from C1 = 2^6 raise on the
# default grid
_SHORT_SEQUENCE = load_weight({"sequence": [0.15 * k * k for k in range(60)]})
# and near t = 1100: dilations from C1 = 2 raise on a grid to 1000
_TINY_SEQUENCE = load_weight({"sequence": [0.06 * k * k for k in range(60)]})
_WEIGHTS = {
    "t12": Power(0.5), "t1": Power(1.0), "t2": Power(2.0), "log": Log(),
    "log2": LogPower(2.0), "exp": Exp(), "opaque": _Opaque(Power(0.45)),
    "profile": _PROFILE, "dil_profile": Dilated(4.0, _PROFILE), "wavy": _Wavy(),
    "short_sequence": _SHORT_SEQUENCE, "scaled_sequence": Scaled(3.0, _SHORT_SEQUENCE),
    "dil_exp": Dilated(5.0, Exp()), "tiny_sequence": _TINY_SEQUENCE, "steep": _Steep(),
    "capped": _CAPPED,
}
_PAIRS = [("t12", "log2"), ("log2", "t12"), ("t1", "t12"), ("t12", "t2"), ("log", "t12"),
          ("opaque", "log"), ("log", "opaque"), ("profile", "t12"), ("t12", "profile"),
          ("dil_profile", "profile"), ("wavy", "t12"), ("t12", "wavy"), ("wavy", "log"),
          ("short_sequence", "t1"), ("t1", "short_sequence"), ("short_sequence", "t2"),
          ("scaled_sequence", "t12"), ("t2", "scaled_sequence"), ("capped", "t1")]
# a grid to 100 keeps exp finite, but its dilations overflow from C1 = 8;
# 1 ... 1000 is a grid of exactly three decades, which the gap rule refuses;
# on grids from 1, t^-400 is finite, and its rows eps = 0.1, 0.01 overflow
_GRIDS = {"default": DEFAULT_GRID, "to100": GridSpec(1e-2, 1e2, 300),
          "three_decades": GridSpec(1.0, 1e3, 200), "from1": GridSpec(1.0, 1e5, 300)}
_CASES = [(s, t, "default") for s, t in _PAIRS] + [
    ("exp", "dil_exp", "to100"), ("exp", "t2", "to100"), ("dil_exp", "exp", "to100"),
    ("t12", "log2", "three_decades"), ("short_sequence", "t1", "three_decades"),
    ("tiny_sequence", "t1", "three_decades"), ("tiny_sequence", "t12", "to100"),
    ("steep", "t1", "three_decades"), ("steep", "t1", "from1"), ("t1", "steep", "from1")]


@pytest.mark.parametrize("rel", ["preceq_c", "sim_c", "triangle_c"])
@pytest.mark.parametrize("sigma,tau,grid", _CASES)
def test_dilation_relations_equal_the_row_by_row_loops(sigma, tau, grid, rel):
    s, t, g = _WEIGHTS[sigma], _WEIGHTS[tau], _GRIDS[grid]
    assert _outcome(lambda: relations.compare(s, t, rel, g)) == \
        _outcome(lambda: _compare_loop(s, t, rel, g))


def test_the_dilation_cases_reach_errors_and_every_verdict():
    seen = {_outcome(lambda: _compare_loop(_WEIGHTS[s], _WEIGHTS[t], rel, _GRIDS[g]))[0]
            for s, t, g in _CASES for rel in ("preceq_c", "triangle_c")}
    assert {"ok", "HorizonTooSmall", "NonFinite"} <= seen
    statuses = {relations.compare(_WEIGHTS[s], _WEIGHTS[t], "preceq_c").verdict.status.value
                for s, t in _PAIRS if s != "short_sequence"}
    assert statuses == {"holds", "fails", "inconclusive"}


# --------------------------------------------------------------------------
# a row that cannot be read, against sequential loops over the rows
# --------------------------------------------------------------------------

_SEQUENCE = load_weight({"sequence": [0.19 * k * k for k in range(60)]})


def _failing_from(k, bad, n=6):
    """An explicit matrix in order whose rows from the k-th on add `bad`."""
    rows = [Scaled(i + 1.0, Power(0.5)) for i in range(n)]
    return WeightMatrix.explicit(
        (2.0 ** (i - 2), _Plus(w, bad) if i >= k else w) for i, w in enumerate(rows))


_GOOD = WeightMatrix.explicit((2.0 ** (i - 2), Scaled(i + 1.0, Log())) for i in range(6))
# Power(30) and the sequence fail on the search grid only, Power(60) already
# on the reporting grid
_BAD = {"overflow": Power(30.0), "sequence": _SEQUENCE, "early": Power(60.0)}


def _order_loop(W, ell_grid=DEFAULT_ELL_GRID, grid=DEFAULT_GRID):
    tg = grid.points()
    prev = None
    for l in sorted(W.indices(ell_grid)):
        cur = np.asarray(W.weight_at(l).evaluate(tg))
        if prev is not None:
            tol = 1e-9 * (1.0 + float(np.max(np.abs(cur))))
            bad = prev > cur + tol
            if np.any(bad):
                raise relations.ValidationFailed(
                    f"matrix order violated at t={tg[int(np.argmax(bad))]:g} between indices")
        prev = cur


def _search_loop(outer, cands, outer_row, cand_row, tg):
    """The first partner of each outer index, pairs read outer row first."""
    found = {}
    for o in outer:
        top, v = outer_row(o), None
        for c in cands:
            v = relations._bounded_gap(tg, top - cand_row(c))
            if v.holds:
                found[o] = (c, v.certificate["C"])
                break
        else:
            return None, o, v
    return found, None, None


def _relation_loop(S, T, rel):
    """matrix_relation on explicit matrices, one row at a time."""
    _order_loop(S)
    _order_loop(T)
    grid = DEFAULT_GRID
    tg = np.geomspace(grid.t_min, grid.t_max * 1e6, 2 * grid.n_points)

    def row(W, l):
        return np.asarray(W.weight_at(l).evaluate(tg))
    s_idx, t_idx = sorted(S.indices(DEFAULT_ELL_GRID)), sorted(T.indices(DEFAULT_ELL_GRID))
    if rel == "triangle":
        found = {}
        for ell in t_idx:
            for n in s_idx:
                v = relations._bounded_gap(tg, row(T, ell) - row(S, n))
                if not v.holds:
                    if not v.fails:
                        return RelationVerdict(inconclusive(
                            notes=f"pair (ell={ell}, n={n}) undecided"), rel)
                    return RelationVerdict(v, rel, {"ell": ell, "n": n})
                found[str((ell, n))] = v.certificate["C"]
        return RelationVerdict(holds({"pairs": len(found)}), rel, found)
    if rel == "beurling":
        found, binding, _ = _search_loop(t_idx, s_idx, lambda l: row(T, l),
                                         lambda n: row(S, n), tg)
    else:
        # each pair reads T's row first, so T's first row precedes S's rows
        row(T, t_idx[0])
        found, binding, _ = _search_loop(s_idx, t_idx, lambda n: -row(S, n),
                                         lambda l: -row(T, l), tg)
    if binding is not None:
        raise IndexSearchExhausted(binding)
    partner = "n" if rel == "beurling" else "ell"
    index_map = {o: {partner: c, "C": C} for o, (c, C) in found.items()}
    return RelationVerdict(holds({"indices_covered": len(index_map)}), rel, index_map)


_FAILING = [(k, bad) for k in (0, 1, 3, 5) for bad in sorted(_BAD)]


@pytest.mark.parametrize("k,bad", _FAILING)
def test_the_order_check_raises_where_the_row_loop_does(k, bad):
    W = _failing_from(k, _BAD[bad])
    for grid in (DEFAULT_GRID, GridSpec(1e-2, 1e12, 600)):
        assert _outcome(lambda: W.verify_pointwise_order(grid=grid)) == \
            _outcome(lambda: _order_loop(W, grid=grid))


@pytest.mark.parametrize("rel", relations.MATRIX_RELATIONS)
@pytest.mark.parametrize("k,bad", _FAILING)
def test_matrix_relations_raise_where_the_row_loop_does(k, bad, rel):
    W = _failing_from(k, _BAD[bad])
    for S, T in ((W, _GOOD), (_GOOD, W), (W, W)):
        assert _outcome(lambda: relations.matrix_relation(S, T, rel)) == \
            _outcome(lambda: _relation_loop(S, T, rel))


@pytest.mark.parametrize("k,bad", _FAILING)
def test_the_mixed_doubling_search_raises_where_the_row_loop_does(k, bad):
    W = _failing_from(k, _BAD[bad])
    tg = GridSpec(1e-2, 1e12, 600).points()
    outer = sorted(W.indices(DEFAULT_ELL_GRID))
    ext = sorted(W.indices(DEFAULT_ELL_GRID, extended=True))

    def loop(S, T):
        found, binding, _ = _search_loop(
            outer, ext, lambda l: np.asarray(T.weight_at(l).evaluate(2 * tg)),
            lambda n: np.asarray(S.weight_at(n).evaluate(tg)), tg)
        if found is None:
            return None, binding
        return {l: {"n": n, "L": L} for l, (n, L) in found.items()}, None

    for S, T in ((W, _GOOD), (_GOOD, W), (W, W)):
        assert _outcome(lambda: relations.mixed_doubling_search(S, T, outer, tg)) == \
            _outcome(lambda: loop(S, T))


def test_the_failing_rows_are_reached():
    outcomes = {_outcome(lambda: relations.matrix_relation(S, T, rel))[0]
                for k, bad in _FAILING for rel in relations.MATRIX_RELATIONS
                for S, T in ((_failing_from(k, _BAD[bad]), _GOOD),
                             (_GOOD, _failing_from(k, _BAD[bad])))}
    assert {"ok", "NonFinite", "HorizonTooSmall"} <= outcomes


def test_a_row_that_cannot_be_read_is_read_once(monkeypatch):
    # S rows n >= 2^11 overflow on the search grid; every outer index whose
    # candidate chunk holds 2^11 gets that row's error without a read
    reads = Counter()
    read = WeightMatrix._rows

    def counted(W, ells, args):
        reads[id(W), tuple(ells), args.size, float(args[-1])] += 1
        return read(W, ells, args)

    monkeypatch.setattr(WeightMatrix, "_rows", counted)
    base = Power(25.42)
    rv = relations.matrix_relation(WeightMatrix.exponential(base),
                                   WeightMatrix.exponential(Scaled(16.0, base)), "beurling")
    assert rv.holds
    assert {ell: v["n"] for ell, v in rv.index_map.items()} == {
        ell: 16 * ell for ell in DEFAULT_ELL_GRID}
    assert max(reads.values()) == 1
    assert sum(key[1] == (2.0 ** 11,) for key in reads) == 1


@pytest.mark.parametrize("rel", relations.MATRIX_RELATIONS)
def test_an_empty_index_grid_is_a_typed_error(rel):
    S, T = WeightMatrix.exponential(Power(0.5)), WeightMatrix.dilatation(Log())
    with pytest.raises(EmptyInput):
        relations.matrix_relation(S, T, rel, ell_grid=())


def test_an_empty_index_list_is_a_typed_error():
    S, T = WeightMatrix.exponential(Power(0.5)), WeightMatrix.dilatation(Log())
    with pytest.raises(EmptyInput):
        relations.mixed_doubling_search(S, T, [], DEFAULT_GRID.points())
    with pytest.raises(EmptyInput):
        S.verify_pointwise_order(ell_grid=())
