"""A mixed-kind matrix pair (an exponential matrix against a dilatation
matrix) whose T base grows strictly faster than its S base fails every
matrix relation from the germs alone, before any partner search.

Both kinds of row of a base equivalent to t^a (log t)^b are equivalent to
t^a (log t)^b whatever the index is, and e^t outgrows every t^a, so each
tau^ell / sigma^n tends to infinity and no gap tau^ell - sigma^n is
bounded.  The truths below are derived by hand, not read from `germ`."""

import itertools
import json

import numpy as np
import pytest

from weightlab import cli, relations
from weightlab.core import (DEFAULT_GRID, Dilated, Exp, GridSpec, Log, LogPower,
                            PiecewiseLogLinear, Power, Scaled)
from weightlab.errors import IndexSearchExhausted
from weightlab.relations import WeightMatrix
from weightlab.verdict import to_json

from conftest import _Opaque

# name: (base, its growth order in JSON form, its rank in that order)
# log(1 + 4t) ~ log t; the profile's final ray has slope 3/2 in u = log t,
# so it is ~ (3/2) log t; log^2 t / log t, t^(1/4) / log^2 t and
# t^(1/2) / t^(1/4) tend to infinity; 3 t^(1/2) ~ t^(1/2); e^t outgrows
# every power of t
_BASES = {
    "log": (Log(), [0, 1], 0),
    "log4t": (Dilated(4.0, Log()), [0, 1], 0),
    "prof": (PiecewiseLogLinear([(0, 0), (1, 1), (3, 4)]), [0, 1], 0),
    "log2": (LogPower(2.0), [0, 2], 1),
    "t14": (Power(0.25), [0.25, 0], 2),
    "t12": (Power(0.5), [0.5, 0], 3),
    "3t12": (Scaled(3.0, Power(0.5)), [0.5, 0], 3),
    "exp": (Exp(), "exp", 4),
}
_KINDS = {"exp": WeightMatrix.exponential, "dil": WeightMatrix.dilatation}

# e^(64 t) stays finite up to t = 10, so every row of every base, Exp
# included, passes the order check on this grid
_SHORT = GridSpec(1e-2, 10.0, 100)

_OUTGROWN = [(s, t) for s, t in itertools.permutations(_BASES, 2)
             if _BASES[t][2] > _BASES[s][2]]


class _Searched(Exception):
    pass


def _no_search(*args):
    raise _Searched


@pytest.mark.parametrize("rel", relations.MATRIX_RELATIONS)
@pytest.mark.parametrize("s_kind, t_kind", [("exp", "dil"), ("dil", "exp")])
@pytest.mark.parametrize("s, t", _OUTGROWN, ids=[f"{s}<{t}" for s, t in _OUTGROWN])
def test_a_pair_whose_T_base_outgrows_its_S_base_fails_without_a_search(
        monkeypatch, s, t, s_kind, t_kind, rel):
    monkeypatch.setattr(relations, "_matrix_search", _no_search)
    lengths = set()
    read = WeightMatrix._rows

    def recording(self, ells, args):
        lengths.add(np.shape(args)[-1])
        return read(self, ells, args)

    monkeypatch.setattr(WeightMatrix, "_rows", recording)
    S, T = _KINDS[s_kind](_BASES[s][0]), _KINDS[t_kind](_BASES[t][0])
    rv = relations.matrix_relation(S, T, rel, grid=_SHORT)
    assert rv.verdict.fails
    assert to_json(rv.verdict.witness) == {"germ_sigma": _BASES[s][1],
                                           "germ_tau": _BASES[t][1]}
    first = relations.DEFAULT_ELL_GRID[0]
    assert rv.index_map == ({"ell": first, "n": first} if rel == "triangle" else None)
    # only the order check read rows, and only on the reporting grid
    assert lengths <= {_SHORT.n_points}


def test_the_triangle_map_names_the_first_indices_of_the_grid():
    S, T = WeightMatrix.exponential(Log()), WeightMatrix.dilatation(Power(0.5))
    rv = relations.matrix_relation(S, T, "triangle", ell_grid=(2.0, 0.5, 1.0))
    assert rv.verdict.fails and rv.index_map == {"ell": 0.5, "n": 0.5}


def _explicit_logs():
    return WeightMatrix.explicit([(1.0, Log()), (2.0, Scaled(2.0, Log()))])


# pairs the germs do not decide: a base with no germ, equal germs, a T base
# below the S base, two "exp" bases, same-kind pairs and an explicit matrix
_SEARCHED = {
    "opaque S": lambda: (WeightMatrix.exponential(_Opaque(Log())),
                         WeightMatrix.dilatation(Power(0.5))),
    "opaque T": lambda: (WeightMatrix.exponential(Log()),
                         WeightMatrix.dilatation(_Opaque(Power(0.5)))),
    "equal log": lambda: (WeightMatrix.exponential(Log()),
                          WeightMatrix.dilatation(_BASES["prof"][0])),
    "equal log, dilated": lambda: (WeightMatrix.dilatation(Dilated(4.0, Log())),
                                   WeightMatrix.exponential(Log())),
    "equal power": lambda: (WeightMatrix.dilatation(Power(0.5)),
                            WeightMatrix.exponential(Scaled(3.0, Power(0.5)))),
    "T below S": lambda: (WeightMatrix.exponential(Power(0.5)),
                          WeightMatrix.dilatation(Log())),
    "T below an exp S": lambda: (WeightMatrix.dilatation(Exp()),
                                 WeightMatrix.exponential(LogPower(2.0))),
    "exp and exp": lambda: (WeightMatrix.exponential(Exp()), WeightMatrix.dilatation(Exp())),
    "exp and exp, swapped": lambda: (WeightMatrix.dilatation(Exp()),
                                     WeightMatrix.exponential(Exp())),
    "same kind exponential": lambda: (WeightMatrix.exponential(Log()),
                                      WeightMatrix.exponential(Power(0.5))),
    "same kind dilatation": lambda: (WeightMatrix.dilatation(Log()),
                                     WeightMatrix.dilatation(Power(0.5))),
    "explicit S": lambda: (_explicit_logs(), WeightMatrix.dilatation(Power(0.5))),
}
# the cases with an Exp base, whose far rows leave the double range on the
# default grid
_EXP_CASES = {"T below an exp S", "exp and exp", "exp and exp, swapped"}


@pytest.mark.parametrize("rel", relations.MATRIX_RELATIONS)
@pytest.mark.parametrize("case", sorted(_SEARCHED))
def test_a_pair_the_germs_do_not_decide_still_searches(monkeypatch, case, rel):
    monkeypatch.setattr(relations, "_matrix_search", _no_search)
    S, T = _SEARCHED[case]()
    grid = _SHORT if case in _EXP_CASES else DEFAULT_GRID
    with pytest.raises(_Searched):
        relations.matrix_relation(S, T, rel, grid=grid)


def test_an_opaque_pair_still_ends_in_an_exhausted_search():
    S = WeightMatrix.exponential(_Opaque(Log()))
    T = WeightMatrix.dilatation(_Opaque(Power(0.5)))
    with pytest.raises(IndexSearchExhausted):
        relations.matrix_relation(S, T, "beurling")


def test_the_cli_prints_a_fails_report_for_an_outgrown_pair(tmp_path, capsys):
    log, root = tmp_path / "log.json", tmp_path / "t12.json"
    log.write_text(json.dumps({"family": "log", "params": {}}))
    root.write_text(json.dumps({"family": "power", "params": {"alpha": 0.5}}))
    code = cli.run(["matrix-compare", "--s-type", "exp", "--s-weight", str(log),
                    "--t-type", "dil", "--t-weight", str(root), "--rel", "beurling"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    report = json.loads(captured.out)["results"]["matrix_compare"]["beurling"]
    assert report["index_map"] is None
    assert report["verdict"]["status"] == "fails"
    assert report["verdict"]["witness"] == {"germ_sigma": [0, 1], "germ_tau": [0.5, 0]}
