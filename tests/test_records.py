"""verdict.Record, the one constructor of the report types whose fields need
no check, and a structural check that no report type writes its own."""

import ast
import json
import math
import pathlib

import numpy as np
import pytest

from weightlab import Power, counterexample, load_weight
from weightlab.growth import KappaResult
from weightlab.relations import WeightMatrix
from weightlab.verdict import Record, inconclusive, report_dict, to_json

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weightlab"


class _Point(Record):
    __slots__ = ("x", "y", "label", "_cache")
    _defaults = {"label": "", "_cache": None}


def test_fields_come_from_positions_then_keywords_then_defaults():
    p = _Point(1.0, y=2.0)
    assert (p.x, p.y, p.label, p._cache) == (1.0, 2.0, "", None)
    q = _Point(1.0, 2.0, "q", _cache=3)
    assert (q.x, q.y, q.label, q._cache) == (1.0, 2.0, "q", 3)
    r = _Point(label="r", y=5, x=4)
    assert (r.x, r.y, r.label, r._cache) == (4, 5, "r", None)


@pytest.mark.parametrize("args, kwargs, message", [
    ((1.0,), {}, "_Point is missing the field 'y'"),
    ((), {"y": 1.0}, "_Point is missing the field 'x'"),
    ((1.0, 2.0), {"z": 3.0}, "_Point has no further field 'z'"),
    ((1.0, 2.0), {"x": 3.0}, "_Point has no further field 'x'"),
    ((1.0, 2.0, "a", None, 5), {}, "_Point takes 4 fields, got 5"),
], ids=["missing-positional", "missing-first", "unknown", "repeated", "extra"])
def test_a_missing_unknown_or_extra_field_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        _Point(*args, **kwargs)


def test_a_record_has_no_dict_and_takes_no_other_attribute():
    p = _Point(1.0, 2.0)
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.z = 3.0


def test_the_json_form_is_the_public_slots_in_order():
    p = _Point(np.float64(1.5), math.inf, (1, 2), _cache="hidden")
    d = p.to_dict()
    assert list(d) == ["x", "y", "label"]
    assert d == report_dict(p) == {"x": 1.5, "y": "inf", "label": [1, 2]}
    assert type(d["x"]) is float
    nested = _Point(p, inconclusive(notes="n"))
    assert to_json(nested) == {"x": d, "y": inconclusive(notes="n").to_dict(), "label": ""}


def test_a_report_type_keeps_its_field_order_and_properties():
    k = KappaResult("divergent", None, None, None, {"n": 3})
    assert k.to_dict() == {"kind": "divergent", "value": None, "tail_low": None,
                           "tail_high": None, "evidence": {"n": 3}}
    assert k.divergent


def test_records_that_hold_a_weight_give_its_document():
    # a weight's JSON form is the document load_weight reads back
    m = WeightMatrix.exponential(Power(0.5))
    d = m.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d == {"kind": "exponential", "base": {"family": "power", "params": {"alpha": 0.5}},
                 "entries": [], "nondecreasing": True}
    assert load_weight(d["base"]) == Power(0.5)
    p = counterexample.construct(counterexample.default_delta(5), 0.5, 5)
    d = p.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["delta"] == {"values": list(p.delta.values), "provenance": "default-formula"}
    assert d["weight"] == p.weight.to_json_dict()
    assert load_weight(d["weight"]).to_json_dict() == d["weight"]


def _copies_its_parameters(init):
    """True when the body of `init`, a docstring aside, only assigns its own
    parameters to attributes of self."""
    params = {a.arg for a in init.args.args[1:] + init.args.kwonlyargs}
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return bool(body) and all(
        isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Attribute)
        and isinstance(stmt.targets[0].value, ast.Name) and stmt.targets[0].value.id == "self"
        and isinstance(stmt.value, ast.Name) and stmt.value.id in params
        for stmt in body)


def _field_copying_classes(src):
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                inits = [f for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                if inits and _copies_its_parameters(inits[0]):
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_no_class_writes_a_constructor_that_only_copies_its_parameters():
    """Such a class derives from verdict.Record and lists its defaults in
    _defaults instead."""
    assert _field_copying_classes(_SRC) == []


def test_the_structural_check_finds_a_copying_constructor(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self, a, b=1):\n"
        "        '''doc'''\n"
        "        self.a = a\n"
        "        self.b = b\n"
        "class B:\n"
        "    def __init__(self, a):\n"
        "        self.a = float(a)\n")
    assert _field_copying_classes(tmp_path) == ["m.A"]
