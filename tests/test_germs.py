"""Germs: every weight of known growth order carries its germ t^a (log t)^b,
or "exp", and the asymptotic conditions are read from it in one place.

`closed_form_table.json` holds `_table()` as it read before weights carried
germs: `_closed_form`'s True / False / None and `_final_ray`'s status for
each weight below and each condition.  Germs change no answer of either."""

import ast
import json
from pathlib import Path

import pytest

import weightlab
from weightlab import (Dilated, Exp, Gevrey, Log, LogPower, Normalized, PiecewiseLogLinear,
                       Power, Scaled, conditions, dump_weight, load_weight)
from weightlab.errors import NotMonotone

from conftest import _Opaque

_HERE = Path(__file__).resolve().parent

_SEQUENCE = load_weight({"sequence": [0.75 * k * k for k in range(30)]})
_RISING = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (3.0, 4.0)])
_LEVEL = PiecewiseLogLinear([(0.0, 0.0), (1.0, 1.0), (3.0, 1.0)])
_FALLING = PiecewiseLogLinear([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (4.0, 5.0)])

FAMILIES = {
    "power(0.5)": (Power(0.5), (0.5, 0)), "power(1)": (Power(1.0), (1.0, 0)),
    "power(1.5)": (Power(1.5), (1.5, 0)), "gevrey(2)": (Gevrey(2.0), (0.5, 0)),
    "log": (Log(), (0, 1)), "logpower(1)": (LogPower(1.0), (0, 1.0)),
    "logpower(2)": (LogPower(2.0), (0, 2.0)), "exp": (Exp(), "exp"),
}
BASES = {**{name: w for name, (w, _) in FAMILIES.items()},
         "sequence": _SEQUENCE, "rising": _RISING, "level": _LEVEL, "falling": _FALLING}
WRAPPERS = {
    "scaled(0.5)": lambda w: Scaled(0.5, w), "scaled(4)": lambda w: Scaled(4.0, w),
    "dilated(0.5)": lambda w: Dilated(0.5, w), "dilated(4)": lambda w: Dilated(4.0, w),
    "normalized": Normalized,
}


def _weights():
    """name -> weight: each base, each wrapper of it, and each wrapper of
    those; a falling profile cannot be normalized, so its names that
    normalize are left out."""
    out = dict(BASES)
    for _ in range(2):
        for name, w in list(out.items()):
            for wname, wrap in WRAPPERS.items():
                key = f"{wname}[{name}]"
                if key not in out:
                    try:
                        out[key] = wrap(w)
                    except NotMonotone:
                        pass
    return out


WEIGHTS = _weights()


def _cell(w, cond):
    """Two letters: `_closed_form`'s T / F / . and `_final_ray`'s H / F / ."""
    exact = conditions._closed_form(w, cond)
    ray = conditions._final_ray(w, cond)
    return ({True: "T", False: "F", None: "."}[exact]
            + ("." if ray is None else ray.status.value[0].upper()))


def _table():
    return {name: " ".join(_cell(w, cond) for cond in conditions.CONDITION_IDS)
            for name, w in WEIGHTS.items()}


def test_closed_forms_and_final_rays_keep_their_answers():
    want = json.loads((_HERE / "closed_form_table.json").read_text())
    assert want["conditions"] == list(conditions.CONDITION_IDS)
    got = _table()
    assert got.keys() == want["table"].keys()
    diff = {name: (want["table"][name], row) for name, row in got.items()
            if row != want["table"][name]}
    assert not diff


@pytest.mark.parametrize("name", list(FAMILIES))
def test_each_family_carries_its_germ(name):
    w, germ = FAMILIES[name]
    assert w.germ == germ and w.profile is None


def _over(base):
    """The weights of WEIGHTS built on the base of this name."""
    return {k: w for k, w in WEIGHTS.items() if k.rstrip("]").rsplit("[", 1)[-1] == base}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_wrappers_carry_their_base_germ(name):
    found = _over(name)
    assert len(found) == 31
    for key, w in found.items():
        assert w.germ == FAMILIES[name][1], key


def test_a_rising_profile_and_its_wrappers_are_log_type():
    found = _over("rising")
    assert len(found) == 31
    for key, w in found.items():
        assert w.germ == (0, 1), key


@pytest.mark.parametrize("base", ["sequence", "level", "falling"])
def test_sequences_level_and_falling_profiles_have_no_germ(base):
    found = _over(base)
    assert found
    for key, w in found.items():
        assert w.germ is None, key


def test_an_opaque_copy_has_no_germ():
    for key, w in WEIGHTS.items():
        assert _Opaque(w).germ is None, key


def test_the_germ_survives_a_weight_document():
    for key, w in WEIGHTS.items():
        assert load_weight(dump_weight(w)).germ == w.germ, key


def test_the_germ_is_no_field_of_a_family():
    # equality, hash and repr are built from the slots
    w = Power(0.5)
    assert "germ" not in Power.__slots__
    assert w == Power(0.5) and w != Power(1.0) and w != Gevrey(2.0)
    assert hash(w) == hash((0.5,))
    assert repr(w) == "Power({'family': 'power', 'params': {'alpha': 0.5}})"


# the names only `core` may read: the rest of the package reads a weight's
# growth order from its germ, so closed-form truth lives in one place
_FAMILY_NAMES = {"Power", "Gevrey", "Log", "LogPower", "Exp"}
_PARAMETERS = {"alpha", "beta"}


def _family_reads(path):
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in _FAMILY_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in _FAMILY_NAMES | _PARAMETERS:
            found.append(f".{node.attr}")
    return [f"{path.name}:{name}" for name in found]


def test_only_core_names_the_families():
    src = Path(weightlab.__file__).resolve().parent
    paths = [p for p in sorted(src.glob("*.py")) if p.stem not in ("core", "__init__")]
    assert len(paths) >= 8
    found = [r for p in paths for r in _family_reads(p)]
    assert not found, f"family names or parameters read outside core: {found}"
