"""The benchmark's tracer wraps some weightlab names one by one, and a name
it cannot find carries no spans, so its per-layer metric would read 0.
Every such name must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "wlbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("_wlbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer,name", [
    (layer, name) for layer, names in tracer._PRIVATE.items() for name in names])
def test_each_private_checker_the_tracer_wraps_exists(layer, name):
    # the tracer wraps a module's own functions only
    mod = importlib.import_module(f"weightlab.{layer}")
    fn = vars(mod).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


@pytest.mark.parametrize("layer,cls,meth", tracer._METHODS)
def test_each_method_the_tracer_wraps_exists(layer, cls, meth):
    owner = getattr(importlib.import_module(f"weightlab.{layer}"), cls)
    assert callable(vars(owner).get(meth))


def test_the_tracer_records_a_span_for_each_private_checker():
    # a checker reached through a reference taken at import time would run
    # unseen, and its per-layer metric would read 0
    from weightlab import Power, WeightFunction, conditions

    class Opaque(WeightFunction):
        def _eval(self, t):
            return Power(0.5)._eval(t)

    tr = tracer.Tracer()
    tr.install()
    try:
        for i, name in enumerate(tracer._PRIVATE["conditions"]):
            cond = name.removeprefix("_check_")
            tr.run_op(i, lambda: conditions.check_condition(Opaque(), cond))
    finally:
        tr.uninstall()
    seen = {tr.names[k] for k in tr.name_ids}
    assert {f"conditions.{name}" for name in tracer._PRIVATE["conditions"]} <= seen
