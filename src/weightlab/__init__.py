"""Numerical calculus for weight functions: growth conditions, Young
conjugates, associated matrices, comparison relations, weighted L^p
experiments, and a plateau-based counterexample generator.

`core`, `errors` and `verdict` load with the package; every other module
loads on first use, e.g. when `weightlab.relations` is first read.  numpy
loads at the first sample a call reads (`core.np`), so a call answered from
closed forms alone, or refused as malformed, never loads it."""

import importlib

from . import errors
from .core import (Associated, Dilated, Exp, Gevrey, GridSpec, Log, LogPower,
                   Normalized, PiecewiseLogLinear, Power, Scaled,
                   WeightFunction, WeightSequence, dump_weight, load_weight)
from .verdict import Status, Verdict

__version__ = "0.1.0"

__all__ = [
    "conditions", "conjugate", "counterexample", "errors", "growth",
    "lpspace", "relations",
    "Associated", "Dilated", "Exp", "Gevrey", "GridSpec", "Log", "LogPower",
    "Normalized", "PiecewiseLogLinear", "Power", "Scaled", "WeightFunction",
    "WeightSequence", "dump_weight", "load_weight",
    "Status", "Verdict", "__version__",
]


def __getattr__(name):
    # the names of __all__ not bound above are the modules loaded on first use
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
