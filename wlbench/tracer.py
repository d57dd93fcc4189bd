"""Spans recorded from outside weightlab, around the calls into each module.

``Tracer.install`` replaces the public functions of every module under
``weightlab`` (and the public methods the per-layer metrics need) with
wrappers that open and close a span.  Each span stores its name, start,
end, parent span and op id in flat arrays kept in memory; ``write`` dumps
them when the run ends.  ``analyse`` turns the spans into run totals,
which the worker divides by the op count.  A span's self time is its
duration minus the time its child spans cover; the part of an op outside
every wrapped call is ``unattributed``.

The quadrature integrand calls the private ``_phi_unchecked``, which no
wrapper sees, so ``core.phi_points`` undercounts those evaluations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "core", "conditions", "growth", "conjugate", "relations",
          "lpspace", "counterexample", "verdict")

# private checkers that carry their own per-layer metric
_PRIVATE = {"conditions": ("_check_om_snq", "_check_om_sub", "_check_om_nq")}
_CLI_PUBLIC = ("run",)

# (module, class, method): methods wrapped in addition to module functions
_METHODS = (
    ("core", "WeightFunction", "evaluate"),
    ("core", "WeightFunction", "phi"),
    ("conjugate", "ConjugateProfile", "value"),
    ("relations", "WeightMatrix", "weight_at"),
    ("relations", "WeightMatrix", "verify_pointwise_order"),
)
# methods whose first argument's size is counted as points
_POINTS = ("core.WeightFunction.evaluate", "core.WeightFunction.phi",
           "conjugate.ConjugateProfile.value")

OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.op_ids = array("i")
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.points = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    # -- span recording ----------------------------------------------------
    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.op_ids.append(self._op)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_index: int, fn):
        """Run ``fn()`` as op ``op_index`` inside a root span."""
        self._op = op_index
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self._op = -1

    def _wrap(self, fn, qualname: str, count_points: bool):
        name_id = len(self.names)
        self.names.append(qualname)
        tracer = self

        if count_points:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if len(args) > 1:
                    tracer.points[name_id] += int(np.size(args[1]))
                idx = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target and rebind each reference to it in weightlab."""
        mods = {m: importlib.import_module(f"weightlab.{m}") for m in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                public = not name.startswith("_")
                if layer == "cli":
                    public = name in _CLI_PUBLIC
                if public or name in _PRIVATE.get(layer, ()):
                    replace[obj] = self._wrap(obj, f"{layer}.{name}", False)
        for layer, cls_name, meth in _METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = vars(cls)[meth]
            qual = f"{layer}.{cls_name}.{meth}"
            wrapped = self._wrap(orig, qual, qual in _POINTS)
            replace[orig] = wrapped
            for attr, val in list(vars(cls).items()):
                if val is orig:       # aliases such as __call__ = evaluate
                    self._saved.append((cls, attr, val))
                    setattr(cls, attr, wrapped)
        for mname, mod in list(sys.modules.items()):
            if not (mname == "weightlab" or mname.startswith("weightlab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, replace[val])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    # -- output --------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.op_ids[i]}\t{self.names[self.name_ids[i]]}\t"
                         f"{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(tr: Tracer) -> dict:
    """Totals over all traced ops, plus the per-op accounting check."""
    n = len(tr.starts)
    names = tr.names
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tr.parents[i]
        if p >= 0:
            child[p] += dur[i]
    self_time = [dur[i] - child[i] for i in range(n)]

    layer_self = defaultdict(float)       # layer -> s
    inclusive = defaultdict(float)        # name -> s, outermost spans only
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    op_wall = 0.0
    unattributed = 0.0
    ops = 0
    per_op_sum = defaultdict(float)
    per_op_wall = {}
    eval_touched = set()                  # check_condition spans that evaluated
    cc_spans = 0
    check_id = names.index("conditions.check_condition") \
        if "conditions.check_condition" in names else -2
    eval_ids = {names.index(q) for q in ("core.WeightFunction.evaluate",
                                         "core.WeightFunction.phi") if q in names}
    bad_nesting = 0
    for i in range(n):
        nid = tr.name_ids[i]
        name = names[nid]
        op = tr.op_ids[i]
        p = tr.parents[i]
        if p >= 0 and (tr.starts[i] < tr.starts[p] or tr.ends[i] > tr.ends[p]
                       or tr.op_ids[p] != op):
            bad_nesting += 1
        if nid == 0:
            ops += 1
            op_wall += dur[i]
            unattributed += self_time[i]
            per_op_wall[op] = dur[i]
            per_op_sum[op] += self_time[i]
            continue
        per_op_sum[op] += self_time[i]
        calls[name] += 1
        self_by_name[name] += self_time[i]
        layer_self[_layer(name)] += self_time[i]
        if nid == check_id:
            cc_spans += 1
        # outermost span of this name: no ancestor shares it
        q, outer, evals = p, True, nid in eval_ids
        while q >= 0:
            qn = tr.name_ids[q]
            if qn == nid:
                outer = False
            if evals and qn == check_id:
                eval_touched.add(q)
            q = tr.parents[q]
        if outer:
            inclusive[name] += dur[i]
    worst = max((abs(per_op_sum[o] - per_op_wall[o]) for o in per_op_wall),
                default=0.0)
    return {
        "ops": ops, "spans": n, "op_wall_s": op_wall,
        "unattributed_s": unattributed, "layer_self_s": dict(layer_self),
        "inclusive_s": dict(inclusive), "self_s": dict(self_by_name),
        "calls": dict(calls),
        "points": {names[k]: v for k, v in tr.points.items()},
        "check_condition_calls": cc_spans,
        "check_condition_evaluating": len(eval_touched),
        "max_accounting_error_s": worst, "bad_nesting": bad_nesting,
    }
