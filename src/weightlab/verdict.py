"""Three-valued verdicts for finite-horizon checks of asymptotic conditions,
and the JSON form every report takes."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


def to_json(obj):
    """The JSON form of report content: a report's ``to_dict``, an enum's
    value, numpy values as Python ones, "nan"/"inf"/"-inf" for non-finite
    floats, lists for tuples, strings for dict keys; TypeError otherwise."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, (str, int, float)) or obj is None:
        return obj
    raise TypeError(f"no JSON form for {type(obj).__name__} in a report")


def report_dict(report) -> dict:
    """A report's JSON form, its public slots by name, in order: the
    ``to_dict`` of every report whose JSON restates its fields."""
    return {name: to_json(getattr(report, name))
            for name in type(report).__slots__ if not name.startswith("_")}


class Record:
    """A report whose fields need no check: a subclass lists its fields in
    ``__slots__`` and the defaults of the trailing ones in ``_defaults``.
    The fields are set in slot order from the positional arguments, then
    from the keywords, then from ``_defaults``; a missing, unknown or
    repeated field raises TypeError."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                setattr(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                setattr(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing the field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} has no further field {next(iter(kwargs))!r}")

    to_dict = report_dict


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class Verdict:
    __slots__ = ("status", "certificate", "witness", "margin", "horizon", "notes")

    def __init__(self, status: Status, certificate: dict | None = None,
                 witness: dict | None = None, margin: float | None = None,
                 horizon: dict | None = None, notes: str = ""):
        if status is Status.HOLDS and certificate is None:
            raise ValueError("Holds verdict requires a certificate")
        if status is Status.FAILS and witness is None:
            raise ValueError("Fails verdict requires a witness")
        self.status = status
        self.certificate = certificate
        self.witness = witness
        self.margin = margin
        self.horizon = horizon
        self.notes = notes

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def inconclusive(self) -> bool:
        return self.status is Status.INCONCLUSIVE

    to_dict = report_dict


def holds(certificate: dict, margin=None, horizon=None, notes="") -> Verdict:
    return Verdict(Status.HOLDS, certificate=certificate, margin=margin,
                   horizon=horizon, notes=notes)


def fails(witness: dict, margin=None, horizon=None, notes="") -> Verdict:
    return Verdict(Status.FAILS, witness=witness, margin=margin,
                   horizon=horizon, notes=notes)


def inconclusive(margin=None, horizon=None, notes="", certificate=None) -> Verdict:
    return Verdict(Status.INCONCLUSIVE, certificate=certificate, margin=margin,
                   horizon=horizon, notes=notes)


def conjunction(parts: dict) -> Verdict:
    """Combine named sub-verdicts: all hold -> Holds, any fails -> Fails."""
    if any(v.fails for v in parts.values()):
        name = next(k for k, v in parts.items() if v.fails)
        return fails({"failing_part": name, "witness": parts[name].witness})
    if all(v.holds for v in parts.values()):
        return holds({k: v.certificate for k, v in parts.items()})
    pending = [k for k, v in parts.items() if v.inconclusive]
    return inconclusive(notes=f"undecided parts: {', '.join(pending)}")
