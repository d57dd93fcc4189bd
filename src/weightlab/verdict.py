"""Three-valued verdicts for finite-horizon checks of asymptotic conditions,
and the JSON form every report takes."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

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
    """A report dataclass's JSON form, its public fields by name: the
    ``to_dict`` of every report whose JSON restates its fields."""
    return {f.name: to_json(getattr(report, f.name))
            for f in fields(report) if not f.name.startswith("_")}


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: Optional[dict] = None
    witness: Optional[dict] = None
    margin: Optional[float] = None
    horizon: Optional[dict] = None
    notes: str = ""

    def __post_init__(self):
        if self.status is Status.HOLDS and self.certificate is None:
            raise ValueError("Holds verdict requires a certificate")
        if self.status is Status.FAILS and self.witness is None:
            raise ValueError("Fails verdict requires a witness")

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
