"""Weight function representations and evaluation.

A weight is a nonnegative function w on [0, inf).  Everything downstream
works either with w(t) directly or with its log-reparametrization
phi(u) = w(e^u).  Piecewise-linear profiles are stored directly in the
u-domain so no exp/log round trip is ever needed for them, and a scaled,
dilated or normalized profile carries its own corners as its `profile`.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import numpy as np

from .errors import (EmptyInput, HorizonTooSmall, NonFinite, NotMonotone, ValidationFailed,
                     WeightlabError)
from .verdict import report_dict

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "WeightFunction",
    "Power",
    "Gevrey",
    "Log",
    "LogPower",
    "Exp",
    "PiecewiseLogLinear",
    "WeightSequence",
    "Associated",
    "Scaled",
    "Dilated",
    "Normalized",
    "load_weight",
    "dump_weight",
    "pl_eval",
]


class _Value:
    """A value built once: equal to an object of its own type with equal
    slots, hashed by them, and read-only (`__init__` sets the slots with
    object.__setattr__).  The tuple of the slots is built at the first
    comparison or hash and kept in the private slot `_k`, which no field
    list, repr or report shows."""

    __slots__ = ("_k",)

    def _key(self):
        try:
            return self._k
        except AttributeError:
            key = tuple(getattr(self, name) for name in self.__slots__)
            object.__setattr__(self, "_k", key)
            return key

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GridSpec(_Value):
    """Evaluation grid on [t_min, t_max]."""

    __slots__ = ("t_min", "t_max", "n_points", "spacing")

    def __init__(self, t_min: float, t_max: float, n_points: int = 400,
                 spacing: str = "logarithmic"):
        if not (t_min < t_max):
            raise ValidationFailed("t_min must be < t_max")
        if not (math.isfinite(t_min) and math.isfinite(t_max)):
            raise ValidationFailed("t_min and t_max must be finite")
        if n_points < 2:
            raise ValidationFailed("n_points must be >= 2")
        if not isinstance(n_points, (int, np.integer)):
            raise ValidationFailed("n_points must be an integer")
        if spacing not in ("linear", "logarithmic"):
            raise ValidationFailed(f"unknown spacing {spacing!r}")
        if spacing == "logarithmic" and t_min <= 0:
            raise ValidationFailed("logarithmic spacing needs t_min > 0")
        for name, value in zip(self.__slots__, (t_min, t_max, n_points, spacing)):
            object.__setattr__(self, name, value)

    @functools.lru_cache(maxsize=32)
    def points(self) -> np.ndarray:
        """The grid's points, computed once per process and read-only."""
        space = np.linspace if self.spacing == "linear" else np.geomspace
        pts = space(self.t_min, self.t_max, self.n_points)
        pts.flags.writeable = False
        return pts

    @functools.lru_cache(maxsize=32)
    def decade_starts(self) -> np.ndarray:
        """`decade_starts` of the grid's points: the one decade partition
        every trend rule reads, found once per process and read-only."""
        starts = decade_starts(self.points())
        starts.flags.writeable = False
        return starts

    def require_decades(self, n: int) -> np.ndarray:
        """The grid's decade starts; HorizonTooSmall if it holds fewer than
        n decades."""
        return require_decades(self.decade_starts(), n)

    describe = report_dict


# the grid the condition checks and the scalar relations sample by default
DEFAULT_GRID = GridSpec(1e-2, 1e6, 600)

# the constants C = 1, 2, 4, ..., 2^40 the bounded-gap, om6 and kappa
# equivalence searches try
_C_GRID = 2.0 ** np.arange(41)


def decade_starts(tg):
    """Start offsets of the nonempty decades (hi/10, hi] of the sorted
    points tg, early decades first; hi runs down from tg[-1] while hi > 10
    tg[0] (while hi > 0 when tg[0] <= 0).  The points up to the first
    decade lie in none."""
    floor = max(tg[0], 0.0) * 10
    his = [tg[-1]]
    while his[-1] > floor:
        his.append(his[-1] / 10)
    cuts = np.searchsorted(tg, his, side="right")[::-1]
    starts, ends = cuts[:-1], cuts[1:]
    return starts[starts < ends]


def require_decades(starts, n):
    """`starts`, a decade partition from `decade_starts`; HorizonTooSmall if
    it holds fewer than n decades."""
    if len(starts) < n:
        raise HorizonTooSmall(f"trend needs a grid of at least {n} decades (hi/10, hi] "
                              f"counted down from its last point, not {len(starts)}")
    return starts


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


class WeightFunction:
    """Base class.  Subclasses implement _eval (t-domain) or _phi (u-domain)."""

    nondecreasing: bool = True
    normalized: bool = False
    # phi as a PiecewiseLogLinear when phi is piecewise linear in u = log t,
    # else None; the exact paths of kappa, the conjugate, om4 and the
    # unboundedness rule read it
    profile = None
    # the growth order: (a, b) when w is equivalent to t^a (log t)^b at
    # infinity, "exp" for exponential type, else None; the asymptotic
    # conditions are read from it
    germ = None

    # -- evaluation ---------------------------------------------------------
    def _eval(self, t: np.ndarray) -> np.ndarray:
        return self._phi_unchecked(np.log(np.maximum(t, 1e-300)))

    def _phi_unchecked(self, u: np.ndarray) -> np.ndarray:
        """phi values; may contain inf on overflow (callers decide).  Past
        u = 709, where e^u leaves the double range, raises HorizonTooSmall."""
        if np.any(np.asarray(u) > 709.0):
            raise HorizonTooSmall("phi(u) past u = 709 needs w beyond the double range")
        with np.errstate(over="ignore"):
            return self._eval(np.exp(u))

    def evaluate(self, t):
        arr, scalar = _as_array(t)
        # fmin skips NaN, so a NaN beside a negative argument still raises
        if arr.size and np.fmin.reduce(arr, axis=None) < 0:
            raise ValueError("weight argument must be >= 0")
        try:
            out = np.asarray(self._eval(arr))
        except HorizonTooSmall:
            self._own_horizon(np.log(arr[arr > 0]))
            raise
        if out.size:
            lo, hi = out.min(), out.max()
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise NonFinite("non-finite weight value encountered")
            if lo < 0:
                raise NonFinite("negative weight value; representation invalid")
        return float(out.reshape(-1)[0]) if scalar else out.reshape(arr.shape)

    def phi(self, u):
        arr, scalar = _as_array(u)
        try:
            out = np.asarray(self._phi_unchecked(arr))
        except HorizonTooSmall:
            self._own_horizon(arr)
            raise
        if not np.all(np.isfinite(out)):
            raise NonFinite("non-finite phi value encountered")
        return float(out.reshape(-1)[0]) if scalar else out.reshape(arr.shape)

    __call__ = evaluate

    def _own_horizon(self, u):
        """Raise a sequence's horizon error at this weight's own corners.

        A wrapper evaluates its base at the base's argument, so the base's
        error names the base's u and last corner; this weight's profile
        names the u that was asked for and the corner it sees."""
        if self.profile is not None:
            self.profile._check_end(u)

    # -- plumbing -----------------------------------------------------------
    def to_json_dict(self) -> dict:
        """The weight document `load_weight` reads back (see _FAMILY_TABLE)."""
        if type(self) not in _FAMILY_NAME:
            raise NotImplementedError(f"{type(self).__name__} has no weight document")
        family = _FAMILY_NAME[type(self)]
        names = _FAMILY_TABLE[family][1]
        doc = {"family": family, "params": {n: getattr(self, n) for n in names if n != "base"}}
        return {**doc, "base": self.base.to_json_dict()} if "base" in names else doc

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json_dict()})"


class Power(WeightFunction, _Value):
    """w(t) = t**alpha."""

    __slots__ = ("alpha",)
    germ = property(lambda self: (self.alpha, 0))

    def __init__(self, alpha: float):
        if not alpha > 0:
            raise ValidationFailed("alpha must be > 0")
        if not math.isfinite(alpha):
            raise ValidationFailed("alpha must be finite")
        object.__setattr__(self, "alpha", alpha)

    def _eval(self, t):
        with np.errstate(over="ignore"):
            return t ** self.alpha

    def _phi_unchecked(self, u):
        with np.errstate(over="ignore"):
            return np.exp(self.alpha * u)


class Gevrey(Power):
    """w(t) = t**(1/s); a Power weight indexed the other way around."""

    def __init__(self, s: float):
        if not s > 0:
            raise ValidationFailed("s must be > 0")
        object.__setattr__(self, "s", s)
        super().__init__(alpha=1.0 / s)


class Log(WeightFunction, _Value):
    """w(t) = log(1 + t)."""

    __slots__ = ()
    germ = (0, 1)

    def _eval(self, t):
        return np.log1p(t)

    def _phi_unchecked(self, u):
        # log(1 + e^u) without overflow
        return np.logaddexp(0.0, u)


class LogPower(WeightFunction, _Value):
    """w(t) = log(1 + t)**beta, beta >= 1."""

    __slots__ = ("beta",)
    germ = property(lambda self: (0, self.beta))

    def __init__(self, beta: float):
        if not beta >= 1:
            raise ValidationFailed("beta must be >= 1")
        if not math.isfinite(beta):
            raise ValidationFailed("beta must be finite")
        object.__setattr__(self, "beta", beta)

    def _eval(self, t):
        # a 0-d t is read as an array of one: np.log1p of it is a numpy
        # scalar, whose ** rounds unlike the array power, so evaluate(t)
        # would differ from evaluate([t])[0] in the last bit
        return np.log1p(np.atleast_1d(t)) ** self.beta

    def _phi_unchecked(self, u):
        return np.logaddexp(0.0, u) ** self.beta


class Exp(WeightFunction, _Value):
    """w(t) = e^t - 1."""

    __slots__ = ()
    germ = "exp"

    def _eval(self, t):
        with np.errstate(over="ignore"):
            return np.expm1(t)


def pl_eval(x, xs, ys, final_slope, left=None):
    """Interpolate the corners (xs, ys) at the 1-d array x: `final_slope`
    extends the last value rightward, `left` (default ys[0]) holds left."""
    out = np.interp(x, xs, ys, left=left)
    right = x > xs[-1]
    out[right] = ys[-1] + final_slope * (x[right] - xs[-1])
    return out


class PiecewiseLogLinear(WeightFunction):
    """phi stored as corners (u_k, v_k), affine in between.

    The first corner is (u_0, 0) and phi = 0 left of it, so the weight is
    normalized exactly when u_0 >= 0; beyond the last corner phi continues
    with final_slope.  The public constructor reads outside input: it asks
    for u_0 = 0 and extends the final segment's slope.  A profile is its
    own `profile`, and the wrappers build theirs from their base's.
    """

    def __init__(self, corners):
        pts = np.asarray(corners, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValidationFailed("profile needs >= 2 corners of shape (u, v)")
        us, vs = pts[:, 0].copy(), pts[:, 1].copy()
        if us[0] != 0.0 or vs[0] != 0.0:
            raise ValidationFailed("profile must start at corner (0, 0)")
        if np.any(np.diff(us) <= 0):
            raise ValidationFailed("corner abscissas must be strictly increasing")
        if np.any(vs < 0):
            raise ValidationFailed("corner values must be >= 0")
        slopes = np.diff(vs) / np.diff(us)
        self._init(us, vs, slopes, slopes[-1])

    def _init(self, us, vs, slopes, final_slope, end_index=None):
        """The one corner constructor.  slopes[k] is phi's slope between
        corners k and k + 1, final_slope its slope past the last corner.
        end_index, a sequence's last stored index, makes phi raise
        HorizonTooSmall past the last corner, where it needs later terms."""
        self.us, self.vs = us, vs
        self.slopes, self.final_slope = slopes, final_slope
        self.end_index = end_index
        self.normalized = bool(us[0] >= 0)
        self.nondecreasing = bool(np.all(slopes >= 0) and final_slope >= 0)
        # past its last corner a rising profile is s log t + c, s > 0; a
        # sequence's is not stored
        if end_index is None and final_slope > 0 and self.nondecreasing:
            self.germ = (0, 1)

    def _with(self, us, vs, slopes, final_slope):
        """A profile with these corners and this one's end index."""
        prof = object.__new__(PiecewiseLogLinear)
        prof._init(us, vs, slopes, final_slope, self.end_index)
        return prof

    @property
    def profile(self):
        return self

    def _check_end(self, u):
        """HorizonTooSmall at the first u past the last corner of a
        sequence's profile, where phi needs terms it does not store."""
        if self.end_index is not None and np.any(u > self.us[-1]):
            raise HorizonTooSmall(
                f"supremum not attained below index P={self.end_index} at "
                f"u={float(u[u > self.us[-1]][0]):g}, past the last corner "
                f"u={self.us[-1]:g}")

    def _phi_unchecked(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        self._check_end(u)
        return pl_eval(u, self.us, self.vs, self.final_slope, left=0.0)

    def _eval(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = self._phi_unchecked(np.log(t[pos]))
        return out

    def to_json_dict(self):
        return {"profile": [[float(u), float(v)] for u, v in zip(self.us, self.vs)]}


class WeightSequence(_Value):
    """Positive sequence M_0..M_P stored as log M_p."""

    __slots__ = ("logM",)

    def __init__(self, logM: tuple):
        if len(logM) < 2:
            raise EmptyInput("sequence needs at least two entries")
        if not all(np.isfinite(logM)):
            raise ValidationFailed("sequence entries must be positive and finite")
        object.__setattr__(self, "logM", logM)

    @property
    def P(self):
        return len(self.logM) - 1

    def roots(self):
        """(log M_p)/p for p >= 1 — the sequence whose divergence matters."""
        lm = np.asarray(self.logM)
        p = np.arange(1, len(lm))
        return (lm[1:] - lm[0]) / p


def _hull(points):
    """Monotone-chain lower hull of (x, y) points with strictly increasing x."""
    kept = []
    for p in points:
        while len(kept) >= 2:
            (x1, y1), (x2, y2) = kept[-2], kept[-1]
            # scale the differences first so the turn test survives inputs
            # near the top of the double range
            dx1, dy1 = x2 - x1, y2 - y1
            dx2, dy2 = p[0] - x1, p[1] - y1
            s = max(abs(dx1), abs(dy1), abs(dx2), abs(dy2), 1.0)
            cross = (dx1 / s) * (dy2 / s) - (dy1 / s) * (dx2 / s)
            # after scaling, both products are <= 1, so this is a relative
            # collinearity test
            if cross <= 1e-15:
                kept.pop()
            else:
                break
        kept.append(p)
    return kept


class Associated(PiecewiseLogLinear):
    """w = the function associated with a sequence M.

    phi(u) = max_p (p u - log M_p + log M_0) is convex and piecewise linear:
    with p_0 = 0 < p_1 < ... < p_m = P the vertices of the lower hull of the
    points (p, log M_p), it has slope p_k between its corners, which are the
    slopes of the hull's edges, and is 0 left of the first.  Past the last
    corner the supremum reaches p = P, so phi there depends on terms not
    stored, and it raises HorizonTooSmall.
    """

    def __init__(self, M: WeightSequence, increase_from: int = 0):
        r = M.roots()
        tail = r[max(increase_from, 1) - 1:]
        if len(tail) >= 2 and not np.all(np.diff(tail) > 0):
            raise ValidationFailed(
                "(M_p)^(1/p) must strictly increase beyond the declared index"
            )
        self.M = M
        self.increase_from = increase_from
        lm = np.asarray(M.logM) - M.logM[0]
        p, L = np.array(_hull(list(zip(range(len(lm)), lm)))).T
        us = np.diff(L) / np.diff(p)
        self._init(us, p[:-1] * us - L[:-1], p[1:-1], p[-1], end_index=M.P)

    def to_json_dict(self):
        doc = {"sequence": [float(x) for x in self.M.logM]}
        if self.increase_from:
            doc["increase_from"] = self.increase_from
        return doc


class Scaled(WeightFunction):
    """c * base(t)."""

    def __init__(self, c: float, base: WeightFunction):
        if not c > 0:
            raise ValidationFailed("scale must be > 0")
        if not math.isfinite(c):
            raise ValidationFailed("scale must be finite")
        self.c = c
        self.base = base
        self.nondecreasing = base.nondecreasing
        self.normalized = base.normalized
        self.germ = base.germ
        prof = base.profile
        if prof is not None:
            self.profile = prof._with(prof.us, c * prof.vs, c * prof.slopes,
                                      c * prof.final_slope)

    def _eval(self, t):
        out = self.base._eval(t)
        with np.errstate(over="ignore"):
            return self.c * out

    def _phi_unchecked(self, u):
        out = self.base._phi_unchecked(u)
        with np.errstate(over="ignore"):
            return self.c * out


class Dilated(WeightFunction):
    """base(c * t)."""

    def __init__(self, c: float, base: WeightFunction):
        if not c > 0:
            raise ValidationFailed("dilation must be > 0")
        if not math.isfinite(c):
            raise ValidationFailed("dilation must be finite")
        self.c = c
        self.base = base
        self.nondecreasing = base.nondecreasing
        self.germ = base.germ
        # dilation with c > 1 destroys flatness on [0,1], c <= 1 keeps it;
        # a profile says exactly, by where its first corner moves
        self.normalized = base.normalized and c <= 1
        prof = base.profile
        if prof is not None:
            self.profile = prof._with(prof.us - math.log(c), prof.vs, prof.slopes,
                                      prof.final_slope)
            self.normalized = self.profile.normalized

    def _eval(self, t):
        # a product past the double range is inf, without a warning;
        # evaluate raises NonFinite where base(inf) is infinite
        with np.errstate(over="ignore"):
            dilated = self.c * t
        return self.base._eval(dilated)

    def _phi_unchecked(self, u):
        return self.base._phi_unchecked(u + math.log(self.c))


class Normalized(WeightFunction):
    """max(0, base(t) - base(1)) for t > 1, zero on [0, 1]."""

    normalized = True

    def __init__(self, base: WeightFunction):
        if not base.nondecreasing:
            raise NotMonotone("normalize requires a nondecreasing weight")
        self.base = base
        self.germ = base.germ
        self.shift = float(base.evaluate(1.0))
        prof = base.profile
        if prof is not None:
            # a corner at u = 0, then the base's corners right of it, shifted
            # down; the slope from 0 is that of the base's piece around 0
            k = int(np.searchsorted(prof.us, 0.0, side="right"))
            slopes = np.concatenate([[0.0], prof.slopes, [prof.final_slope]])
            self.profile = prof._with(
                np.concatenate([[0.0], prof.us[k:]]),
                np.concatenate([[0.0], np.maximum(prof.vs[k:] - self.shift, 0.0)]),
                slopes[k:len(prof.us)], prof.final_slope)

    def _eval(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.maximum(self.base._eval(t) - self.shift, 0.0)
        out[t <= 1.0] = 0.0
        return out

    def _phi_unchecked(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.maximum(self.base._phi_unchecked(u) - self.shift, 0.0)
        out[u <= 0.0] = 0.0
        return out


# ---------------------------------------------------------------------------
# block reads: the rows of a scan with one evaluation
# ---------------------------------------------------------------------------

# doubles in one block temporary of a scan: at most 120 KB, under glibc's
# default 128 KiB mmap threshold, so every scan reuses heap memory, whatever
# the allocator's state, instead of faulting in freshly mapped pages
_BLOCK = 15_000


class Rows:
    """The rows of a scan on one array of arguments, each read at most
    once, in blocks by `read(keys, args)`: the rows of the keys stacked
    (`WeightMatrix._rows`, or the dilations of a weight).  A block read is
    kept whole, so asking for the same keys again copies nothing.  A block
    that cannot be read is read again row by row, in order, up to the
    first row that cannot be read, whose error is kept: that row is not
    read again, nor is a block that holds it."""

    def __init__(self, read, args):
        self.read, self.args = read, args
        self.rows, self.blocks, self.errors = {}, {}, {}

    def block(self, keys):
        """(rows, error): the rows of `keys` stacked, and None; or, if one
        cannot be read, the rows before the first such row and its error."""
        key = tuple(keys)
        if not key:
            raise EmptyInput("no matrix indices to read")
        if key in self.blocks:
            return self.blocks[key], None
        if not self.errors.keys().isdisjoint(key):
            return self._prefix(key)
        missing = [k for k in dict.fromkeys(key) if k not in self.rows]
        if missing:
            try:
                block = self.read(missing, self.args)
            except WeightlabError:
                return self._prefix(key)
            self.blocks[tuple(missing)] = block
            self.rows.update(zip(missing, block))
            if len(missing) == len(key):
                return block, None
        # np.array gathers rows several times faster than np.stack
        return np.array([self.rows[k] for k in key]), None

    def _prefix(self, key):
        """(rows, error) of `key`, its rows read one at a time."""
        got = []
        for k in key:
            if k not in self.rows and k not in self.errors:
                try:
                    self.rows[k] = self.read([k], self.args)[0]
                except WeightlabError as exc:
                    self.errors[k] = exc
            if k in self.errors:
                return np.reshape(got, (len(got), np.shape(self.args)[-1])), self.errors[k]
            got.append(self.rows[k])
        return np.array(got), None

    def all(self, keys):
        """The rows of `keys` stacked; raises the error of the first that
        cannot be read."""
        rows, err = self.block(keys)
        if err is not None:
            raise err
        return rows

    def doubling(self, keys, size=1):
        """(chunk, rows) for the keys in chunks of `size`, 2 `size`, 4
        `size`, ... keys.  Of a chunk with a row that cannot be read, the
        keys and rows before that row are yielded, then its error is
        raised, so only a row the caller goes on to reach raises."""
        i = 0
        while i < len(keys):
            rows, err = self.block(keys[i:i + size])
            if len(rows):
                yield keys[i:i + len(rows)], rows
            if err is not None:
                raise err
            i, size = i + size, 2 * size


def dilations(w: WeightFunction, args):
    """The reader of the rows w(c * args) for the scales c; row c is bit for
    bit w.evaluate(c * args)."""
    def read(scales, a):
        # a product past the double range is inf, without a warning;
        # evaluate raises NonFinite where w(inf) is infinite
        with np.errstate(over="ignore"):
            dilated = np.multiply.outer(scales, a)
        return w.evaluate(dilated)
    return Rows(read, args)


# ---------------------------------------------------------------------------
# JSON loading / dumping
# ---------------------------------------------------------------------------

# family name -> (class, its constructor's parameters in order).  Each
# parameter is a finite number under the document's "params", except
# "base": the wrapped weight's own document, beside "params"
_FAMILY_TABLE = {
    "power": (Power, ("alpha",)),
    "gevrey": (Gevrey, ("s",)),
    "log": (Log, ()),
    "logpower": (LogPower, ("beta",)),
    "exp": (Exp, ()),
    "scaled": (Scaled, ("c", "base")),
    "dilated": (Dilated, ("c", "base")),
    "normalized": (Normalized, ("base",)),
}
_FAMILY_NAME = {cls: name for name, (cls, _) in _FAMILY_TABLE.items()}


def _numbers(xs):
    """True when xs is a list of finite numbers."""
    # a bool is no number here, and an int too large for a float not finite
    return isinstance(xs, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool)
        and abs(x) <= sys.float_info.max for x in xs)


def load_weight(source) -> WeightFunction:
    """Build a weight from a JSON document (dict, JSON string, or file path);
    a malformed document raises ValidationFailed."""
    if isinstance(source, str):
        if source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
    else:
        doc = source
    return _from_document(doc)


def _from_document(doc) -> WeightFunction:
    if not isinstance(doc, dict):
        raise ValidationFailed(f"a weight document is a JSON object, not {doc!r}")
    if "profile" in doc:
        corners = doc["profile"]
        if not (isinstance(corners, list) and all(_numbers(c) and len(c) == 2 for c in corners)):
            raise ValidationFailed("a profile is a list of [u, v] pairs of finite numbers")
        return PiecewiseLogLinear(corners)
    if "sequence" in doc:
        entries, start = doc["sequence"], doc.get("increase_from", 0)
        if not _numbers(entries) or type(start) is not int or start < 0:
            raise ValidationFailed("a sequence is a list of finite numbers, and "
                                   "its increase_from an index >= 0")
        return Associated(WeightSequence(tuple(map(float, entries))), increase_from=start)
    family, params = doc.get("family"), doc.get("params", {})
    if not (isinstance(family, str) and family in _FAMILY_TABLE and isinstance(params, dict)):
        raise ValidationFailed(f"unknown weight document: {doc!r}")
    cls, names = _FAMILY_TABLE[family]
    for name in names:
        if name not in (doc if name == "base" else params):
            raise ValidationFailed(f"{family!r} weight document lacks {name!r}")
        if name != "base" and not _numbers([params[name]]):
            raise ValidationFailed(f"{family!r} weight parameter {name!r} must be a "
                                   f"finite number, not {params[name]!r}")
    return cls(*(_from_document(doc["base"]) if n == "base" else params[n] for n in names))


def dump_weight(w: WeightFunction) -> dict:
    return w.to_json_dict()
