"""Command-line front end.

Subcommands: analyze, classify, conjugate, matrix, index, kappa, compare,
matrix-compare, lp-experiment, counterexample, report.  Every command
writes a deterministic JSON document (sorted keys, no timestamps) with a
schema_version field; conjugate and counterexample also write their curves as
CSV tables with --emit csv.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import core
from .core import np
from .errors import HorizonTooSmall, JHorizonTooSmall, NonFinite, ValidationFailed, WeightlabError
from .verdict import inconclusive, to_json

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _statuses(obj, acc):
    if isinstance(obj, dict):
        if "status" in obj and obj.get("status") in ("holds", "fails",
                                                     "inconclusive"):
            acc.append(obj["status"])
        for v in obj.values():
            _statuses(v, acc)
    elif isinstance(obj, list):
        for v in obj:
            _statuses(v, acc)
    return acc


def _write_report(report, args):
    doc = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def emit_plot_data(report, out_dir="."):
    """One CSV per sampled curve in the report; returns written paths."""
    import csv
    paths = []
    curves = report.get("curves", {})
    for name in sorted(curves):
        curve = curves[name]
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "value"])
            for t, v in zip(curve["t"], curve["value"]):
                wr.writerow([repr(float(t)), repr(float(v))])
        paths.append(path)
    return paths


def _load_weight(path):
    with open(path) as fh:
        return core.load_weight(json.load(fh))


def _grid_from(args):
    if args.horizon is not None:
        return core.GridSpec(1e-2, args.horizon, 600)
    return core.DEFAULT_GRID


_CERTIFICATES = ("verify", "nonconvexity", "slowvar", "nonequivalence", "om4")

_MATRIX_KINDS = {"exp": "exponential", "exponential": "exponential",
                 "dil": "dilatation", "dilatation": "dilatation"}


def _matrix_from(kind, w):
    from .relations import WeightMatrix
    return getattr(WeightMatrix, _MATRIX_KINDS[kind])(w)


def _keys(values, flag):
    """The report keys of `values`, refusing two values that print alike."""
    keys = [f"{v:g}" for v in values]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValidationFailed(f"two {flag} values share the report key {key!r}")
    return keys


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_analyze(args):
    from . import conditions
    w = _load_weight(args.weight)
    grid = _grid_from(args)
    conds = (conditions.CONDITION_IDS if args.conditions in (None, "all")
             else tuple(args.conditions.split(",")))
    return {"conditions": {c: conditions.check_condition(w, c, grid)
                           for c in conds},
            "weight": w.to_json_dict()}


def _cmd_classify(args):
    from . import conditions
    w = _load_weight(args.weight)
    return {"classification": conditions.classify(w, _grid_from(args)),
            "weight": w.to_json_dict()}


def _cmd_conjugate(args):
    from . import conjugate
    w = _load_weight(args.weight)
    prof = conjugate.young_conjugate(w, args.xmax)
    xs = np.linspace(0.0, min(args.xmax, prof.slope_cap), 201)
    vals = np.atleast_1d(prof.value(xs))
    report = {"conjugate": prof.to_dict(),
              "curves": {"conjugate": {"t": list(xs), "value": list(vals)}},
              "weight": w.to_json_dict()}
    return report


def _cmd_matrix(args):
    from . import conjugate
    w = _load_weight(args.weight)
    table = {}
    for key, ell in zip(_keys(args.ell, "--ell"), args.ell):
        logW = conjugate.associated_weight_matrix(w, ell, args.jmax)
        table[key] = list(np.asarray(logW))
    return {"log_matrix": table, "j_max": args.jmax,
            "weight": w.to_json_dict()}


def _cmd_index(args):
    from . import growth
    w = _load_weight(args.weight)
    T = args.horizon if args.horizon is not None else 1e8
    est = growth.growth_index(w, gamma_grid=args.gammas, T=T)
    return {"growth_index": est, "weight": w.to_json_dict()}


def _cmd_kappa(args):
    from . import growth
    w = _load_weight(args.weight)
    T = args.horizon if args.horizon is not None else 1e6
    vals = dict(zip(_keys(args.y, "--y"), growth.kappa(w, args.y, T)))
    return {"kappa": vals,
            "equivalence": growth.kappa_equivalence_check(w, T=T),
            "weight": w.to_json_dict()}


def _cmd_compare(args):
    from . import relations
    sigma = _load_weight(args.sigma)
    tau = _load_weight(args.tau)
    grid = _grid_from(args)
    out = {r: relations.compare(sigma, tau, r, grid) for r in args.rel}
    return {"compare": out, "sigma": sigma.to_json_dict(),
            "tau": tau.to_json_dict()}


def _cmd_matrix_compare(args):
    from . import relations
    S = _matrix_from(args.s_type, _load_weight(args.s_weight))
    T = _matrix_from(args.t_type, _load_weight(args.t_weight))
    return {"matrix_compare": {r: relations.matrix_relation(S, T, r)
                               for r in args.rel}}


def _cmd_lp_experiment(args):
    from . import lpspace
    S = _matrix_from(args.s_type, _load_weight(args.s))
    T = _matrix_from(args.t_type, _load_weight(args.t))
    rep = lpspace.inclusion_experiment(S, T, args.p, kind=args.type)
    return {"lp_experiment": rep}


def _cmd_counterexample(args):
    from . import conditions, counterexample
    J, t1 = args.J, args.t1
    delta = counterexample.default_delta(J)
    if args.delta != "default":
        delta = counterexample.power_delta(delta, float(args.delta.partition(":")[2]))
    prof = counterexample.construct(delta, t1, J)

    todo = _CERTIFICATES if "all" in args.certify else args.certify
    results = {"parameters": {"J": J, "t1": t1, "delta": args.delta,
                              "A_max": args.A_max}}
    if "verify" in todo:
        bundle = counterexample.verify_profile(prof)
        results["invariants"] = {"all_ok": bundle.all_ok,
                                 "failures": bundle.failures(),
                                 "checked": len(bundle.items)}
    if "nonconvexity" in todo:
        try:
            results["nonconvexity"] = {
                "certified": counterexample.nonconvexity_certificate(
                    prof, args.A_max),
                "complete": True}
        except JHorizonTooSmall as exc:
            results["nonconvexity"] = {
                "certified": exc.certified, "complete": False,
                "first_unreachable_A": exc.A,
                "required_block_estimate": exc.required_j}
    if "slowvar" in todo:
        results["slow_variation"] = counterexample.slow_variation_certificate(
            prof, (0.5, 1.0, 2.0, 5.0))
    if "nonequivalence" in todo:
        results["nonequivalence"] = {
            "vs_sqrt_delta": counterexample.nonequivalence(
                delta, counterexample.power_delta(delta, 0.5), J, t1),
            "vs_itself": counterexample.nonequivalence(delta, delta, J, t1)}
    if "om4" in todo:
        results["om4"] = conditions.check_condition(prof.weight, "om4")
    us = np.asarray(prof.weight.us)
    vs = np.asarray(prof.weight.vs)
    keep = us < 1e6
    results["curves"] = {"profile": {"t": list(us[keep]), "value": list(vs[keep])}}
    return results


def _cmd_report(args):
    from . import conditions, growth
    w = _load_weight(args.weight)
    grid = _grid_from(args)
    out = {"classification": conditions.classify(w, grid), "weight": w.to_json_dict()}
    for key, part, T in (("growth_index", growth.growth_index, min(grid.t_max, 1e8)),
                         ("kappa_equivalence", growth.kappa_equivalence_check, grid.t_max)):
        # a horizon problem leaves its own entry undecided, as in check_condition
        try:
            out[key] = part(w, T=T)
        except (HorizonTooSmall, NonFinite) as exc:
            out[key] = inconclusive(horizon=grid.describe(), notes=f"{type(exc).__name__}: {exc}")
    return out


_COMMANDS = {
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "conjugate": _cmd_conjugate,
    "matrix": _cmd_matrix,
    "index": _cmd_index,
    "kappa": _cmd_kappa,
    "compare": _cmd_compare,
    "matrix-compare": _cmd_matrix_compare,
    "lp-experiment": _cmd_lp_experiment,
    "counterexample": _cmd_counterexample,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Bad flags and values end like any other bad input, in one `error:`
    line and exit code 1; argparse's own exit code 2 is --expect's."""

    def error(self, message):
        raise ValidationFailed(message)


def _arg_type(parse, expected):
    """An argparse type that names what it expected when `parse` fails."""
    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}") from None
    return convert


def _names(choices):
    def parse(text):
        names = tuple(text.split(","))
        if not set(names) <= set(choices):
            raise ValueError(text)
        return names
    return _arg_type(parse, "comma-separated names from " + ", ".join(choices))


def _relation_names(ids):
    """_names over the id tuple `ids` of `relations`, read only when the
    type runs, so building the parser loads no relations."""
    def convert(text):
        from . import relations
        return _names(getattr(relations, ids))(text)
    return convert


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _delta_spec(text):
    if text != "default":
        kind, _, exponent = text.partition(":")
        if kind != "power":
            raise ValueError(text)
        _finite(exponent)
    return text


_FLOAT = _arg_type(_finite, "a finite number")
_NUMBERS = _arg_type(lambda text: tuple(_finite(v) for v in text.split(",")),
                     "comma-separated finite numbers")
_EXPONENT = _arg_type(lambda text: math.inf if text == "oo" else float(text),
                      "a number, inf or oo")
_DELTA = _arg_type(_delta_spec, "default or power:<exponent>")


def _add_arguments(p, command):
    """Add the arguments of `command` to its subparser p: its own, then the
    flags every subcommand takes, --horizon where the command reads it and
    --emit/--plot-dir where it has curves."""
    horizon = command in ("analyze", "classify", "index", "kappa", "compare", "report")
    if command in ("analyze", "classify", "conjugate", "matrix", "index", "kappa", "report"):
        p.add_argument("--weight", required=True)
    if command == "analyze":
        p.add_argument("--conditions", default=None,
                       help="comma-separated condition ids (default: all)")
    elif command == "conjugate":
        p.add_argument("--xmax", type=_FLOAT, default="1e4")
    elif command == "matrix":
        p.add_argument("--ell", type=_NUMBERS, default="0.5,1,2")
        p.add_argument("--jmax", type=int, default="100")
    elif command == "index":
        p.add_argument("--gammas", type=_NUMBERS, default=None,
                       help="comma-separated gamma grid to test (default: built-in)")
    elif command == "kappa":
        p.add_argument("--y", type=_NUMBERS, default="1,4,100")
    elif command == "compare":
        p.add_argument("--sigma", required=True)
        p.add_argument("--tau", required=True)
        p.add_argument("--rel", type=_relation_names("RELATIONS"), default="preceq")
    elif command == "matrix-compare":
        p.add_argument("--s-type", choices=_MATRIX_KINDS, default="exp")
        p.add_argument("--s-weight", required=True)
        p.add_argument("--t-type", choices=_MATRIX_KINDS, default="exp")
        p.add_argument("--t-weight", required=True)
        p.add_argument("--rel", type=_relation_names("MATRIX_RELATIONS"), default="beurling")
    elif command == "lp-experiment":
        p.add_argument("--s", required=True)
        p.add_argument("--t", required=True)
        p.add_argument("--s-type", choices=_MATRIX_KINDS, default="exp")
        p.add_argument("--t-type", choices=_MATRIX_KINDS, default="exp")
        p.add_argument("--p", type=_EXPONENT, default="2")
        p.add_argument("--type", default="beurling", choices=["beurling", "roumieu"])
    elif command == "counterexample":
        p.add_argument("--J", type=int, default="60")
        p.add_argument("--t1", type=_FLOAT, default="0.5")
        p.add_argument("--delta", type=_DELTA, default="default")
        p.add_argument("--certify", type=_names(("all",) + _CERTIFICATES), default="all")
        # the largest ladder rung a J=60 profile can witness; larger rungs need
        # proportionally more blocks than doubles can represent
        p.add_argument("--A-max", dest="A_max", type=_FLOAT, default="64")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--config", default=None, help="JSON file with defaults")
    p.add_argument("--expect", choices=["holds"], default=None)
    p.add_argument("--strict", action="store_true")
    if horizon:
        p.add_argument("--horizon", type=_FLOAT, default=None)
    if command in ("conjugate", "counterexample"):
        p.add_argument("--emit", type=_names(("json", "csv")), default="json",
                       help="json and/or csv")
        p.add_argument("--plot-dir", default=".")


def _build_parser(argv, defaults=None):
    """The argument parser for the command line argv; `defaults` replace
    the subcommand's own.

    The first token of argv that does not start with "-" names the
    subcommand, and only that one gets its arguments.  When it is not
    argv's first token (help, a missing or unknown subcommand, or an option
    before it), every subcommand name is registered as well, so that the
    help and the errors list them all.
    """
    ap = _Parser(prog="weightlab", description="weight-function calculus toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    command = next((a for a in argv if not a.startswith("-")), None)
    names = [command] if command in _COMMANDS and argv[0] == command else _COMMANDS
    for name in names:
        p = sub.add_parser(name)
        if name == command:
            _add_arguments(p, name)
            if defaults:
                p.set_defaults(**defaults)
    return ap


def _parse(argv):
    """Parse argv; a --config file fills every flag the command line omits.

    A config value is parsed as if given on the command line: a string as
    it is, a boolean sets a switch such as --strict, and any other value
    is read as its JSON text.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    if not args.config:
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationFailed("a config file holds one JSON object")
    flags = vars(args).keys() - {"command"}
    defaults = {key.replace("-", "_"): value if isinstance(value, (str, bool))
                else json.dumps(value) for key, value in cfg.items()}
    defaults = {key: value for key, value in defaults.items() if key in flags}
    return _build_parser(argv, defaults).parse_args(argv)


def run(argv=None) -> int:
    try:
        args = _parse(argv)
        result = _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (WeightlabError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    report = {"schema_version": SCHEMA_VERSION,
              "command": args.command,
              "results": to_json(result)}
    _write_report(report, args)
    if "csv" in getattr(args, "emit", ()):
        emit_plot_data(report["results"], args.plot_dir)

    statuses = _statuses(report["results"], [])
    if args.expect == "holds" and "fails" in statuses:
        return 2
    if args.strict and "inconclusive" in statuses:
        return 3
    return 0


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
