"""Outcome rules, verdict scoring and latency statistics.

Every op ends in one of four outcomes:

answer    the op returned a result (CLI: exit 0, 2 or 3 with a
          ``schema_version: 1`` JSON document on stdout)
typed     a valid input ended in a ``WeightlabError`` (CLI: exit 1 with a
          one-line ``error:`` message and no traceback)
rejected  a deliberately malformed input ended in a typed one-line error,
          which is what it should do
failed    anything else: an uncaught exception or traceback, an exit code
          outside 0-3, stdout that is not the JSON document, the op time
          limit, or a malformed input that was accepted or crashed
"""

from __future__ import annotations

import json
import math

from . import answer_key

ANSWER, TYPED, REJECTED, FAILED = "answer", "typed", "rejected", "failed"


def classify_cli(returncode, stdout: str, stderr: str, timed_out: bool,
                 malformed: bool) -> str:
    if timed_out or "Traceback" in stderr:
        return FAILED
    if returncode == 1:
        one_line = stderr.strip() != "" and "\n" not in stderr.strip()
        if malformed:
            return REJECTED if one_line else FAILED
        return TYPED
    if malformed or returncode not in (0, 2, 3):
        return FAILED
    return ANSWER if cli_document(stdout) is not None else FAILED


def cli_document(stdout: str):
    """The parsed report, or None when stdout is not a schema-1 document."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        return None
    return doc


def classify_lib(error: BaseException | None, typed: bool, malformed: bool) -> str:
    """``typed`` says whether ``error`` is a WeightlabError."""
    if error is None:
        return FAILED if malformed else ANSWER
    if typed:
        return REJECTED if malformed else TYPED
    return FAILED


# ---------------------------------------------------------------------------
# which verdicts each op is scored on
# ---------------------------------------------------------------------------

def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _weight(ref: str, weights):
    """The weight document an ``@key`` CLI argument names."""
    return weights[ref[1:]]


def scored_items(op: dict, weights: dict) -> dict:
    """label -> true/false for every verdict of ``op`` the key can score."""
    if op.get("malformed"):
        return {}
    items = {}
    call = op["call"]
    if call == "cli":
        argv = op["argv"]
        cmd = argv[0]
        if cmd in ("analyze", "classify", "report"):
            doc = _weight(_flag(argv, "--weight"), weights)
            conds = _flag(argv, "--conditions")
            conds = answer_key.SCORED_CONDITIONS if conds is None \
                else conds.split(",")
            for c in conds:
                items[c] = answer_key.condition_truth(doc, c)
        elif cmd == "compare":
            s = _weight(_flag(argv, "--sigma"), weights)
            t = _weight(_flag(argv, "--tau"), weights)
            for r in _flag(argv, "--rel", "preceq").split(","):
                items[r] = answer_key.relation_truth(s, t, r)
    elif call == "classify":
        doc = weights[op["w"]]
        for c in answer_key.SCORED_CONDITIONS:
            items[c] = answer_key.condition_truth(doc, c)
    elif call == "check_condition":
        items[op["cond"]] = answer_key.condition_truth(weights[op["w"]], op["cond"])
    elif call == "compare":
        items[op["rel"]] = answer_key.relation_truth(
            weights[op["sigma"]], weights[op["tau"]], op["rel"])
    return {k: v for k, v in items.items() if v is not None}


def cli_statuses(argv, doc) -> dict:
    """label -> status string from a CLI report, for the scored commands."""
    res = doc.get("results", {})
    cmd = argv[0]
    if cmd == "analyze":
        conds = res.get("conditions", {})
    elif cmd in ("classify", "report"):
        conds = res.get("classification", {}).get("conditions", {})
    elif cmd == "compare":
        return {r: v.get("verdict", {}).get("status")
                for r, v in res.get("compare", {}).items()}
    else:
        return {}
    return {c: v.get("status") for c, v in conds.items()}


def count_wrong(items: dict, statuses: dict) -> int:
    """A definitive verdict that contradicts the key; inconclusive is never wrong."""
    wrong = 0
    for label, truth in items.items():
        status = statuses.get(label)
        if (status == "holds" and not truth) or (status == "fails" and truth):
            wrong += 1
    return wrong


# ---------------------------------------------------------------------------
# latency statistics
# ---------------------------------------------------------------------------

TAIL_MIN = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of all
    samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs) - 1e-9))   # 0.9 * 100 is not exact
    return xs[rank - 1]


def tail_beyond(samples, q: float) -> int:
    """How many samples lie strictly beyond the q-percentile."""
    p = percentile(samples, q)
    return sum(1 for x in samples if x > p)


def p90_rule_met(samples) -> bool:
    """The p90 is trustworthy only with at least ten samples beyond it."""
    return tail_beyond(samples, 0.9) >= TAIL_MIN
