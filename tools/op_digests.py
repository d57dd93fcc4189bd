"""One sha256 per op of a workload, to show which results a change alters.

    python3 tools/op_digests.py --workload lib-numeric --seed 11 > change.txt
    python3 tools/op_digests.py --workload lib-numeric --seed 11 \\
        --src /path/to/parent/src > parent.txt
    diff parent.txt change.txt

``--seed`` also takes a comma-separated list (``--seed 11,12,13``); each
line then starts with its seed, and one seed prints as above.

``--vs DIR`` digests the ``weightlab`` package in DIR too, in a second
process, and prints only the lines of the ops whose digests differ, each
as ``[<seed>] <op id> <call> <digest> <DIR's digest>``, then one line
``<n> of <m> ops changed``; a byte-identity check of two revisions is then
one command, which prints ``0 of <m> ops changed``:

    python3 tools/op_digests.py --workload lib-numeric --seed 11,7,1001 \\
        --vs /path/to/parent/src

The ops are those ``wlbench/run.py`` runs for the workload and seed
(``wlbench.workloads.generate``), made once each, in order, in this
process through ``wlbench.libops.call``.  Each output line reads
``<op id> <call> <sha256>``: the digest of the result's JSON (sorted keys),
or of the error's type name and message when the call raises.  ``--src``
names the directory whose ``weightlab`` package is imported, this
checkout's ``src`` by default, so one copy of the tool and of ``wlbench``
can digest two revisions of the library.

On ``cli-cold`` each op runs ``cli.run`` in this process
(``wlbench.libops.run_cli_in_process``), on weight files that
``wlbench.worker.write_weight_files`` writes into a temporary directory;
the line names the subcommand, and the digest is that of the exit code
and the stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result_json(result):
    """The result's JSON text: a weight's document, or the report's JSON."""
    from weightlab.verdict import to_json
    doc = result.to_json_dict() if hasattr(result, "to_json_dict") else to_json(result)
    return json.dumps(doc, sort_keys=True)


def cli_digests(spec):
    """(op id, subcommand, sha256 of the exit code and stdout) per CLI op."""
    from wlbench import libops, worker
    with tempfile.TemporaryDirectory() as tmp:
        files = worker.write_weight_files(spec, Path(tmp))
        for op in spec["ops"]:
            code, out, _ = libops.run_cli_in_process(worker.resolve_argv(op["argv"], files))
            text = f"{code}\n{out}"
            yield op["id"], op["argv"][0], hashlib.sha256(text.encode()).hexdigest()


def digests(workload: str, seed: int):
    """(op id, call, sha256) for every op of the workload, in run order."""
    from wlbench import libops, workloads
    spec = workloads.generate(workload, seed)
    if workload == "cli-cold":
        yield from cli_digests(spec)
        return
    inputs = libops.Inputs(spec)
    for op in spec["ops"]:
        try:
            text = result_json(libops.call(op, inputs)[0])
        except Exception as exc:  # the error is the op's outcome
            text = f"{type(exc).__name__}: {exc}"
        yield op["id"], op["call"], hashlib.sha256(text.encode()).hexdigest()


def seed_list(text: str) -> list:
    """The seeds of a comma-separated list, such as "11,12,13"."""
    return [int(v) for v in text.split(",")]


def changed(this, other) -> list:
    """The lines of `this` whose op's digest in `other` differs, each with
    that digest appended; the two list the same ops in the same order."""
    if [line.rsplit(" ", 1)[0] for line in this] != [line.rsplit(" ", 1)[0] for line in other]:
        raise SystemExit("the two sides list different ops")
    return [f"{a} {b.rsplit(' ', 1)[1]}" for a, b in zip(this, other) if a != b]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-cold", "lib-numeric", "lib-families"))
    ap.add_argument("--seed", required=True, type=seed_list,
                    help="a seed, or a comma-separated list of seeds")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the weightlab package to digest")
    ap.add_argument("--vs", metavar="DIR",
                    help="print only the ops whose digest differs from DIR's package")
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT)]
    lines = [" ".join(map(str, ([seed] if len(args.seed) > 1 else []) + list(line)))
             for seed in args.seed for line in digests(args.workload, seed)]
    if args.vs is None:
        for line in lines:
            print(line)
        return 0
    other = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", ",".join(map(str, args.seed)), "--src", args.vs],
        check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    diff = changed(lines, other)
    for line in diff:
        print(line)
    print(f"{len(diff)} of {len(lines)} ops changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
