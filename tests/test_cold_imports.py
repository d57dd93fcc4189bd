"""numpy loads at the first sample a call reads, not with the package: a
fresh interpreter that imports weightlab, refuses a malformed input, or
answers `classify` or `analyze` on a family from its closed forms runs no
numpy code, and the first numpy read is safe from several threads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weightlab
from weightlab.core import (_FAMILY_TABLE, Dilated, Exp, Gevrey, GridSpec, Log, LogPower,
                            Normalized, Power, Scaled, closed_form, load_weight)
from weightlab.errors import HorizonTooSmall, ValidationFailed

_SRC = Path(weightlab.__file__).resolve().parent
_ENV = dict(os.environ, PYTHONPATH=str(_SRC.parent))

_FAMILIES = [
    {"family": "power", "params": {"alpha": 0.5}},
    {"family": "gevrey", "params": {"s": 2.4}},
    {"family": "log", "params": {}},
    {"family": "logpower", "params": {"beta": 2.0}},
    {"family": "exp", "params": {}},
]
# each family, scaled, and dilated by c <= 1, which keeps it normalized
_GERMS = _FAMILIES + [{"family": wrap, "params": {"c": c}, "base": doc}
                      for doc in _FAMILIES
                      for wrap, c in (("scaled", 3.0), ("dilated", 0.5), ("dilated", 1.0))]


def _fresh(code):
    """stdout of `code` run in a fresh interpreter on this checkout's package."""
    p = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


def _loads_numpy(argvs):
    """(argv, exit code, whether numpy is loaded after it) for the CLI calls
    argvs, made in turn in one fresh interpreter after `import weightlab`."""
    code = ("import json, os, sys\n"
            "import weightlab\n"
            "from weightlab import cli\n"
            "seen = [('import weightlab', 0, 'numpy' in sys.modules)]\n"
            f"for argv in {argvs!r}:\n"
            "    rc = cli.run([*argv, '--out', os.devnull])\n"
            "    seen.append((argv, rc, 'numpy' in sys.modules))\n"
            "print(json.dumps(seen))\n")
    return json.loads(_fresh(code))


def test_germ_answers_and_refusals_run_no_numpy(tmp_path):
    argvs = []
    for i, doc in enumerate(_GERMS):
        path = tmp_path / f"w{i}.json"
        path.write_text(json.dumps(doc))
        argvs += [["classify", "--weight", str(path)], ["analyze", "--weight", str(path)]]
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"family": "dilated", "params": {"lam": 2},
                                     "base": {"family": "power", "params": {"alpha": 0.5}}}))
    argvs += [["analyze", "--weight", str(malformed)],
              ["analyze", "--weight", str(tmp_path / "w0.json"), "--conditions", "om9"]]
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [[0, 0], [1, 1], [3, 4]]}))
    # a call that reads samples does load numpy, so the check can fail
    argvs.append(["kappa", "--weight", str(profile)])

    seen = _loads_numpy(argvs)
    assert [rc for _, rc, _ in seen] == [0] * (1 + 2 * len(_GERMS)) + [1, 1, 0]
    assert [argv for argv, _, loaded in seen if loaded] == [argvs[-1]], seen


def _top_level(tree):
    """The nodes a module runs when it is imported: all but function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy_at_import_time(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = [alias.name for node in _top_level(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in _top_level(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [m for m in imported if m.split(".")[0] == "numpy"]


def test_four_threads_make_the_first_numpy_read_at_once():
    code = ("import json, sys, threading\n"
            "from weightlab.core import np\n"
            "assert 'numpy' not in sys.modules\n"
            "sys.setswitchinterval(1e-6)\n"
            "start, got = threading.Barrier(4), []\n"
            "def read():\n"
            "    start.wait()\n"
            "    got.append(np.arange(3).tolist())\n"
            "threads = [threading.Thread(target=read) for _ in range(4)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(timeout=60)\n"
            "print(json.dumps([[t.is_alive() for t in threads], got]))\n")
    for _ in range(3):
        alive, got = json.loads(_fresh(code))
        assert alive == [False] * 4
        assert got == [[0, 1, 2]] * 4


def _sweep():
    rng = np.random.default_rng(34)
    grids = []
    for _ in range(3000):
        t_min = float(10.0 ** rng.uniform(-6, 4))
        span = float(10.0 ** rng.uniform(0.01, 12))
        grids.append(GridSpec(t_min, t_min * span, int(rng.integers(2, 602))))
    for n in (2, 3):
        grids += [GridSpec(t_min, t_max, n) for t_min, t_max in
                  ((1e-2, 1e6), (1.0, 10.0), (1.0, 10.5), (0.3, 7e4), (1e-3, 1e9))]
    # the points lie a factor 10^(12/40) to 10^(12/10) apart: near 9.9, and
    # past 10, where decades are empty
    grids += [GridSpec(1e-3, 1e9, n) for n in range(11, 42)]
    grids += [GridSpec(t_min, t_max, n, "linear") for t_min, t_max, n in
              ((0.0, 1e6, 600), (-1.0, 1e6, 600), (1e-2, 1e6, 3), (5.0, 1e4, 2), (0.0, 2.0, 7))]
    return grids


def test_the_decade_count_is_the_length_of_the_decade_partition():
    for grid in _sweep():
        assert grid.decade_count() == len(grid.decade_starts()), grid


@pytest.mark.parametrize("grid, found", [
    (GridSpec(1.0, 50.0, 10), 1),
    (GridSpec(1e-2, 1e6, 2), 1),
    (GridSpec(1.0, 50.0, 600, "linear"), 1),
], ids=["one-decade", "empty-decades", "linear"])
def test_a_grid_too_short_for_a_trend_keeps_the_guard_s_message(grid, found):
    from weightlab.conditions import check_condition
    with pytest.raises(HorizonTooSmall) as exc:
        check_condition(Power(0.5), "om1", grid)
    assert str(exc.value) == ("trend needs a grid of at least 2 decades (hi/10, hi] "
                              f"counted down from its last point, not {found}")


def test_a_numpy_integer_is_a_point_count_and_a_bool_or_float_is_not():
    assert GridSpec(1e-2, 1e6, np.int64(600)).n_points == 600
    for n in (True, 2.5):
        with pytest.raises(ValidationFailed):
            GridSpec(1e-2, 1e6, n)


@pytest.mark.parametrize("name", sorted(_FAMILY_TABLE))
def test_the_family_fact_of_w_at_0_is_its_value(name):
    bases = [Power(0.5), Gevrey(2.4), Log(), LogPower(2.0), Exp()]
    weights = {"power": [Power(0.5), Power(3.0)], "gevrey": [Gevrey(2.4)], "log": [Log()],
               "logpower": [LogPower(2.0)], "exp": [Exp()],
               "scaled": [Scaled(3.0, b) for b in bases],
               "dilated": [Dilated(c, b) for b in bases for c in (0.5, 4.0)],
               "normalized": [Normalized(b) for b in bases]}[name]
    for w in weights:
        fact = closed_form(w, "zero_at_origin")
        assert fact is (None if name == "normalized" else True), w
        assert w.evaluate(0.0) == 0.0


def test_profiles_and_sequences_have_no_fact_of_w_at_0():
    for doc in ({"profile": [[0, 0], [1, 1], [3, 4]]}, {"sequence": [0.0, 1.0, 3.0]}):
        assert closed_form(load_weight(doc), "zero_at_origin") is None
