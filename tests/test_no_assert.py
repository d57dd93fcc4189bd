"""No module of the package holds an `assert` statement or raises
`AssertionError`: a check that can fail raises a typed `WeightlabError`,
and one that cannot fail is not written (an assert also vanishes under
`python -O`)."""

import ast
from pathlib import Path

import weightlab

_MODULES = sorted(Path(weightlab.__file__).resolve().parent.glob("*.py"))


def _asserts(source):
    """The line numbers of `source` that assert or raise AssertionError."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Assert):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_asserts():
    assert {path.name: _asserts(path.read_text()) for path in _MODULES} == \
        {path.name: [] for path in _MODULES}


def test_the_check_sees_both_forms():
    source = "assert x\nraise AssertionError('a')\nraise AssertionError\nraise ValueError\n"
    assert _asserts(source) == [1, 2, 3]
