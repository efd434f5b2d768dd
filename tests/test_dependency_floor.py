"""The package imports the standard library and numpy, nothing else."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "micdof"


def _outside(source: str) -> list[str]:
    """The modules a source imports that are neither in the standard library,
    nor numpy, nor relative to its package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]


def test_every_import_is_the_standard_library_numpy_or_the_package():
    # scipy and sympy may be installed next to numpy, yet pyproject.toml
    # declares numpy alone, so no source may come to need them.
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    assert {path.name: _outside(path.read_text()) for path in paths} == {
        path.name: [] for path in paths}


def test_the_import_check_names_what_lies_outside():
    source = ("import scipy.linalg\nfrom sympy import Matrix\nimport numpy.linalg as la\n"
              "from . import zf\nfrom .channel import _ranks\nimport itertools, fractions\n"
              "from __future__ import annotations\n")
    assert _outside(source) == ["scipy.linalg", "sympy"]
