"""The sources stay within the Python floor that pyproject.toml declares."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_parses_at_the_declared_python_floor():
    # The suite may run on a newer Python than the floor, so the floor is
    # held by parsing: syntax newer than it fails here.
    text = (ROOT / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()))
    assert floor == (3, 10)
    paths = sorted([*(ROOT / "src" / "micdof").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
