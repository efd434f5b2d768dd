"""The package's public names."""

import ast
from pathlib import Path

import micdof
from test_readme import _block

SOURCES = Path(__file__).resolve().parents[1] / "src" / "micdof"


def test_every_public_name_resolves_and_is_listed_once():
    # A name left in __all__ after its definition is gone fails here, as
    # does one listed twice.
    names = micdof.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(micdof, name)]
    assert missing == []


def _loaded_names(source: str) -> set[str]:
    # Every name the code loads, as a bare name or as an attribute; imports,
    # definitions, strings and docstrings load none.
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_every_public_name_is_used():
    # A name in __all__ is loaded by the package's modules (its __init__
    # only re-exports) or by the README's Library example.
    sources = [path.read_text() for path in SOURCES.glob("*.py") if path.name != "__init__.py"]
    used = set().union(*map(_loaded_names, sources + [_block("Library", "python")]))
    assert [name for name in micdof.__all__ if name not in used] == []
