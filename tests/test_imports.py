"""Every name a module of the package imports is used in that module.

The modules are parsed with ``ast``; a name an import binds counts as used
when the module reads it anywhere, annotations included.  Names listed in a
module's ``__all__`` (re-exports) and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geoaware"


def unused_imports(source):
    """(line, name) for every imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used | exported]


def test_scanner_finds_unused_names_and_exempts_exports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import a.b\n"
        "from c import d, e as f, g\n"
        "__all__ = ['g']\n"
        "def h(x: d) -> None:\n"
        "    return np.zeros(a.b.size)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "f")]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE.parent))
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
