"""Every name a module of the package imports, and every private name it
defines at module level, is used in that module; and every public def or
class a module defines at module level is read in the package or in
``perfbench``, apart from an explicit allowlist.

The modules are parsed with ``ast``; a name counts as used when the module
reads it anywhere, annotations included.  Imported names listed in a module's
``__all__`` (re-exports) and ``from __future__`` imports are exempt.  A
private name is one with a single leading underscore (``_x``) bound by a
module-level def, class or assignment.
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


def unused_private_names(source):
    """(line, name) for every module-level private def, class or assigned
    name that ``source`` never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            defined += [(node.lineno, name.id) for name in names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        (line, name) for line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


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


def test_scanner_finds_unused_private_names():
    source = (
        "__version__ = '1'\n"
        "_A = 1\n"
        "_B: int = 2\n"
        "_c, _d = 3, 4\n"
        "def _f(x=_c):\n"
        "    _g = 5\n"
        "    return _A\n"
        "class _K:\n"
        "    _h = 6\n"
        "def public() -> '_K':\n"
        "    return _f()\n"
    )
    assert unused_private_names(source) == [(3, "_B"), (4, "_d"), (8, "_K")]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE.parent))
)
def test_module_has_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


# -- one owner of the closed loop ----------------------------------------------

# The world's own module defines ``reset`` and ``step``; the dataset module
# owns the closed loop (``run_episode``) and the loader's replay.
LOOP_OWNERS = {"deskworld/world.py", "deskworld/dataset.py"}


def calls_of(source, names):
    """(line, name) for every call in ``source`` of a function in ``names``,
    as a bare name or as an attribute."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in names:
                calls.append((node.lineno, name))
    return calls


def test_scanner_finds_world_loop_calls():
    source = "from w import step\nimport w\nstep(s, a)\nw.reset(t, 0)\nstepper(1)\nx.step\n"
    assert calls_of(source, ("step", "reset")) == [(3, "step"), (4, "reset")]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p.relative_to(PACKAGE).as_posix() not in LOOP_OWNERS),
    ids=lambda path: str(path.relative_to(PACKAGE.parent)),
)
def test_only_the_loop_owners_call_step_or_reset(path):
    assert calls_of(path.read_text(encoding="utf-8"), ("step", "reset")) == []


# -- one train path ------------------------------------------------------------

# ``training`` defines the train step; ``cli._train_and_save`` is its one
# caller, shared by ``geoaware train`` and ``geoaware ablate``.
TRAIN_OWNERS = {"training.py", "cli.py"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p.relative_to(PACKAGE).as_posix() not in TRAIN_OWNERS),
    ids=lambda path: str(path.relative_to(PACKAGE.parent)),
)
def test_only_the_train_owners_call_bc_train_or_save_checkpoint(path):
    assert calls_of(path.read_text(encoding="utf-8"), ("bc_train", "save_checkpoint")) == []


# -- one owner of the foreign call --------------------------------------------

# ``training._keep_freed_heap`` sets glibc's malloc thresholds through
# ``ctypes``; no other module reaches into C.
CTYPES_OWNERS = {"training.py"}


def imports_of(source, module):
    """Lines of every ``import`` or ``from ... import`` of ``module`` or of
    one of its submodules in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            lines.append(node.lineno)
    return lines


def test_scanner_finds_ctypes_imports():
    source = "import os, ctypes\nfrom ctypes import CDLL\nimport ctypes.util\nimport ctypeslib\nfrom . import ctypes\n"
    assert imports_of(source, "ctypes") == [1, 2, 3]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p.relative_to(PACKAGE).as_posix() not in CTYPES_OWNERS),
    ids=lambda path: str(path.relative_to(PACKAGE.parent)),
)
def test_only_training_imports_ctypes(path):
    assert imports_of(path.read_text(encoding="utf-8"), "ctypes") == []


# -- public names that only tests use ----------------------------------------

PERFBENCH = PACKAGE.parent.parent / "perfbench"

# Kept for planned work in ROADMAP.md: ``nearest_seen_offset`` goes into
# per-rollout telemetry (direction 4).
TEST_ONLY_ALLOWED = {"deskworld.camera.nearest_seen_offset"}


def unreferenced_public_names(modules, readers):
    """``module.name`` for every module-level public def or class in
    ``modules`` (module name -> source) that no source in ``modules`` or
    ``readers`` reads, as a bare name or as an attribute.  Names are matched
    without their module, so a same-named read anywhere counts."""
    read = set()
    for source in [*modules.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        f"{module}.{node.name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    }


def test_scanner_finds_public_names_only_tests_use():
    modules = {
        "a": "def used():\n    pass\ndef via_attr():\n    pass\ndef orphan():\n    orphan = 1\nclass Lonely:\n    pass\n"
             "def _private():\n    pass\n",
        "b": "from a import used\nimport a\nused()\na.via_attr()\n",
    }
    assert unreferenced_public_names(modules, []) == {"a.orphan", "a.Lonely"}
    assert unreferenced_public_names(modules, ["x = Lonely()\n"]) == {"a.orphan"}


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    readers = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.rglob("*.py"))]
    assert unreferenced_public_names(modules, readers) == TEST_ONLY_ALLOWED
