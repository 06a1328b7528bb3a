"""No module of the package imports a name it never uses, and no private
function, class or method of the package is left without a reader.

Checked with the stdlib ``ast`` module, so it needs no linter.  Exempt from
the import check are ``__init__.py`` (its imports are the public
namespace), ``from __future__`` and lines marked ``# noqa: F401``
(re-exports kept on purpose).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "geodom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(text: str) -> list[str]:
    """The names bound by ``text``'s imports that nothing in it reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # the line of the alias itself, for a parenthesised import
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_defs(texts: dict[str, str]) -> list[str]:
    """The private (``_x``, not ``__x__``) module-level functions and classes,
    and the private methods of module-level classes, that no module of
    ``texts`` (name -> source) reads by name or attribute."""
    defs, read = [], set()
    for name, text in texts.items():
        tree = ast.parse(text)
        for node in tree.body:
            for d in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if d.name.startswith("_") and not d.name.endswith("__"):
                    defs.append((name, d.name, d.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}: {d} (line {line})" for name, d, line in defs if d not in read]


def test_package_reads_every_private_def():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_defs(texts) == []


def test_the_private_def_check_sees_unread_defs():
    texts = {
        "a.py": "def _used():\n    pass\n\nclass _Left:\n    def _gone(self):\n        pass\n"
                "    def __init__(self):\n        pass\n",
        "b.py": "from a import _used\n_used()\nx.y._Left\n",
    }
    assert unread_private_defs(texts) == ["a.py: _gone (line 5)"]


def test_the_check_sees_unused_and_exempt_names():
    text = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "sys.exit(dumps)\n"
    )
    assert unused_imports(text) == ["os (line 2)"]
