"""No module of the package imports a name it never uses.

Checked with the stdlib ``ast`` module, so it needs no linter.  Exempt are
``__init__.py`` (its imports are the public namespace), ``from __future__``
and lines marked ``# noqa: F401`` (re-exports kept on purpose).
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
