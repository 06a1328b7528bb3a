"""Every name README's "Library surface" section lists resolves.

A backticked ``geodom.x`` (or ``geodom.x.name``) sets the module the names
after it, up to the next such mention, are read on; a backticked
``module.name`` is read on ``geodom.module``; and a name in parentheses
right after another, as in ``CoverSolution`` (``check_feasible``), is read
on the object named before it.  Spans that are not dotted identifiers
(``solve --alg``, ``want_details=True``) and keywords (``None``) are
skipped.
"""

import importlib
import keyword
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SPAN = re.compile(r"\(`([^`]+)`\)|`([^`]+)`")
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def surface_text() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library surface")
    return text[start:text.index("\n## ", start + 1)]


def listed_names(text: str) -> list[tuple[str, str]]:
    """``(what, owner path)`` per listed name, where owner path is the
    dotted path of the module or object it is read on."""
    out = []
    module = owner = None
    for paren, span in SPAN.findall(text):
        name = (paren or span).removesuffix("()")
        if not DOTTED.fullmatch(name) or keyword.iskeyword(name):
            continue
        if paren:
            out.append((name, owner))
            continue
        if name == "geodom" or name.startswith("geodom."):
            parts = name.split(".")
            module = ".".join(parts[:2])
            if len(parts) > 2:
                out.append((".".join(parts[2:]), module))
            owner = name
            continue
        if "." in name:
            head, _, name = name.rpartition(".")
            out.append((name, f"geodom.{head}"))
            owner = f"geodom.{head}.{name}"
            continue
        out.append((name, module))
        owner = f"{module}.{name}"
    return out


def resolve(path: str):
    parts = path.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for part in parts[2:]:
        obj = getattr(obj, part)
    return obj


def test_every_library_surface_name_resolves():
    names = listed_names(surface_text())
    assert len(names) > 60
    missing = [f"{owner}.{name}" for name, owner in names if not hasattr(resolve(owner), name)]
    assert missing == []


def test_parser_reads_owners_and_attributes():
    text = (
        "- `geodom.lp`: `CoverSolution` (`check_feasible`), `lp_round` and its"
        " `RoundingResult` (`part()`); `solve --alg`, `None`.\n"
        "- `geodom.render.render_svg`, `geodom.cli.run_cli` and `main`;"
        " `oracle.exact_stab` reads it.\n"
    )
    assert listed_names(text) == [
        ("CoverSolution", "geodom.lp"),
        ("check_feasible", "geodom.lp.CoverSolution"),
        ("lp_round", "geodom.lp"),
        ("RoundingResult", "geodom.lp"),
        ("part", "geodom.lp.RoundingResult"),
        ("render_svg", "geodom.render"),
        ("run_cli", "geodom.cli"),
        ("main", "geodom.cli"),
        ("exact_stab", "geodom.oracle"),
    ]
