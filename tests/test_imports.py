"""Every module-level import in the package is used.

No linter runs on this repository, so this stdlib-``ast`` check is the
guard against dead imports. An import counts as used when its bound name
appears anywhere else in the module as a name or as the root of an
attribute chain. ``__init__.py`` (whose imports are the public API) and
``from __future__`` imports are skipped; a ``# noqa: F401`` comment on the
statement's first line or on the name's own line exempts a name, which is
how the bindings that the benchmark tracer wraps are kept.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ris_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    exempt = {i + 1 for i, line in enumerate(lines) if "# noqa: F401" in line}
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if node.lineno in exempt or alias.lineno in exempt:
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import math  # noqa: F401 -- kept on purpose\n"
              "from json import (  # noqa: F401\n"
              "    dumps,\n"
              ")\n"
              "from typing import Any, List\n"
              "x: List = []\n")
    assert unused_imports(source) == [(2, "os"), (7, "Any")]


# --------------------------------------------------------------------------
# unread fields
# --------------------------------------------------------------------------

ROOT = PACKAGE.parents[1]
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` (bare or called) or a ``NamedTuple`` subclass."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
            return True
    return any((getattr(base, "id", None) or getattr(base, "attr", None)) == "NamedTuple"
               for base in node.bases)


def record_fields(source: str) -> list:
    """(class, field) for every annotated field of a dataclass or NamedTuple."""
    return [(node.name, stmt.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and _is_record(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def loaded_attributes(source: str) -> set:
    """Every attribute name the source reads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(package_sources: list, reader_sources: list) -> list:
    """Fields of the package's records that no reader loads as an attribute.

    Matching is by attribute name alone, so a field passes when any object
    anywhere has a loaded attribute of the same name; the check finds
    fields whose name nothing reads, not every field that is never read.
    """
    loaded = set().union(*map(loaded_attributes, reader_sources))
    return sorted(f for source in package_sources for f in record_fields(source)
                  if f[1] not in loaded)


def test_every_record_field_is_read():
    sources = [p.read_text(encoding="utf-8") for p in READERS]
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_fields(package, sources) == []


def test_unread_field_check_on_a_small_source():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    read: int\n"
              "    stored: int = 0\n"
              "@dataclasses.dataclass\n"
              "class B:\n"
              "    never: float\n"
              "class T(NamedTuple):\n"
              "    x: int\n"
              "    y: int\n"
              "class Plain:\n"
              "    ignored: int\n"
              "def use(a, t):\n"
              "    a.stored = t.x\n"
              "    return a.read\n")
    assert unread_fields([source], [source]) == [("A", "stored"), ("B", "never"), ("T", "y")]
