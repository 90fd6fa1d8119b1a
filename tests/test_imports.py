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
