"""Every module-level import in the package and in its tests is used.

No linter runs on this repository, so this stdlib-``ast`` check is the
guard against dead imports. An import counts as used when its bound name
appears anywhere else in the module as a name or as the root of an
attribute chain. ``__init__.py`` (whose imports are the public API) and
``from __future__`` imports are skipped; a ``# noqa: F401`` comment on the
statement's first line or on the name's own line exempts a name, which is
how the bindings that the benchmark tracer wraps are kept; a second check
holds each exempted name to a binding that ``bench/tracer.py`` wraps in
that module, so the exemption cannot hide a dead import.

The checks further down find values that nothing reads: record fields,
the instance attributes an ``__init__`` sets, and function parameters.
Another holds the error hierarchy to the CLI: every ``RisLabError``
subclass is raised somewhere and caught by name. Another keeps the
package free of module state: no function mutates a module-level
container, so reuse lives in objects that a caller owns, such as the memo
a sweep passes to ``experiments.build_setup``. Another keeps
``functools.cached_property`` out of the package. The last one runs an
experiment in a fresh interpreter and checks that the package never
imports scipy, which is a test-only dependency.
"""
import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ris_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def module_imports(source: str) -> list:
    """(line, bound name, exempt) of every module-level import but ``__future__``'s."""
    noqa = {i + 1 for i, line in enumerate(source.splitlines()) if "# noqa: F401" in line}
    return [(alias.lineno, alias.asname or alias.name.split(".")[0],
             node.lineno in noqa or alias.lineno in noqa)
            for node in ast.parse(source).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def unused_imports(source: str) -> list:
    imported = {name: line for line, name, exempt in module_imports(source) if not exempt}
    used = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


TRACER = PACKAGE.parents[1] / "bench" / "tracer.py"


def untraced_exemptions(sources: dict, tracer_source: str) -> list:
    """(module, line, name) of each ``# noqa: F401`` import the tracer does not wrap there.

    ``sources`` maps module names, as the tracer's ``_FUNCTIONS`` table
    writes them, to their text. The table is read with ``ast``, so the
    tracer is never imported.
    """
    [table] = [node.value for node in ast.parse(tracer_source).body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["_FUNCTIONS"]]
    wrapped = {(row.elts[0].value, row.elts[1].value) for row in table.elts}
    return sorted((module, line, name) for module, source in sources.items()
                  for line, name, exempt in module_imports(source)
                  if exempt and (module, name) not in wrapped)


def test_noqa_exempts_only_traced_bindings():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert untraced_exemptions(sources, TRACER.read_text(encoding="utf-8")) == []


def test_untraced_exemption_check_on_a_small_source():
    tracer = ("_FUNCTIONS = [\n"
              "    (\"experiments\", \"build_setup\", \"experiments.build_setup\", None),\n"
              "    (\"montecarlo\", \"kept\", \"a.kept\", _blocks),\n"
              "]\n"
              "_METHODS = [(\"estimation\", \"Estimator\", \"estimate\", \"e\")]\n")
    sources = {"montecarlo": ("from .a import kept  # noqa: F401 -- traced\n"
                              "from .a import dead  # noqa: F401\n"
                              "import os\n"),
               "experiments": ("from .b import (  # noqa: F401\n"
                               "    build_setup,\n"
                               "    kept,\n"
                               ")\n")}
    assert untraced_exemptions(sources, tracer) == [
        ("experiments", 3, "kept"), ("montecarlo", 2, "dead")]


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


def _loads(node: ast.AST) -> collections.Counter:
    """How often each attribute name is read below ``node``."""
    return collections.Counter(n.attr for n in ast.walk(node)
                               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unread_fields(package_sources: list, reader_sources: list) -> list:
    """Fields of the package's records that nothing outside their own ``__post_init__`` reads.

    A field is an annotated name in the body of a dataclass or NamedTuple.
    ``reader_sources`` must include ``package_sources``: the loads inside
    the record's ``__post_init__``, which only validate the field, are
    subtracted from the loads of all readers. Matching is by attribute name
    alone, so a field passes when any object anywhere has a loaded attribute
    of the same name; the check finds fields whose name nothing reads, not
    every field that is never read.
    """
    loaded = sum(map(_loads, map(ast.parse, reader_sources)), collections.Counter())
    unread = []
    for source in package_sources:
        for cls in ast.walk(ast.parse(source)):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            own = sum((_loads(f) for f in cls.body
                       if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"),
                      collections.Counter())
            unread += [(cls.name, stmt.target.id) for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                       and loaded[stmt.target.id] - own[stmt.target.id] <= 0]
    return sorted(unread)


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
              "@dataclass\n"
              "class C:\n"
              "    checked: int\n"
              "    used: int\n"
              "    def __post_init__(self):\n"
              "        if self.checked < 0 or self.used < 0:\n"
              "            raise ValueError\n"
              "def use(a, t, c):\n"
              "    a.stored = t.x\n"
              "    return a.read + c.used\n")
    assert unread_fields([source], [source]) == [
        ("A", "stored"), ("B", "never"), ("C", "checked"), ("T", "y")]


# --------------------------------------------------------------------------
# unread instance attributes
# --------------------------------------------------------------------------

def _init_attributes(source: str) -> list:
    """(class, attribute, __init__ node) for every ``self.<name> = ...`` in an ``__init__``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            for node in ast.walk(init):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                found += [(cls.name, t.attr, init) for t in targets
                          if isinstance(t, ast.Attribute)
                          and getattr(t.value, "id", None) == "self"]
    return found


def unread_attributes(package_sources: list, reader_sources: list) -> list:
    """Attributes an ``__init__`` stores that nothing outside that ``__init__`` reads.

    ``reader_sources`` must include ``package_sources``: the loads inside
    the storing ``__init__`` are subtracted from the loads of all readers.
    Matching is by attribute name, as in ``unread_fields``, which subtracts
    the loads of a record's ``__post_init__`` the same way.
    """
    loaded = sum(map(_loads, map(ast.parse, reader_sources)), collections.Counter())
    return sorted({(cls, name) for source in package_sources
                   for cls, name, init in _init_attributes(source)
                   if loaded[name] - _loads(init)[name] <= 0})


def test_every_instance_attribute_is_read():
    sources = [p.read_text(encoding="utf-8") for p in READERS]
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_attributes(package, sources) == []


def test_unread_attribute_check_on_a_small_source():
    source = ("class A:\n"
              "    def __init__(self, x):\n"
              "        self.kept = x\n"
              "        self.only_here = x\n"
              "        self.stored = self.only_here + 1\n"
              "        other.field = x\n"
              "    def use(self):\n"
              "        return self.kept\n"
              "class B:\n"
              "    def __init__(self):\n"
              "        self.read_elsewhere: int = 0\n"
              "    def setup(self):\n"
              "        self.late = 1\n"
              "print(B().read_elsewhere)\n")
    assert unread_attributes([source], [source]) == [("A", "only_here"), ("A", "stored")]


# --------------------------------------------------------------------------
# unread function parameters
# --------------------------------------------------------------------------

def unread_parameters(source: str) -> list:
    """(line, function, parameter) for every parameter its function never reads.

    Covers functions, methods (``self`` and ``cls`` included) and lambdas.
    A parameter is read when its name is loaded anywhere in the function's
    body, nested functions included; defaults and annotations do not count.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), a.arg)
                  for a in params if a.arg not in read]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_unread_parameter_check_on_a_small_source():
    source = ("def f(a, b, /, c, *args, d=1, e: int = 2, **kw):\n"
              "    return a + c + e\n"
              "class A:\n"
              "    def method(self, x):\n"
              "        def inner(y):\n"
              "            return x\n"
              "        return inner\n"
              "    async def uses_self(self):\n"
              "        return self\n"
              "g = lambda u, v=0: u\n")
    assert unread_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "d"), (1, "f", "kw"),
        (4, "method", "self"), (5, "inner", "y"), (10, "<lambda>", "v")]


# --------------------------------------------------------------------------
# every error is raised and mapped to an exit code
# --------------------------------------------------------------------------

def _names(node) -> set:
    """Class names an exception expression or ``except`` clause refers to."""
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in nodes}


def unhandled_errors(errors_source: str, raiser_sources: list, cli_source: str) -> list:
    """(class, gap) for each ``RisLabError`` subclass never raised or not caught by ``main``.

    Subclasses are found through their bases within ``errors_source``. A
    class is raised when a ``raise`` in ``raiser_sources`` names it, called
    or bare; it is caught when an ``except`` clause of ``main`` in
    ``cli_source`` names it, alone or in a tuple.
    """
    bases = {c.name: set().union(*map(_names, c.bases)) for c in ast.parse(errors_source).body
             if isinstance(c, ast.ClassDef)}

    def derives(name):
        return any(b == "RisLabError" or (b in bases and derives(b)) for b in bases[name])

    raised = set().union(*(_names(n.exc.func if isinstance(n.exc, ast.Call) else n.exc)
                           for source in raiser_sources for n in ast.walk(ast.parse(source))
                           if isinstance(n, ast.Raise) and n.exc is not None))
    caught = set().union(*(_names(h.type) for f in ast.walk(ast.parse(cli_source))
                           if isinstance(f, ast.FunctionDef) and f.name == "main"
                           for h in ast.walk(f)
                           if isinstance(h, ast.ExceptHandler) and h.type is not None))
    return sorted([(c, "never raised") for c in bases if derives(c) and c not in raised]
                  + [(c, "not caught") for c in bases if derives(c) and c not in caught])


def test_every_error_is_raised_and_caught():
    raisers = [p.read_text(encoding="utf-8") for p in MODULES if p.name != "errors.py"]
    assert unhandled_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"), raisers,
                            (PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_unhandled_error_check_on_a_small_source():
    errors = ("class RisLabError(Exception):\n    pass\n"
              "class Config(RisLabError, ValueError):\n    pass\n"
              "class Bound(RisLabError):\n    pass\n"
              "class Narrow(Bound):\n    pass\n"
              "class Unused(RisLabError):\n    pass\n"
              "class Warn(UserWarning):\n    pass\n")
    raiser = ("def f(x):\n"
              "    if x:\n"
              "        raise errors.Config('bad') from None\n"
              "    raise Narrow\n"
              "def g():\n"
              "    raise Bound('edge')\n")
    cli = ("def main():\n"
           "    try:\n"
           "        run()\n"
           "    except Config:\n"
           "        return 2\n"
           "    except (Bound, OSError):\n"
           "        return 3\n"
           "def other():\n"
           "    try:\n"
           "        run()\n"
           "    except Unused:\n"
           "        pass\n")
    assert unhandled_errors(errors, [raiser], cli) == [
        ("Narrow", "not caught"), ("Unused", "never raised"), ("Unused", "not caught")]


# --------------------------------------------------------------------------
# no module state
# --------------------------------------------------------------------------

MUTATORS = {"append", "clear", "pop", "setdefault", "update"}


def mutated_globals(source: str) -> list:
    """(line, name) where a function mutates a module-level container of ``source``.

    A container is a name a module-level assignment binds. A function
    mutates it by item assignment or deletion, or by a call of one of its
    ``MUTATORS`` methods; a ``global`` statement counts for each name it
    lists, whatever the name binds.
    """
    tree = ast.parse(source)
    module_names = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(t, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found |= {(node.lineno, name) for name in node.names}
                continue
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module_names:
                found.add((node.lineno, target.id))
    return sorted(found)


def test_no_function_mutates_module_state():
    # what grid points reuse lives in the memo a sweep owns, not in a module
    found = {(p.stem, name) for p in sorted(PACKAGE.glob("*.py"))
             for _, name in mutated_globals(p.read_text(encoding="utf-8"))}
    assert found == set()


def test_mutated_global_check_on_a_small_source():
    source = ("CACHE = {}\n"
              "ITEMS: list = []\n"
              "LIMIT = 3\n"
              "import os\n"
              "def f(key, local):\n"
              "    CACHE[key] = 1\n"
              "    local.clear()\n"
              "    os.environ.pop(key)\n"
              "    return CACHE.get(key), LIMIT\n"
              "def g():\n"
              "    global LIMIT\n"
              "    LIMIT = 4\n"
              "    del CACHE['a']\n"
              "    ITEMS.append(lambda: CACHE.update(x=1))\n"
              "CACHE.clear()\n")
    assert mutated_globals(source) == [(6, "CACHE"), (11, "LIMIT"), (13, "CACHE"),
                                       (14, "CACHE"), (14, "ITEMS")]
    # a ``global`` statement first in a function, or after a mutation
    assert mutated_globals("X = 1\ndef f():\n    global X\n    X = 2\n") == [(3, "X")]
    assert mutated_globals("C = {}\nX = 1\ndef f():\n    C[1] = 2\n    global X\n"
                           "    X = 2\n") == [(4, "C"), (5, "X")]


# --------------------------------------------------------------------------
# no lazily cached attributes
# --------------------------------------------------------------------------

def cached_properties(source: str) -> list:
    """Lines of ``source`` that import ``functools.cached_property`` or read it as an attribute.

    On Python 3.8 to 3.11 every instance of a class shares one lock for a
    cached_property, and from 3.12 on it takes none, so a value built
    lazily under the Monte Carlo chunk pool is either built under a lock
    held across all instances or built twice. What a caller needs once it
    builds once and passes on, as the oracle does with the template factors.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found |= {node.lineno for alias in node.names if alias.name == "cached_property"}
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.add(node.lineno)
    return sorted(found)


def test_package_uses_no_cached_property():
    found = {(p.name, line) for p in sorted(PACKAGE.glob("*.py"))
             for line in cached_properties(p.read_text(encoding="utf-8"))}
    assert found == set()


def test_cached_property_check_on_a_small_source():
    source = ("import functools\n"
              "from functools import cached_property as lazy, partial\n"
              "class A:\n"
              "    @functools.cached_property\n"
              "    def x(self):\n"
              "        return partial(len)\n"
              "    @property\n"
              "    def y(self):\n"
              "        return lazy\n")
    assert cached_properties(source) == [2, 4]
    assert cached_properties("from functools import lru_cache\n"
                             "from other import cached_property\n") == []


# --------------------------------------------------------------------------
# no scipy at run time
# --------------------------------------------------------------------------

# A phase-noise sweep with a von Mises level touches every module: the
# Bessel ratio, both correlation square roots, the guarded LMMSE solves,
# the closed forms and the Monte Carlo oracle.
NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import ris_lab.cli
out = Path(sys.argv[1])
out.mkdir()
(out / "config.json").write_text(json.dumps({
    "m": 8, "n": 4, "k": 2, "m_e": 2, "sweep": [4],
    "phase_noise_levels": [0.0, 0.5], "n_blocks": 2}))
rc = ris_lab.cli.main(["phase_noise_sweep", "--config", str(out / "config.json"),
                       "--out", str(out / "run")])
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules
                                            if m == "scipy" or m.startswith("scipy."))}))
"""


def test_a_run_imports_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "w")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == {"rc": 0, "scipy": []}
