"""Every public name in the package is read by a command or a script; the
package is exact and stdlib-only, assigns a field only in ``__init__``, and
loads none of ``dataclasses``, ``inspect``, ``argparse`` and ``gettext``.

The check parses ``src/apackets/*.py`` and ``scripts/*.py``, and no test: a
name that only a test reads, an oracle or a unit test's target, belongs in
the tests. A public top-level function or class, or a public method of a
top-level class, counts as used when some file names it outside its own
definition: as a name, an attribute or an import (a docstring or a comment
does not count). Names are matched as strings, not resolved, so a name
reused elsewhere can hide an unused definition.

One name is exempt, in ``TEST_READ_ONLY``: ``cli.serialize_workspace``
writes the canonical form that the fixtures and acceptance criterion 8
check, and ROADMAP item 14 plans a command that calls it. The check fails
too once a command or script reads an exempt name, so the list stays
exact.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "apackets").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))
TEST_READ_ONLY = {"serialize_workspace"}
TREES = {path: ast.parse(path.read_text(), str(path)) for path in READERS}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFINITIONS) and not member.name.startswith("_"):
                        yield member


def test_every_public_name_is_read_outside_its_definition():
    reads = Counter(name for tree in TREES.values() for name in _names_read(tree))
    unused = []
    for path in PACKAGE:
        for node in _public_definitions(TREES[path]):
            own = sum(name == node.name for name in _names_read(node))
            if reads[node.name] == own:
                unused.append((node.name, f"{path.name}:{node.lineno}"))
    assert PACKAGE
    # Exactly the exempt names: an exemption lapses once a command reads it.
    assert sorted(name for name, _ in unused) == sorted(TEST_READ_ONLY), unused


def _imported_roots(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.partition(".")[0]]
    return []


# The modules that build or write a block twist, the one rational in the
# package; every other number is an int, a half-integer a doubled one.
TWIST_MODULES = {"jordan.py", "cli.py"}


def test_package_imports_only_the_stdlib_and_uses_no_floats():
    """Each module imports only the standard library or its own package, and
    no float enters: no float literal, no name ``float``, no ``/`` or ``/=``.
    Exact division is ``//`` on ints or ``Fraction(n, d)``, and only the
    ``TWIST_MODULES`` import ``fractions``."""
    faults = []
    for path in PACKAGE:
        for node in ast.walk(TREES[path]):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            faults += [f"{where} imports {root}" for root in _imported_roots(node)
                       if root not in sys.stdlib_module_names and root != "apackets"
                       or root == "fractions" and path.name not in TWIST_MODULES]
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                faults.append(f"{where} float literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                faults.append(f"{where} names float")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                faults.append(f"{where} true division")
    assert PACKAGE
    assert faults == []


# Names that set or delete an attribute named by a string.
_SETATTR_NAMES = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _field_writes(node: ast.AST, in_init: bool = False):
    """Every attribute store or delete under ``node`` other than
    ``self.<name> = ...`` in the body of an ``__init__``, and every use of a
    name that sets an attribute by string."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _field_writes(child, getattr(child, "name", None) == "__init__")
            continue
        if isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Load):
            if not (in_init and isinstance(child.ctx, ast.Store)
                    and isinstance(child.value, ast.Name) and child.value.id == "self"):
                yield child
        elif getattr(child, "id", None) in _SETATTR_NAMES or getattr(child, "attr", None) in _SETATTR_NAMES:
            yield child
        yield from _field_writes(child, in_init)


def test_package_assigns_fields_only_in_init():
    """The checked value classes are plain ``__slots__`` classes, which
    their type does not freeze; a block, once built, stays as built because
    no module of the package assigns an attribute outside
    ``self.<name> = ...`` in an ``__init__``."""
    faults = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
              for path in PACKAGE for node in _field_writes(TREES[path])]
    assert PACKAGE
    assert faults == []


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    """A fresh ``import apackets.cli`` loads none of ``dataclasses``,
    ``inspect``, ``argparse`` and ``gettext``: together they cost several
    milliseconds of every command's start."""
    probe = ("import sys, apackets.cli; "
             "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
