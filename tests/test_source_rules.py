"""The package stays stdlib-only and float-free: every module under
src/blowdown imports only the standard library or blowdown itself (so
nothing reaches the tests' Fourier-Motzkin oracle), no module has a
float literal or a `float(` call, and none uses a private attribute or
keyword of `fractions.Fraction`, which differ between Python versions."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import blowdown

SOURCES = sorted(Path(blowdown.__file__).parent.glob("*.py"))


def imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." if node.level else node.module)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_blowdown(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [
        name for name in imported_modules(tree)
        if name != "." and name.split(".")[0] not in sys.stdlib_module_names | {"blowdown"}
    ]
    assert foreign == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    floats = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    ]
    assert floats == []


# Private names of Fraction on this interpreter, plus two that other
# supported versions have or had (`_normalize=` is gone in 3.12,
# `_from_coprime_ints` is new there).
FRACTION_PRIVATE = {
    name for name in dir(Fraction) if name.startswith("_") and not name.startswith("__")
} | {"_normalize", "_from_coprime_ints"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_fraction_api(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in FRACTION_PRIVATE)
        or (isinstance(node, ast.keyword) and node.arg in FRACTION_PRIVATE)
    ]
    assert uses == []


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cone.py", "ratmath.py", "reports.py"}
