"""Static guards on the program's source: outside `oracle`, no function calls
itself and nothing enumerates subsets, orderings or products."""

import ast
from pathlib import Path

import pytest

import bidipath

SRC = Path(bidipath.__file__).resolve().parent
EXPONENTIAL = {"combinations", "permutations", "product"}
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "oracle.py")


def self_calls(tree: ast.AST) -> list[str]:
    """Every function that calls itself, as `name(...)` or `self.name(...)`,
    with the line of the call."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == fn.name) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                found.append(f"{fn.name} (line {node.lineno})")
    return found


def exponential_uses(tree: ast.AST) -> list[str]:
    """Every use of itertools.combinations, permutations or product, with
    its line: imported by name, or read off the module under any alias."""
    aliases = {"itertools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "itertools")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in EXPONENTIAL]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in EXPONENTIAL
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(f"{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_function_outside_the_oracle_calls_itself(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), module)
    assert self_calls(tree) == [], f"{module} recurses"


@pytest.mark.parametrize("module", MODULES)
def test_no_exponential_enumeration_outside_the_oracle(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), module)
    assert exponential_uses(tree) == [], f"{module} enumerates"


def test_the_guards_see_what_they_guard_against():
    source = """
import itertools as it
from itertools import product

class Walk:
    def __init__(self):
        super().__init__()

    def step(self, v):
        return self.step(v - 1)

def depth(v):
    return 0 if v == 0 else depth(v - 1)

def pairs(xs):
    return list(it.combinations(xs, 2)) + list(itertools.permutations(xs))
"""
    tree = ast.parse(source)
    assert sorted(self_calls(tree)) == ["depth (line 13)", "step (line 10)"]
    assert sorted(exponential_uses(tree)) == [
        "combinations (line 16)", "permutations (line 16)", "product (line 3)",
    ]
    assert exponential_uses(ast.parse("import itertools\nitertools.permutations(x)")) == [
        "permutations (line 2)"
    ]
