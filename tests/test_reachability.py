"""Every ``src/repro`` module is reachable from an entry point.

A module that only tests import is code nobody runs: it keeps passing
its own tests while the program it belongs to never calls it.  This
walks ``import`` statements (at any depth, including function-local
ones) from the entry points — ``repro.cli``, the scripts under
``benchmarks/``, ``e2ebench/``, ``examples/`` and ``scripts/``, and the
built-in rule modules ``repro.checks.registry`` loads by name — and
requires the closure to cover the whole package.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRIPT_DIRS = ("benchmarks", "e2ebench", "examples", "scripts")


def _package_modules() -> Dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imported_names(path: Path) -> Set[str]:
    """Absolute module names an ``import`` in ``path`` may load."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            # ``from pkg import name`` loads ``pkg.name`` when it is a module.
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _builtin_rule_modules() -> Set[str]:
    """The modules ``_ensure_builtin_rules`` imports through importlib."""
    tree = ast.parse((SRC / "repro" / "checks" / "registry.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_ensure_builtin_rules":
            return {
                f"repro.checks.{const.value}"
                for const in ast.walk(node)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
                and const.value.startswith("rules_")
            }
    raise AssertionError("checks/registry.py lost _ensure_builtin_rules")


def _reachable(roots: Iterable[str], modules: Dict[str, Path]) -> Set[str]:
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        parts = stack.pop().split(".")
        # Importing ``a.b.c`` also runs the ``a`` and ``a.b`` packages.
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in modules and name not in seen:
                seen.add(name)
                stack.extend(_imported_names(modules[name]))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    modules = _package_modules()
    roots = {"repro.cli"} | _builtin_rule_modules()
    for directory in SCRIPT_DIRS:
        for script in sorted((ROOT / directory).rglob("*.py")):
            roots |= _imported_names(script)
    unreachable = sorted(set(modules) - _reachable(roots, modules))
    assert unreachable == [], (
        f"modules only tests import: {unreachable}; wire each into an "
        "entry point or delete it"
    )

