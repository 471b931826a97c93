"""The package names the benchmark reaches for still resolve.

``bench/tracer.py`` patches functions by (module, attribute) name and
``bench/workloads.py`` imports from ``efjsp``; a rename breaks the
benchmark but no other test.  The benchmark files are read as source,
not run.
"""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def _tracer_targets() -> list[tuple[str, str]]:
    """Every (module, attribute) in the tracer's SPANS, SCANS and COUNTED."""
    tables = {}
    for node in _module("tracer.py").body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "SCANS", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    assert sorted(tables) == ["COUNTED", "SCANS", "SPANS"]
    return [entry[:2] for table in tables.values() for entry in table]


def _workload_imports() -> list[tuple[str, str]]:
    """Every (module, name) that ``bench/workloads.py`` imports from efjsp."""
    return [
        (node.module, alias.name)
        for node in ast.walk(_module("workloads.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "efjsp"
        for alias in node.names
    ]


def _resolve(module: str, attribute: str):
    # "Class.method" names a method the class itself defines, where the
    # tracer looks it up
    *path, name = attribute.split(".")
    return vars(functools.reduce(getattr, path, importlib.import_module(module)))[name]


@pytest.mark.parametrize("module, attribute", _tracer_targets())
def test_tracer_target_resolves_to_a_callable(module, attribute):
    assert callable(_resolve(module, attribute))


@pytest.mark.parametrize("module, name", _workload_imports())
def test_workload_import_resolves(module, name):
    _resolve(module, name)
