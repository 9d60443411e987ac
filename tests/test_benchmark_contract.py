"""The benchmark still finds every library name it uses.

The span tracer binds every name it targets in the library and puts back
each attribute it replaced; ``benchmarks/spans.py`` is loaded from its
file as it stands.  Every benchmark file is also read as source, without
importing it, for the package names it uses.  A refactor that deletes or
renames such a name fails here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SPANS = BENCHMARKS / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("qefrate_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def bindings(spans) -> dict:
    """Every attribute the tracer may replace, keyed by (owner, name): the
    namespaces of the loaded qefrate modules, the numpy.linalg targets and
    the traced CLI callbacks."""
    found = {(key, attr): value for key, mod in list(sys.modules.items())
             if key == "qefrate" or key.startswith("qefrate.")
             for attr, value in vars(mod).items()}
    found.update({("numpy.linalg", attr): getattr(np.linalg, attr)
                  for owner, attr, *_ in spans._TARGETS if owner is np.linalg})
    found.update({("cli", cmd): spans.cli.main.commands[cmd].callback
                  for cmd in spans._CLI_COMMANDS})
    return found


def test_tracer_binds_every_target_and_restores_it(spans):
    before = bindings(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = bindings(spans)
    finally:
        tracer.uninstall()
    after = bindings(spans)

    replaced = {key for key, value in during.items() if value is not before[key]}
    targets = {(owner.__name__, attr) for owner, attr, *_ in spans._TARGETS}
    targets |= {("cli", cmd) for cmd in spans._CLI_COMMANDS}
    assert targets <= replaced
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def package_names(source: str) -> set[tuple[str, str]]:
    """(module, name) pairs a source file reads from the package: each
    ``from qefrate[.mod] import name`` and each attribute of an
    ``import qefrate [as alias]`` binding."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "qefrate"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "qefrate":
            names |= {(node.module, a.name) for a in node.names}
    names |= {("qefrate", node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return names


def resolves(module: str, name: str) -> bool:
    """Whether ``name`` is an attribute or a submodule of ``module``."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_package_names_resolve():
    used = {(path.name, module, name)
            for path in sorted(BENCHMARKS.glob("*.py"))
            for module, name in package_names(path.read_text())}
    assert ("workloads.py", "qefrate", "sample_grid") in used
    missing = sorted(ref for ref in used if not resolves(*ref[1:]))
    assert missing == []
