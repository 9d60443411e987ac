"""The benchmark's span tracer still binds every name it targets in the
library, and puts back each attribute it replaced.

``benchmarks/spans.py`` is loaded from its file as it stands; a refactor
that deletes or renames a name it binds fails here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


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
