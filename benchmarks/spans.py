"""In-memory span recorder that times calls into qefrate from outside.

Nothing inside the library changes: ``Tracer.install`` replaces a
function with a timing wrapper at every place it is bound, in every
loaded ``qefrate`` module (and for numpy entry points, on the numpy
module qefrate calls through), and ``Tracer.uninstall`` puts the
originals back.  Each span records its name, start, end, parent span and
job id; counters recorded at the same boundary (nodes, matrices, bytes)
ride on the span as ``units``.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from qefrate import cli, homotopy, horizon, io, model, quadrature, rate, spectral


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    units: float = 0.0


def _matrices(arr) -> float:
    shape = np.shape(arr)
    return float(math.prod(shape[:-2])) if len(shape) > 2 else 1.0


def _file_bytes(args, kwargs) -> float:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return float(os.path.getsize(path))
    except (OSError, TypeError):
        return 0.0


# (owner, attribute, span name, units of work recorded on the span)
_TARGETS = [
    (model, "from_state_space", "model.validate", None),
    (model, "realize", "model.validate", None),
    (io, "load_model", "model.validate", None),
    (spectral, "sample_grid", "spectral.sample_grid",
     lambda a, k, r: float(len(r.lambdas))),
    (spectral, "transfer", "spectral.transfer", None),
    (quadrature, "weighted_sum", "quadrature.integral",
     lambda a, k, r: float(np.size(a[0]))),
    (rate, "upsilon", "rate.upsilon", None),
    (rate, "upsilon_from_grid", "rate.upsilon_from_grid", None),
    (rate, "theta_threshold", "rate.theta_threshold", None),
    (rate, "classical_v", "rate.classical_v", None),
    (rate, "small_theta_expansion", "rate.small_theta_expansion", None),
    (rate, "frequency_profile", "rate.frequency_profile", None),
    (rate, "tail_bound", "rate.bounds", None),
    (rate, "worst_case_lqg_bound", "rate.bounds", None),
    (homotopy, "rate_by_homotopy", "homotopy.march", None),
    (homotopy, "_rk4_stack", "homotopy.step", None),
    (horizon, "discretize_kernels", "horizon.discretize",
     lambda a, k, r: float(r[0].shape[0])),
    (horizon, "ln_xi", "horizon.ln_xi", None),
    (horizon, "hessenberg", "horizon.hessenberg", None),
    (horizon, "eigh_tridiagonal", "horizon.tridiag_eig", None),
    (horizon, "_lambda_max", "horizon.lambda_max", None),
    (horizon, "cholesky", "horizon.cholesky", None),
    (io, "write_csv", "io.write_csv", lambda a, k, r: _file_bytes(a, k)),
    (io, "write_summary", "io.write_summary", None),
    (np.linalg, "eigh", "linalg.eigh", lambda a, k, r: _matrices(a[0])),
    (np.linalg, "eigvalsh", "linalg.eigh", lambda a, k, r: _matrices(a[0])),
    (np.linalg, "solve", "linalg.solve", lambda a, k, r: _matrices(a[0])),
]

#: CLI commands are click objects; their callbacks are the spans.
_CLI_COMMANDS = {"validate": "cli.validate", "rate": "cli.rate",
                 "onemode-check": "cli.onemode_check"}


@dataclass
class Tracer:
    """Collects spans while installed; one instance per traced run."""

    spans: list[Span] = field(default_factory=list)
    job: int | None = None
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    def span(self, name: str, func, units=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = Span(name, time.perf_counter(), math.nan, parent, tracer.job)
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                tracer._stack.pop()
            if units is not None:
                rec.units = units(args, kwargs, result)
            return result
        return wrapper

    def _bind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target wherever a qefrate module binds it."""
        mods = [m for key, m in sys.modules.items()
                if key == "qefrate" or key.startswith("qefrate.")]
        for owner, attr, name, units in _TARGETS:
            orig = getattr(owner, attr)
            wrapped = self.span(name, orig, units)
            if owner is np.linalg:
                self._bind(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._bind(mod, key, wrapped)
        for cmd, name in _CLI_COMMANDS.items():
            command = cli.main.commands[cmd]
            self._bind(command, "callback", self.span(name, command.callback))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def run_job(self, job_id: int, func):
        """Run one job as a root span named ``job``."""
        self.job = job_id
        try:
            return self.span("job", func)()
        finally:
            self.job = None


def to_records(spans: list[Span]) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "job": s.job, "units": s.units}
            for s in spans]

