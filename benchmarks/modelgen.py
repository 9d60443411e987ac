"""Seeded random stable models for the ``model-batch`` workload.

Each model is drawn in physical form (commutation, energy, coupling and
weight matrices), validated by the library exactly as the CLI will load
it, and written as a model JSON file.  Draws the library refuses as
unstable or degenerate are rejected.

Lightly damped draws are set aside from the timed batch: those whose
Hurwitz margin, the half-width of the sharpest drift resonance, spans
fewer than ``MIN_MESH_STEPS`` steps of the library's default frequency
mesh.  On them the default mesh misses the resonance, ``rate`` reports a
quadrature warning and V misses its reference (a known defect of the
fixed-step mesh); a timed workload has to be one on which no operation
fails.  Of 720 draws of this kind scanned with the library's own
``upsilon`` and ``theta_threshold``, the 29 that missed all had margins
below 4.6 mesh steps, every draw from 4.6 steps on passed, and 83 had
fewer than 20 steps.  The defect is not hidden: ``draw_lightly_damped``
gives one draw per run whose margin spans fewer than
``LIGHT_MESH_STEPS`` mesh steps, which the workload runs untimed and
reports beside the result.

The sizes cycle through ``SIZES``, every pairing of the state dimension
n in {2, 4} with the field dimension m in {2, 4, 6} that the library
accepts (with n = 4 and m = 2 it refuses every draw as degenerate), so
that a batch of five carries the same mix of sizes whatever the seed;
the matrices come from the seeded generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qefrate as q
from qefrate.errors import DegeneracyError, StabilityError
from qefrate.model import BJ2

#: (n, m) of the k-th model of a batch, cycling
SIZES = ((2, 2), (4, 4), (2, 4), (4, 6), (2, 6))
#: Least Hurwitz margin, in steps of the default mesh, of a timed draw.
MIN_MESH_STEPS = 20.0
#: Most Hurwitz margin, in mesh steps, of the run's lightly damped draw:
#: a resonance the default mesh cannot resolve.
LIGHT_MESH_STEPS = 2.0
#: Draws tried for one model before giving up.
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class DrawnModel:
    """One accepted draw, its file and the figures recorded for it."""

    path: Path
    ss: q.StateSpace
    n: int
    m: int
    hurwitz_margin: float
    nodes: int
    #: Hurwitz margin in steps of the default frequency mesh
    mesh_steps: float


def _physical_draw(rng: np.random.Generator, n: int, m: int) -> dict:
    if n == 2:
        theta = float(rng.uniform(0.3, 1.5)) * BJ2
    else:
        raw = rng.normal(size=(n, n))
        theta = 0.5 * (raw - raw.T)
    r = rng.normal(size=(n, n))
    gpi = rng.normal(size=(n, n))
    return {"theta": theta, "R": 0.5 * (r + r.T),
            "M": rng.normal(size=(m, n)),
            "Pi": gpi @ gpi.T + 0.5 * np.eye(n)}


def _draw(rng: np.random.Generator, k: int, path: Path) -> DrawnModel | None:
    """One draw of the k-th sizes, validated and written to ``path``;
    None if refused."""
    n, m = SIZES[k % len(SIZES)]
    mats = _physical_draw(rng, n, m)
    try:
        ss = q.realize(q.OqhoParams(theta_ccr=mats["theta"], energy=mats["R"],
                                    coupling=mats["M"], weight=mats["Pi"]))
    except (StabilityError, DegeneracyError):
        return None
    cfg = q.QuadratureConfig.for_system(ss)
    margin = ss.hurwitz_margin()
    path.write_text(json.dumps({key: v.tolist() for key, v in mats.items()}))
    return DrawnModel(path=path, ss=ss, n=n, m=m, hurwitz_margin=margin,
                      nodes=cfg.n_intervals + 1, mesh_steps=margin / cfg.step)


def draw_models(seed: int, count: int,
                out_dir: Path) -> tuple[list[DrawnModel], int, int]:
    """Draw ``count`` timed models; returns them, the number of refused
    draws and the number of lightly damped draws set aside."""
    rng = np.random.default_rng([seed, 20191107])
    out_dir.mkdir(parents=True, exist_ok=True)
    models, rejected, light = [], 0, 0
    while len(models) < count:
        if rejected + light >= count * MAX_DRAWS:
            raise RuntimeError(f"{len(models)} of {count} models in "
                               f"{rejected + light + len(models)} draws")
        md = _draw(rng, len(models), out_dir / f"model_{len(models):03d}.json")
        if md is None:
            rejected += 1
        elif md.mesh_steps < MIN_MESH_STEPS:
            light += 1
        else:
            models.append(md)
    return models, rejected, light


def draw_lightly_damped(seed: int, out_dir: Path) -> DrawnModel:
    """The first draw of the seed's own stream with fewer than
    ``LIGHT_MESH_STEPS`` mesh steps in its Hurwitz margin."""
    rng = np.random.default_rng([seed, 20191107, 1])
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(MAX_DRAWS):
        md = _draw(rng, k, out_dir / "lightly_damped.json")
        if md is not None and md.mesh_steps < LIGHT_MESH_STEPS:
            return md
    raise RuntimeError(f"no lightly damped draw in {MAX_DRAWS} draws")
