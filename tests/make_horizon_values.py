"""Write ``horizon_values.json``: frozen finite-horizon answers.

The file holds quantum and classical ``ln_xi`` and ``spec_value``, as
float hex, for

- the two-mode model at 0.1, 0.5 and 0.9 theta0, with T = 10, 20 and 40
  at 40 cells per unit time (orders 1600, 3200 and 6400);
- the first eight ``make_random_model`` draws of the seed-20260808 pool
  (the ``random_models`` fixture) at 0.1, 0.5 and 0.9 theta0, with T = 5
  and 10 at 40 cells per unit time.

``tests/test_horizon.py::TestFrozenValues`` recomputes every case and
compares.  The values were written by the packed-Cholesky evaluator and
kept when its storage changed, so a change to the evaluator shows as a
change against them.  Run from the repository root:

    PYTHONPATH=src python tests/make_horizon_values.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import qefrate as q

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import make_random_model  # noqa: E402

OUT = Path(__file__).resolve().parent / "horizon_values.json"
CELLS_PER_UNIT_TIME = 40
FRACTIONS = (0.1, 0.5, 0.9)
TWO_MODE_HORIZONS = (10.0, 20.0, 40.0)
RANDOM_HORIZONS = (5.0, 10.0)
RANDOM_DRAWS = 8


def models() -> list[tuple[str, q.StateSpace, tuple[float, ...]]]:
    """(name, model, horizons): two-mode, then the first eight draws of
    the seed-20260808 pool, in the order ``random_models`` keeps them."""
    rng = np.random.default_rng(20260808)
    out = [("two_mode", q.two_mode_example(), TWO_MODE_HORIZONS)]
    while len(out) < 1 + RANDOM_DRAWS:
        ss = make_random_model(rng)
        if ss is not None:
            out.append((f"random_{len(out) - 1}", ss, RANDOM_HORIZONS))
    return out


def cases():
    """Yield (model name, model, theta0 fraction, theta, horizon, n_grid,
    classical) for every frozen value."""
    for name, ss, horizons in models():
        theta0 = q.theta_threshold(ss, q.QuadratureConfig.for_system(ss))
        for frac in FRACTIONS:
            for horizon in horizons:
                for classical in (False, True):
                    yield (name, ss, frac, frac * theta0, horizon,
                           int(round(horizon * CELLS_PER_UNIT_TIME)),
                           classical)


def main() -> None:
    records = []
    for name, ss, frac, theta, horizon, n_grid, classical in cases():
        est = q.ln_xi(ss, theta, horizon, n_grid, max_dim=ss.n * n_grid,
                      classical=classical)
        records.append({"model": name, "fraction": frac,
                        "theta": theta.hex(), "horizon": horizon,
                        "n_grid": n_grid, "classical": classical,
                        "ln_xi": est.ln_xi.hex(),
                        "spec_value": est.spec_value.hex()})
        print(name, frac, horizon, "classical" * classical, est.ln_xi,
              est.spec_value, flush=True)
    OUT.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
