"""Command-line front end.

Every command is registered through ``_command``, the one place that
holds what the commands share: the ``--model``, ``--out`` and
``--cutoff`` options and the exit-code map ``_EXITS``: 0 success,
2 model validation failure, 3 infeasible risk parameter, 4 numerical
failure.  A command body receives a ``_Run``, whose ``setup`` loads the
model, its quadrature rule and theta0, and whose ``summary`` writes every
summary under the one header (command, version, model and the manifest
of the options used).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import homotopy as homotopy_mod
from . import horizon as horizon_mod
from . import onemode as onemode_mod
from . import rate as rate_mod
from .errors import FeasibilityError, ModelError, NumericalError
from .io import load_model, write_csv, write_summary
from .model import StateSpace
from .quadrature import RULE, QuadratureConfig
from .spectral import grid_for
from .twomode import two_mode_example

#: Exit code and stderr label of each error branch of the package.
_EXITS = {ModelError: (2, "validation failure"),
          FeasibilityError: (3, "infeasible risk parameter"),
          NumericalError: (4, "numerical failure")}


def _status(converged: bool) -> str:
    """Status of an answer that met the quadrature tolerance, or missed it."""
    return "ok" if converged else "quadrature-warning"


@dataclasses.dataclass(frozen=True)
class _Run:
    """One invocation of a command: its name and its options."""

    command: str
    params: dict

    def model(self) -> StateSpace:
        """The ``--model`` file, or the built-in two-mode example."""
        path = self.params.get("model_path")
        return two_mode_example() if path is None else load_model(path)

    def setup(self) -> tuple[StateSpace, QuadratureConfig, float]:
        """The model, its quadrature rule (resonance-placed panels, the
        tail from ``--cutoff``) and theta0."""
        ss = self.model()
        cfg = QuadratureConfig.for_system(ss)
        cutoff = self.params.get("cutoff")
        if cutoff is not None:
            cfg = dataclasses.replace(cfg, cutoff=cutoff)
        return ss, cfg, rate_mod.theta_threshold(ss, cfg)

    def out_dir(self) -> Path:
        path = Path(self.params["out"])
        path.mkdir(parents=True, exist_ok=True)
        return path

    def summary(self, fields: dict, name: str = "summary.json",
                **resolved) -> dict:
        """Write ``fields`` under the common header and return the summary;
        ``resolved`` holds options the command filled in from defaults."""
        model = self.params.get("model_path")
        used = {k: v for k, v in {**self.params, **resolved}.items()
                if k not in ("model_path", "out") and v not in (None, "")}
        summary = {"command": self.command, "version": __version__,
                   "model": model,
                   "manifest": {"command": self.command, "model": model,
                                "out": str(self.params["out"]), **used},
                   **fields}
        write_summary(self.out_dir() / name, summary)
        return summary


def _float_list(text: str, option: str) -> list[float]:
    """Comma-separated numbers; a non-numeric entry is a usage error."""
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=option) from None


def _feasible(func, *args):
    """``func(*args)``, or None where the risk parameter is infeasible."""
    try:
        return func(*args)
    except FeasibilityError:
        return None


def _drift(ss: StateSpace) -> dict:
    """Drift eigenvalues as [real, imag] pairs, and the drift's 2-norm."""
    return {"drift_eigenvalues": [[float(e.real), float(e.imag)]
                                  for e in ss.drift_eigenvalues],
            "drift_norm": float(np.linalg.norm(ss.a, 2))}


model_option = click.option("--model", "model_path", type=click.Path(exists=True),
                            default=None, help="Model JSON; built-in two-mode "
                            "example when omitted.")
out_option = click.option("--out", default=".", show_default=True,
                          help="Output directory.")
cutoff_option = click.option("--cutoff", type=float, default=None,
                             help="Frequency where the mapped tail panel "
                             "of the quadrature starts.")


@click.group()
@click.version_option(__version__)
def main():
    """Growth rates of quadratic-exponential costs for linear quantum models."""


def _command(name: str, *options, model: bool = True, rule: bool = False):
    """Register a command body under ``name``.

    Its options read --model (when ``model``), its own ``options``, --out
    and --cutoff (when ``rule``).  The body gets a ``_Run`` and its own
    options by keyword; a package error it raises exits with the code
    ``_EXITS`` gives it.
    """
    stack = [*([model_option] if model else []), *options, out_option,
             *([cutoff_option] if rule else [])]

    def register(body):
        @functools.wraps(body)
        def callback(**params):
            own = {k: v for k, v in params.items()
                   if k not in ("model_path", "out", "cutoff")}
            try:
                return body(_Run(name, params), **own)
            except tuple(_EXITS) as exc:
                code, label = next(v for kind, v in _EXITS.items()
                                   if isinstance(exc, kind))
                click.echo(f"{label}: {exc}", err=True)
                sys.exit(code)

        for option in reversed(stack):
            callback = option(callback)
        return main.command(name=name)(callback)
    return register


@_command("validate")
def validate(run):
    """Validate a model and report its structural diagnostics."""
    ss, _, theta0 = run.setup()
    summary = run.summary({
        "pr_residual": ss.pr_residual(),
        "sigma_residual": ss.sigma_residual(),
        "hurwitz_margin": ss.hurwitz_margin(),
        "noise_det": ss.noise_det(),
        "theta0": theta0,
        **_drift(ss),
        "status": "ok",
    }, name="validate.json")
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@_command("rate", click.option("--theta", type=float, required=True,
                               help="Risk parameter."), rule=True)
def rate_cmd(run, theta):
    """Growth rate at one risk parameter, with per-frequency CSV."""
    ss, cfg, theta0 = run.setup()
    result = rate_mod.upsilon(ss, theta, cfg)
    lambdas, neg_ld, classical = rate_mod.frequency_profile(grid_for(ss, cfg),
                                                            theta)
    write_csv(run.out_dir() / "frequency_profile.csv",
              ["lambda", "neg_log_det_D", "classical_integrand"],
              zip(lambdas.tolist(), neg_ld.tolist(), classical.tolist()))
    run.summary({
        "theta": result.theta,
        "upsilon": result.upsilon,
        "classical_v": None if np.isnan(result.classical_v) else result.classical_v,
        "margin": result.margin,
        "tail_contrib": result.tail_contrib,
        "n_freq": result.n_freq,
        "rule": RULE,
        "quad_error": result.quad_error,
        "theta0": theta0,
        "lqg_rate": rate_mod.lqg_rate(ss),
        "cutoff": cfg.cutoff,
        "status": _status(result.converged),
    })
    click.echo(f"upsilon({theta:g}) = {result.upsilon:.9g}")


@_command("sweep",
          click.option("--theta-max", type=float, default=None,
                       help="Top of the sweep; defaults to 0.9 * theta0."),
          click.option("--points", type=click.IntRange(min=1), default=10,
                       show_default=True), rule=True)
def sweep(run, theta_max, points):
    """Growth rate over a grid of risk parameters."""
    ss, cfg, theta0 = run.setup()
    if theta_max is None:
        theta_max = 0.9 * theta0
    if not 0.0 <= theta_max < math.inf:
        raise FeasibilityError("theta_max must be finite and nonnegative",
                               theta=theta_max)
    rows = []
    for theta in map(float, np.linspace(0.0, theta_max, points)):
        res = _feasible(rate_mod.upsilon, ss, theta, cfg)
        rows.append((theta, math.nan, math.nan, math.nan, "infeasible")
                    if res is None else (theta, res.upsilon, res.classical_v,
                                         res.margin, _status(res.converged)))
    out_path = run.out_dir()
    write_csv(out_path / "sweep.csv",
              ["theta", "upsilon", "classical_v", "margin", "status"], rows)
    warned = any(row[-1] == _status(False) for row in rows)
    run.summary({"theta": float(theta_max), "status": _status(not warned)},
                theta_max=theta_max)
    click.echo(f"wrote {len(rows)} rows to {out_path / 'sweep.csv'}")


@_command("homotopy",
          click.option("--theta-max", type=float, default=None,
                       help="March target; defaults to 0.9 * theta0."),
          click.option("--dtheta", type=float, default=None,
                       help="Step in theta; defaults to 0.01 * theta0."),
          rule=True)
def homotopy_cmd(run, theta_max, dtheta):
    """Growth rate by the Riccati march in the risk parameter."""
    ss, cfg, theta0 = run.setup()
    if theta_max is None:
        theta_max = 0.9 * theta0
    if dtheta is None:
        dtheta = 0.01 * theta0
    trace = homotopy_mod.rate_by_homotopy(ss, theta_max, dtheta, cfg)
    write_csv(run.out_dir() / "homotopy.csv",
              ["theta", "upsilon_prime", "upsilon"],
              zip(trace.theta_grid.tolist(), trace.rate_derivative.tolist(),
                  trace.rate.tolist()))
    run.summary({"theta": float(theta_max), "theta0": theta0,
                 "upsilon": float(trace.rate[-1]), "status": "ok"},
                theta_max=theta_max, dtheta=dtheta)
    click.echo(f"upsilon({theta_max:g}) = {trace.rate[-1]:.9g}")


@_command("horizon",
          click.option("--theta", type=float, required=True),
          click.option("--horizons", default="10,20", show_default=True,
                       help="Comma-separated horizon list."),
          click.option("--dt", type=float, default=0.025, show_default=True,
                       help="Time step of the kernel discretization, "
                       "1/N for a whole number N."),
          click.option("--max-dim", type=int,
                       default=horizon_mod.DEFAULT_MAX_DIM, show_default=True,
                       help="Largest discretization order; it bounds a "
                       "run, whose time grows as the square of the order."))
def horizon_cmd(run, theta, horizons, dt, max_dim):
    """Finite-horizon oracle sweep with 1/T extrapolation."""
    ts = _float_list(horizons, "--horizons")
    ss = run.model()
    if not all(0.0 < v < math.inf for v in [dt, *ts]):
        raise NumericalError("time step and horizons must be positive and finite")
    per_unit = 1.0 / dt
    cells = round(per_unit)
    if abs(per_unit - cells) > 1e-9 * per_unit:
        near = min({max(1, math.floor(per_unit)), math.ceil(per_unit)},
                   key=lambda k: abs(1.0 / k - dt))
        raise click.BadParameter(
            f"{dt:g} is not 1/N for a whole number N of cells per unit time; "
            f"the nearest valid step is 1/{near} = {1.0 / near:g}",
            param_hint="--dt")
    study = horizon_mod.convergence_study(ss, theta, ts, n_per_unit_time=cells,
                                          max_dim=max_dim)
    rows = [(e.horizon, e.n_grid, e.ln_xi, e.per_time_rate, e.spec_value,
             study.extrapolated_rate) for e in study.estimates]
    write_csv(run.out_dir() / "horizon.csv",
              ["T", "N", "ln_xi", "rate", "spec_value", "extrapolated_rate"],
              rows)
    run.summary({"theta": theta, "extrapolated_rate": study.extrapolated_rate,
                 "status": "ok"})
    click.echo(f"extrapolated rate = {study.extrapolated_rate:.9g}")


@_command("bounds",
          click.option("--alpha", default="", help="Comma-separated tail levels."),
          click.option("--eps", default="",
                       help="Comma-separated uncertainty budgets."),
          click.option("--theta-points", type=click.IntRange(min=1), default=30,
                       show_default=True), rule=True)
def bounds(run, alpha, eps, theta_points):
    """Tail decay-rate and worst-case cost bounds over parameter grids."""
    alphas = _float_list(alpha, "--alpha")
    epses = _float_list(eps, "--eps")
    # the domains tail_bound and worst_case_lqg_bound enforce
    if not all(0.0 < a < math.inf for a in alphas):
        raise click.BadParameter("tail levels must be positive and finite",
                                 param_hint="--alpha")
    if not all(0.0 <= e < math.inf for e in epses):
        raise click.BadParameter("budgets must be finite and nonnegative",
                                 param_hint="--eps")
    ss, cfg, theta0 = run.setup()
    theta_grid = np.linspace(0.05, 0.95, theta_points) * theta0
    status = _status(rate_mod.curve_converged(ss, theta_grid, cfg))
    if not alphas:
        alphas = [rate_mod.lqg_rate(ss) * f for f in (1.0, 1.5, 2.0)]
    if not epses:
        epses = [0.0, 0.01, 0.1]

    def rows(bound, levels):
        found = [(x, _feasible(bound, ss, x, theta_grid, cfg)) for x in levels]
        return [(x, math.nan, "infeasible") if b is None else (x, b, status)
                for x, b in found]
    rows_a = rows(rate_mod.tail_bound, alphas)
    rows_e = rows(rate_mod.worst_case_lqg_bound, epses)
    out_path = run.out_dir()
    write_csv(out_path / "tail_bounds.csv", ["alpha", "bound", "status"], rows_a)
    write_csv(out_path / "worst_case_bounds.csv", ["eps", "bound", "status"],
              rows_e)
    run.summary({"theta0": theta0, "status": status})
    click.echo(f"wrote bounds for {len(rows_a)} tail levels, "
               f"{len(rows_e)} budgets")


@_command("onemode-check",
          click.option("--seed", type=int, default=0, show_default=True),
          click.option("--samples", type=click.IntRange(min=1), default=100,
                       show_default=True), model=False)
def onemode_check(run, seed, samples):
    """Cross-check the generic pipeline against single-mode closed forms."""
    rng = np.random.default_rng(seed)
    params = onemode_mod.random_params(rng)
    lams = rng.uniform(-8.0, 8.0, size=samples)
    dev_psi, dev_trig = onemode_mod.generic_deviation(
        params, lams, 0.3 / (1.0 + np.abs(lams)))
    res_dets = [abs(np.linalg.det(onemode_mod.residue_at(params.mu, params.nu, p)))
                for p in onemode_mod.poles(params.mu, params.nu)]
    matched = max(dev_psi, dev_trig) < 1e-10 and max(res_dets) < 1e-6
    summary = run.summary({
        "max_dev": {"psi": dev_psi, "trig": dev_trig,
                    "residue_det": max(res_dets)},
        "status": "ok" if matched else "mismatch",
    })
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    if not matched:
        raise NumericalError("generic pipeline departs from the closed forms")


@_command("example",
          click.option("--dtheta-frac", type=float, default=0.01,
                       show_default=True,
                       help="Theta step as a fraction of theta0."),
          model=False, rule=True)
def example(run, dtheta_frac):
    """Reproduce the two-mode example artifacts.

    Writes logdet_profile.csv (per-frequency integrand at 0.9 theta0 with
    its high-frequency asymptote), rate_curve.csv (growth rate by the
    direct quadrature and by the Riccati march), and summary.json.
    """
    ss, cfg, theta0 = run.setup()
    theta_hi = 0.9 * theta0
    out_path = run.out_dir()

    lambdas, neg_ld, _ = rate_mod.frequency_profile(grid_for(ss, cfg), theta_hi)
    tail_coeff = ss.lqg_weight_trace()
    with np.errstate(divide="ignore"):
        asym = np.where(lambdas > 0, theta_hi * tail_coeff / lambdas ** 2,
                        float("inf"))
    write_csv(out_path / "logdet_profile.csv",
              ["lambda", "neg_log_det_D", "asymptote"],
              zip(lambdas.tolist(), neg_ld.tolist(), asym.tolist()))

    dtheta = dtheta_frac * theta0
    trace = homotopy_mod.rate_by_homotopy(ss, theta_hi, dtheta, cfg)
    results = [rate_mod.upsilon(ss, float(t), cfg) for t in trace.theta_grid]
    direct = np.array([r.upsilon for r in results])
    write_csv(out_path / "rate_curve.csv",
              ["theta", "upsilon_homotopy", "upsilon_direct"],
              zip(trace.theta_grid.tolist(), trace.rate.tolist(),
                  direct.tolist()))

    nonzero = trace.theta_grid > 0
    gap = float(np.max(np.abs(trace.rate[nonzero] - direct[nonzero])
                       / np.abs(direct[nonzero])))
    run.summary({
        "theta0": theta0,
        **_drift(ss),
        "lqg_rate": rate_mod.lqg_rate(ss),
        "cross_method_gap": gap,
        "cutoff": cfg.cutoff,
        "status": _status(all(r.converged for r in results)),
    })
    click.echo(f"theta0 = {theta0:.6g}, cross-method gap = {gap:.3g}")


if __name__ == "__main__":
    main()
