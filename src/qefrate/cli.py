"""Command-line front end.

Exit codes: 0 success, 2 model validation failure, 3 infeasible risk
parameter, 4 numerical failure.
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
from .quadrature import QuadratureConfig
from .spectral import grid_for
from .twomode import two_mode_example


def _exit_on_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ModelError as exc:
            click.echo(f"validation failure: {exc}", err=True)
            sys.exit(2)
        except FeasibilityError as exc:
            click.echo(f"infeasible risk parameter: {exc}", err=True)
            sys.exit(3)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(4)
    return wrapper


def _limit_threads(n: int | None) -> None:
    if n is None:
        return
    try:
        from threadpoolctl import threadpool_limits
        threadpool_limits(limits=n)
    except ImportError:
        click.echo("threadpoolctl not installed; --threads ignored", err=True)


def _get_model(model_path: str | None) -> StateSpace:
    if model_path is None:
        return two_mode_example()
    return load_model(model_path)


def _config(ss: StateSpace, cutoff: float | None, step: float | None) -> QuadratureConfig:
    """Resonance-placed panels, or uniform panels when ``step`` is given."""
    cfg = QuadratureConfig.for_system(ss)
    if cutoff is not None:
        cfg = dataclasses.replace(cfg, cutoff=cutoff)
    if step is not None:
        cfg = QuadratureConfig(cutoff=cfg.cutoff, step=step)
    return cfg


def _float_list(text: str, option: str) -> list[float]:
    """Comma-separated numbers; a non-numeric entry is a usage error."""
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=option) from None


def _all_converged(ss: StateSpace, thetas, cfg: QuadratureConfig) -> bool:
    """Whether Upsilon meets the quadrature tolerance at every feasible
    theta of ``thetas``."""
    for theta in thetas:
        try:
            if not rate_mod.upsilon(ss, float(theta), cfg).converged:
                return False
        except FeasibilityError:
            continue
    return True


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _eig_pairs(ss: StateSpace) -> list[list[float]]:
    """Drift eigenvalues as [real, imag] pairs."""
    return [[float(e.real), float(e.imag)] for e in ss.drift_eigenvalues]


def _manifest(command: str, model_path, out, **overrides) -> dict:
    used = {k: v for k, v in overrides.items() if v is not None}
    return {"command": command, "model": model_path, "out": str(out), **used}


model_option = click.option("--model", "model_path", type=click.Path(exists=True),
                            default=None, help="Model JSON; built-in two-mode "
                            "example when omitted.")
out_option = click.option("--out", default=".", show_default=True,
                          help="Output directory.")
cutoff_option = click.option("--cutoff", type=float, default=None,
                             help="Frequency where the mapped tail panel "
                             "of the quadrature starts.")
step_option = click.option("--step", type=float, default=None,
                           help="Node spacing of uniform quadrature panels, "
                           "replacing the resonance-placed ones.")
threads_option = click.option("--threads", type=int, default=None,
                              help="Cap BLAS thread count.")


@click.group()
@click.version_option(__version__)
def main():
    """Growth rates of quadratic-exponential costs for linear quantum models."""


@main.command()
@model_option
@out_option
@threads_option
@_exit_on_errors
def validate(model_path, out, threads):
    """Validate a model and report its structural diagnostics."""
    _limit_threads(threads)
    ss = _get_model(model_path)
    cfg = QuadratureConfig.for_system(ss)
    summary = {
        "command": "validate",
        "version": __version__,
        "model": model_path,
        "manifest": _manifest("validate", model_path, out),
        "pr_residual": ss.pr_residual(),
        "sigma_residual": ss.sigma_residual(),
        "hurwitz_margin": ss.hurwitz_margin(),
        "noise_det": ss.noise_det(),
        "theta0": rate_mod.theta_threshold(ss, cfg),
        "drift_eigenvalues": _eig_pairs(ss),
        "drift_norm": float(np.linalg.norm(ss.a, 2)),
        "status": "ok",
    }
    path = _out_dir(out) / "validate.json"
    write_summary(path, summary)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@main.command(name="rate")
@model_option
@click.option("--theta", type=float, required=True, help="Risk parameter.")
@out_option
@cutoff_option
@step_option
@threads_option
@_exit_on_errors
def rate_cmd(model_path, theta, out, cutoff, step, threads):
    """Growth rate at one risk parameter, with per-frequency CSV."""
    _limit_threads(threads)
    ss = _get_model(model_path)
    cfg = _config(ss, cutoff, step)
    theta0 = rate_mod.theta_threshold(ss, cfg)
    result = rate_mod.upsilon(ss, theta, cfg)
    lambdas, neg_ld, classical = rate_mod.frequency_profile(grid_for(ss, cfg),
                                                            theta)
    out_path = _out_dir(out)
    write_csv(out_path / "frequency_profile.csv",
              ["lambda", "neg_log_det_D", "classical_integrand"],
              zip(lambdas.tolist(), neg_ld.tolist(), classical.tolist()))
    summary = {
        "command": "rate",
        "version": __version__,
        "model": model_path,
        "manifest": _manifest("rate", model_path, out, theta=theta,
                              cutoff=cutoff, step=step),
        "theta": result.theta,
        "upsilon": result.upsilon,
        "classical_v": None if np.isnan(result.classical_v) else result.classical_v,
        "margin": result.margin,
        "tail_contrib": result.tail_contrib,
        "n_freq": result.n_freq,
        "rule": cfg.rule,
        "quad_error": result.quad_error,
        "theta0": theta0,
        "lqg_rate": rate_mod.lqg_rate(ss),
        "cutoff": cfg.cutoff,
        "step": cfg.step,
        "status": "ok" if result.converged else "quadrature-warning",
    }
    write_summary(out_path / "summary.json", summary)
    click.echo(f"upsilon({theta:g}) = {result.upsilon:.9g}")


@main.command()
@model_option
@click.option("--theta-max", type=float, default=None,
              help="Top of the sweep; defaults to 0.9 * theta0.")
@click.option("--points", type=click.IntRange(min=1), default=10,
              show_default=True)
@out_option
@cutoff_option
@step_option
@threads_option
@_exit_on_errors
def sweep(model_path, theta_max, points, out, cutoff, step, threads):
    """Growth rate over a grid of risk parameters."""
    _limit_threads(threads)
    ss = _get_model(model_path)
    cfg = _config(ss, cutoff, step)
    if theta_max is None:
        theta_max = 0.9 * rate_mod.theta_threshold(ss, cfg)
    if not 0.0 <= theta_max < math.inf:
        raise FeasibilityError("theta_max must be finite and nonnegative",
                               theta=theta_max)
    rows = []
    for theta in np.linspace(0.0, theta_max, points):
        try:
            res = rate_mod.upsilon(ss, float(theta), cfg)
            rows.append((float(theta), res.upsilon, res.classical_v,
                         res.margin,
                         "ok" if res.converged else "quadrature-warning"))
        except FeasibilityError:
            rows.append((float(theta), float("nan"), float("nan"),
                         float("nan"), "infeasible"))
    out_path = _out_dir(out)
    write_csv(out_path / "sweep.csv",
              ["theta", "upsilon", "classical_v", "margin", "status"], rows)
    warned = any(row[-1] == "quadrature-warning" for row in rows)
    write_summary(out_path / "summary.json", {
        "command": "sweep", "version": __version__, "model": model_path,
        "manifest": _manifest("sweep", model_path, out, theta_max=theta_max,
                              points=points, cutoff=cutoff, step=step),
        "theta": float(theta_max),
        "status": "quadrature-warning" if warned else "ok",
    })
    click.echo(f"wrote {len(rows)} rows to {out_path / 'sweep.csv'}")


@main.command(name="homotopy")
@model_option
@click.option("--theta-max", type=float, default=None,
              help="March target; defaults to 0.9 * theta0.")
@click.option("--dtheta", type=float, default=None,
              help="Step in theta; defaults to 0.01 * theta0.")
@out_option
@cutoff_option
@step_option
@threads_option
@_exit_on_errors
def homotopy_cmd(model_path, theta_max, dtheta, out, cutoff, step, threads):
    """Growth rate by the Riccati march in the risk parameter."""
    _limit_threads(threads)
    ss = _get_model(model_path)
    cfg = _config(ss, cutoff, step)
    theta0 = rate_mod.theta_threshold(ss, cfg)
    if theta_max is None:
        theta_max = 0.9 * theta0
    if dtheta is None:
        dtheta = 0.01 * theta0
    trace = homotopy_mod.rate_by_homotopy(ss, theta_max, dtheta, cfg)
    out_path = _out_dir(out)
    write_csv(out_path / "homotopy.csv",
              ["theta", "upsilon_prime", "upsilon"],
              zip(trace.theta_grid.tolist(), trace.rate_derivative.tolist(),
                  trace.rate.tolist()))
    write_summary(out_path / "summary.json", {
        "command": "homotopy", "version": __version__, "model": model_path,
        "manifest": _manifest("homotopy", model_path, out,
                              theta_max=theta_max, dtheta=dtheta,
                              cutoff=cutoff, step=step),
        "theta": float(theta_max), "theta0": theta0,
        "upsilon": float(trace.rate[-1]), "status": "ok",
    })
    click.echo(f"upsilon({theta_max:g}) = {trace.rate[-1]:.9g}")


@main.command(name="horizon")
@model_option
@click.option("--theta", type=float, required=True)
@click.option("--horizons", default="10,20", show_default=True,
              help="Comma-separated horizon list.")
@click.option("--dt", type=float, default=0.025, show_default=True,
              help="Time step of the kernel discretization.")
@click.option("--max-dim", type=int, default=horizon_mod.DEFAULT_MAX_DIM,
              show_default=True, help="Memory guard on the matrix order.")
@out_option
@threads_option
@_exit_on_errors
def horizon_cmd(model_path, theta, horizons, dt, max_dim, out, threads):
    """Finite-horizon oracle sweep with 1/T extrapolation."""
    _limit_threads(threads)
    ts = _float_list(horizons, "--horizons")
    ss = _get_model(model_path)
    if not ts:
        raise NumericalError("empty horizon list")
    if not all(0.0 < v < math.inf for v in [dt, *ts]):
        raise NumericalError("time step and horizons must be positive and finite")
    study = horizon_mod.convergence_study(ss, theta, ts,
                                          n_per_unit_time=int(round(1.0 / dt)),
                                          max_dim=max_dim)
    out_path = _out_dir(out)
    rows = [(e.horizon, e.n_grid, e.ln_xi, e.per_time_rate, e.spec_value,
             study.extrapolated_rate) for e in study.estimates]
    write_csv(out_path / "horizon.csv",
              ["T", "N", "ln_xi", "rate", "spec_value", "extrapolated_rate"],
              rows)
    write_summary(out_path / "summary.json", {
        "command": "horizon", "version": __version__, "model": model_path,
        "manifest": _manifest("horizon", model_path, out, theta=theta,
                              horizons=horizons, dt=dt, max_dim=max_dim),
        "theta": theta, "extrapolated_rate": study.extrapolated_rate,
        "status": "ok",
    })
    click.echo(f"extrapolated rate = {study.extrapolated_rate:.9g}")


@main.command()
@model_option
@click.option("--alpha", default="", help="Comma-separated tail levels.")
@click.option("--eps", default="", help="Comma-separated uncertainty budgets.")
@click.option("--theta-points", type=click.IntRange(min=1), default=30,
              show_default=True)
@out_option
@cutoff_option
@step_option
@threads_option
@_exit_on_errors
def bounds(model_path, alpha, eps, theta_points, out, cutoff, step, threads):
    """Tail decay-rate and worst-case cost bounds over parameter grids."""
    _limit_threads(threads)
    alphas = _float_list(alpha, "--alpha")
    epses = _float_list(eps, "--eps")
    # the domains tail_bound and worst_case_lqg_bound enforce
    if not all(0.0 < a < math.inf for a in alphas):
        raise click.BadParameter("tail levels must be positive and finite",
                                 param_hint="--alpha")
    if not all(0.0 <= e < math.inf for e in epses):
        raise click.BadParameter("budgets must be finite and nonnegative",
                                 param_hint="--eps")
    ss = _get_model(model_path)
    cfg = _config(ss, cutoff, step)
    theta0 = rate_mod.theta_threshold(ss, cfg)
    theta_grid = np.linspace(0.05, 0.95, theta_points) * theta0
    status = "ok" if _all_converged(ss, theta_grid, cfg) else "quadrature-warning"
    if not alphas:
        alphas = [rate_mod.lqg_rate(ss) * f for f in (1.0, 1.5, 2.0)]
    if not epses:
        epses = [0.0, 0.01, 0.1]
    rows_a, rows_e = [], []
    for a in alphas:
        try:
            rows_a.append((a, rate_mod.tail_bound(ss, a, theta_grid, cfg), status))
        except FeasibilityError:
            rows_a.append((a, float("nan"), "infeasible"))
    for e in epses:
        try:
            rows_e.append((e, rate_mod.worst_case_lqg_bound(ss, e, theta_grid, cfg),
                           status))
        except FeasibilityError:
            rows_e.append((e, float("nan"), "infeasible"))
    out_path = _out_dir(out)
    write_csv(out_path / "tail_bounds.csv", ["alpha", "bound", "status"], rows_a)
    write_csv(out_path / "worst_case_bounds.csv", ["eps", "bound", "status"],
              rows_e)
    write_summary(out_path / "summary.json", {
        "command": "bounds", "version": __version__, "model": model_path,
        "manifest": _manifest("bounds", model_path, out, alpha=alpha or None,
                              eps=eps or None, theta_points=theta_points,
                              cutoff=cutoff, step=step),
        "theta0": theta0, "status": status,
    })
    click.echo(f"wrote bounds for {len(rows_a)} tail levels, "
               f"{len(rows_e)} budgets")


@main.command(name="onemode-check")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=100,
              show_default=True)
@out_option
@threads_option
@_exit_on_errors
def onemode_check(seed, samples, out, threads):
    """Cross-check the generic pipeline against single-mode closed forms."""
    _limit_threads(threads)
    rng = np.random.default_rng(seed)
    params = onemode_mod.random_params(rng)
    lams = rng.uniform(-8.0, 8.0, size=samples)
    dev_psi, dev_trig = onemode_mod.generic_deviation(
        params, lams, 0.3 / (1.0 + np.abs(lams)))
    res_dets = [abs(np.linalg.det(onemode_mod.residue_at(params.mu, params.nu, p)))
                for p in onemode_mod.poles(params.mu, params.nu)]
    summary = {
        "command": "onemode-check", "version": __version__, "model": None,
        "manifest": _manifest("onemode-check", None, out, seed=seed,
                              samples=samples),
        "max_dev": {"psi": dev_psi, "trig": dev_trig,
                    "residue_det": max(res_dets)},
        "status": "ok" if max(dev_psi, dev_trig) < 1e-10
                  and max(res_dets) < 1e-6 else "mismatch",
    }
    write_summary(_out_dir(out) / "summary.json", summary)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    if summary["status"] != "ok":
        sys.exit(4)


@main.command()
@click.option("--dtheta-frac", type=float, default=0.01, show_default=True,
              help="Theta step as a fraction of theta0.")
@out_option
@cutoff_option
@step_option
@threads_option
@_exit_on_errors
def example(out, dtheta_frac, cutoff, step, threads):
    """Reproduce the two-mode example artifacts.

    Writes logdet_profile.csv (per-frequency integrand at 0.9 theta0 with
    its high-frequency asymptote), rate_curve.csv (growth rate by the
    direct quadrature and by the Riccati march), and summary.json.
    """
    _limit_threads(threads)
    ss = two_mode_example()
    cfg = _config(ss, cutoff, step)
    theta0 = rate_mod.theta_threshold(ss, cfg)
    theta_hi = 0.9 * theta0
    out_path = _out_dir(out)

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
    write_summary(out_path / "summary.json", {
        "command": "example", "version": __version__, "model": None,
        "manifest": _manifest("example", None, out, dtheta_frac=dtheta_frac,
                              cutoff=cutoff, step=step),
        "theta0": theta0,
        "drift_eigenvalues": _eig_pairs(ss),
        "drift_norm": float(np.linalg.norm(ss.a, 2)),
        "lqg_rate": rate_mod.lqg_rate(ss),
        "cross_method_gap": gap,
        "cutoff": cfg.cutoff, "step": cfg.step,
        "status": "ok" if all(r.converged for r in results)
                  else "quadrature-warning",
    })
    click.echo(f"theta0 = {theta0:.6g}, cross-method gap = {gap:.3g}")


if __name__ == "__main__":
    main()
