"""The four benchmark workloads: inputs, job lists and the correctness gate.

A workload is built in two stages.  The constructor is the set-up a user
pays before the first answer (models and quadrature configurations, built
and validated by the library).  ``prepare`` then computes the benchmark's
own references and fixes the job list; it is not part of set-up.  A pass
runs the fixed job list once; the runner repeats passes for the run's
time budget.  ``check`` judges every answer of a pass.

Each check returns a ``Verdict``: ``flag`` is the program's own failure
signal (a non-zero exit, a summary status other than "ok", an
unconverged quadrature) and ``misses`` lists reference tolerances the
answer missed.  A job fails if either is set.  A miss without a flag is a
silent wrong answer.

Tolerances: V within 1e-6 relative of the CARE reference (the library's
QUAD_AGREEMENT), theta0 within 1e-9, Upsilon nondecreasing in theta and
below V, march vs direct Upsilon within 1e-3 at 0.1..0.9 theta0, horizon
per-time errors decreasing in T with the 1/T extrapolation within 2%.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

import qefrate as q

import modelgen
import oracle
from probes import SweepProbe

V_TOL = 1e-6
THETA0_TOL = 1e-9
MARCH_TOL = 1e-3
HORIZON_TOL = 0.02


@dataclass(frozen=True)
class Job:
    kind: str
    call: Callable[[], object]
    theta: float | None = None
    #: whether the job counts in the median job latency
    in_p50: bool = True


@dataclass
class Verdict:
    flag: str | None = None
    misses: list[str] = field(default_factory=list)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _miss_if(cond: bool, text: str, misses: list[str]) -> None:
    if cond:
        misses.append(text)


def _refs(ss: q.StateSpace) -> dict:
    """theta0 and the mean-square rate from the state-space oracles."""
    sigma = solve_continuous_lyapunov(ss.a, -ss.b @ ss.b.T)
    return {"theta0": oracle.theta_threshold(ss.a, ss.b, ss.weight),
            "lqg": 0.5 * float(np.trace(ss.weight @ sigma))}


def _v_ref(ss: q.StateSpace, theta: float) -> float:
    return oracle.classical_v(ss.a, ss.b, ss.weight, theta)


def _check_rate(res: q.RateResult, v: float) -> Verdict:
    out = Verdict(None if res.converged else "quadrature-warning")
    _miss_if(_rel(res.classical_v, v) > V_TOL,
             f"V off by {_rel(res.classical_v, v):.2e} at theta {res.theta:.6g}",
             out.misses)
    _miss_if(not 0.0 < res.upsilon < v,
             f"Upsilon {res.upsilon:.9g} not in (0, V={v:.9g})", out.misses)
    return out


class TwoModeCurve:
    """Many answers on one model: threshold, an Upsilon curve at seeded
    theta values, small-theta expansions and both bounds.

    ``rate`` and ``spectral`` do almost all the work, and every answer
    shares one model, so per-model caching and cheaper quadrature show
    here first.
    """

    name = "twomode-curve"
    probe = SweepProbe

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        self.ss = q.two_mode_example()
        self.cfg = q.QuadratureConfig.for_system(self.ss)

    def prepare(self) -> None:
        ss = self.ss
        ref = _refs(ss)
        th0, rng = ref["theta0"], np.random.default_rng([self.seed, 1])
        self.small = [th0 / 8.0, th0 / 16.0, th0 / 32.0]
        drawn = rng.uniform(0.0, 0.95 * th0, size=1 if self.tiny else 5)
        self.thetas = self.small + [float(t) for t in drawn if t > 0.0]
        self.v = {t: _v_ref(ss, t) for t in self.thetas}
        grid_pts = 3 if self.tiny else 10
        self.bound_grid = np.linspace(0.05, 0.95, grid_pts) * th0
        self.grid_v = [_v_ref(ss, float(t)) for t in self.bound_grid]
        # fixed levels: the bounds' refinement cost depends on them, and a
        # seeded level would make the pass time depend on the seed
        self.alpha = 1.5 * ref["lqg"]
        self.eps = 0.05
        self.ref = ref

    def jobs(self, pass_index: int) -> list[Job]:
        ss, cfg = self.ss, self.cfg
        jobs = [Job("theta_threshold", lambda: q.theta_threshold(ss, cfg))]
        jobs += [Job("upsilon", lambda t=t: q.upsilon(ss, t, cfg), t)
                 for t in self.thetas]
        jobs += [Job("small_theta_expansion",
                     lambda t=t: q.small_theta_expansion(ss, t, cfg), t)
                 for t in self.small]
        jobs.append(Job("tail_bound", lambda: q.tail_bound(
            ss, self.alpha, self.bound_grid, cfg)))
        jobs.append(Job("worst_case_lqg_bound", lambda: q.worst_case_lqg_bound(
            ss, self.eps, self.bound_grid, cfg)))
        return jobs

    def check(self, jobs: list[Job], answers: list) -> list[Verdict]:
        th0, lqg = self.ref["theta0"], self.ref["lqg"]
        verdicts = [Verdict() for _ in jobs]
        ups = {}
        for i, (job, ans) in enumerate(zip(jobs, answers)):
            if ans is None:
                continue
            if job.kind == "theta_threshold":
                _miss_if(_rel(ans, th0) > THETA0_TOL,
                         f"theta0 off by {_rel(ans, th0):.2e}", verdicts[i].misses)
            elif job.kind == "upsilon":
                verdicts[i] = _check_rate(ans, self.v[job.theta])
                ups[job.theta] = (i, ans.upsilon)
        # Upsilon nondecreasing in theta across the curve
        prev = -math.inf
        for t in sorted(ups):
            i, u = ups[t]
            _miss_if(u < prev, f"Upsilon decreases at theta {t:.6g}",
                     verdicts[i].misses)
            prev = max(prev, u)
        theta_max = float(self.bound_grid[-1])
        ratios = []
        for i, (job, ans) in enumerate(zip(jobs, answers)):
            if ans is None:
                continue
            if job.kind == "small_theta_expansion":
                _miss_if(not ans < self.v[job.theta], "expansion not below V",
                         verdicts[i].misses)
                if job.theta in ups:
                    ratios.append(abs(ups[job.theta][1] - ans) / job.theta ** 3)
            elif job.kind == "tail_bound":
                lo = (lqg - self.alpha) * theta_max
                hi = min(v - self.alpha * t
                         for v, t in zip(self.grid_v, self.bound_grid))
                _miss_if(not lo <= ans <= hi,
                         f"tail bound {ans:.6g} outside [{lo:.6g}, {hi:.6g}]",
                         verdicts[i].misses)
            elif job.kind == "worst_case_lqg_bound":
                lo = 2.0 * (lqg + self.eps / theta_max)
                hi = 2.0 * min((self.eps + v) / t
                               for v, t in zip(self.grid_v, self.bound_grid))
                _miss_if(not lo <= ans <= hi,
                         f"worst-case bound {ans:.6g} outside [{lo:.6g}, {hi:.6g}]",
                         verdicts[i].misses)
        # third-order expansion error |Upsilon - E| / theta^3 must not grow
        # as theta shrinks (acceptance criterion 8); it is charged to the
        # expansion at the largest theta
        if len(ratios) == 3 and max(ratios[1:]) > 2.0 * ratios[0] + 1e-9:
            first = next(i for i, j in enumerate(jobs)
                         if j.kind == "small_theta_expansion")
            verdicts[first].misses.append(
                "expansion error/theta^3 grows as theta shrinks: "
                + ", ".join(f"{r:.3e}" for r in ratios))
        return verdicts

    def info(self) -> dict:
        return {"nodes": self.cfg.n_intervals + 1, "thetas": self.thetas,
                "alpha": self.alpha, "eps": self.eps,
                "bound_grid_points": len(self.bound_grid)}


class TwoModeMarch:
    """One Riccati march to 0.9 theta0 in steps of 0.01 theta0, checked
    against the direct route.

    ``homotopy`` dominates and ``rate`` does almost nothing in the timed
    phase, so a rate-only optimisation should leave this workload
    unchanged.
    """

    name = "twomode-march"
    probe = None

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.tiny = tiny
        self.ss = q.two_mode_example()
        self.cfg = q.QuadratureConfig.for_system(self.ss)

    def prepare(self) -> None:
        th0 = _refs(self.ss)["theta0"]
        self.d_theta = 0.01 * th0
        fracs = [0.1, 0.2] if self.tiny else [0.1 * k for k in range(1, 10)]
        self.theta_max = fracs[-1] * th0
        n_steps = int(math.ceil(self.theta_max / self.d_theta - 1e-12))
        self.points = [int(round(f / 0.01)) for f in fracs]
        grid = np.linspace(0.0, self.theta_max, n_steps + 1)
        # the direct route is the program's own answer, computed once per
        # run outside the timed phase and itself checked against V
        spectra = q.sample_grid(self.ss, self.cfg.lambdas())
        self.direct = {k: q.upsilon_from_grid(spectra, float(grid[k]), self.cfg)
                       for k in self.points}
        self.v = {k: _v_ref(self.ss, float(grid[k])) for k in self.points}

    def jobs(self, pass_index: int) -> list[Job]:
        return [Job("rate_by_homotopy", lambda: q.rate_by_homotopy(
            self.ss, self.theta_max, self.d_theta, self.cfg))]

    def check(self, jobs: list[Job], answers: list) -> list[Verdict]:
        trace = answers[0]
        out = Verdict()
        if trace is None:
            return [out]
        prev = -math.inf
        for k in self.points:
            direct = self.direct[k]
            out.misses += _check_rate(direct, self.v[k]).misses
            if not math.isclose(trace.theta_grid[k], direct.theta, rel_tol=1e-12):
                out.misses.append(f"march grid point {k} at theta "
                                  f"{trace.theta_grid[k]:.9g}, expected {direct.theta:.9g}")
                continue
            u = float(trace.rate[k])
            _miss_if(_rel(u, direct.upsilon) > MARCH_TOL,
                     f"march vs direct {_rel(u, direct.upsilon):.2e} at step {k}",
                     out.misses)
            _miss_if(not u < self.v[k], f"march Upsilon not below V at step {k}",
                     out.misses)
            _miss_if(u < prev, f"march Upsilon decreases at step {k}", out.misses)
            prev = u
        return [out]

    def info(self) -> dict:
        return {"nodes": self.cfg.n_intervals + 1,
                "steps": int(round(self.theta_max / self.d_theta))}


class TwoModeHorizon:
    """Finite-horizon oracle at 0.5 theta0, horizons 10 and 20 at 40 cells
    per unit time (orders 1600 and 3200), quantum and classical.

    No frequency-domain work is timed: horizon assembly, eigensolves and
    the Cholesky factor show here, every frequency-domain change should
    show no change, and this workload sets the largest peak memory.
    """

    name = "twomode-horizon"
    probe = None

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.ss = q.two_mode_example()
        self.cfg = q.QuadratureConfig.for_system(self.ss)
        self.horizons = [2.0, 4.0] if tiny else [10.0, 20.0]

    def prepare(self) -> None:
        self.theta = 0.5 * _refs(self.ss)["theta0"]
        self.direct = q.upsilon(self.ss, self.theta, self.cfg)
        self.v = _v_ref(self.ss, self.theta)

    def jobs(self, pass_index: int) -> list[Job]:
        return [Job(f"convergence_study{'_classical' * cl}",
                    lambda cl=cl: q.convergence_study(
                        self.ss, self.theta, self.horizons,
                        n_per_unit_time=40, classical=cl))
                for cl in (False, True)]

    def check(self, jobs: list[Job], answers: list) -> list[Verdict]:
        verdicts = []
        for job, study in zip(jobs, answers):
            out = Verdict()
            verdicts.append(out)
            if study is None:
                continue
            if job.kind.endswith("_classical"):
                target = self.v
            else:
                out.misses += _check_rate(self.direct, self.v).misses
                target = self.direct.upsilon
            errors = [_rel(e.per_time_rate, target) for e in study.estimates]
            _miss_if(any(b >= a for a, b in zip(errors, errors[1:])),
                     "horizon errors not decreasing: "
                     + ", ".join(f"{e:.2e}" for e in errors), out.misses)
            err = _rel(study.extrapolated_rate, target)
            _miss_if(err > HORIZON_TOL, f"extrapolated rate off by {err:.2e}",
                     out.misses)
        return verdicts

    def info(self) -> dict:
        return {"horizons": self.horizons, "cells_per_unit_time": 40,
                "orders": [int(self.ss.n * 40 * t) for t in self.horizons]}


class ModelBatch:
    """Seeded random models, few answers each, all through the CLI.

    Every CLI call loads its model from its file, so nothing carries over
    from one answer to the next and per-model caching is bypassed.  Each
    pass runs the same batch, so passes repeat one job list.  This is the
    only workload that times model validation, model files, the CSV and
    schema-validated summary writers and the CLI.

    The timed batch holds no lightly damped draw (see ``modelgen``), so no
    job fails.  One such draw per run goes through ``validate`` and
    ``rate`` untimed, and its verdicts are reported under
    ``known_defect`` without counting in the result: they show whether
    the frequency mesh resolves sharp resonances.
    """

    name = "model-batch"
    probe = SweepProbe
    batch = len(modelgen.SIZES)

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.seed, self.out_dir = seed, out_dir
        # the CLI is imported here: only this workload's users pay for it
        from click.testing import CliRunner
        from qefrate import cli

        self.models, self.rejected, self.set_aside = modelgen.draw_models(
            seed, 2 if tiny else self.batch, out_dir / "models")
        self.runner, self.main = CliRunner(), cli.main

    def prepare(self) -> None:
        self.theta0, self.theta, self.v = [], [], []
        for md in self.models:
            th0 = _refs(md.ss)["theta0"]
            self.theta0.append(th0)
            self.theta.append(0.5 * th0)
            self.v.append(_v_ref(md.ss, 0.5 * th0))
        self.known_defect = self._lightly_damped()

    def _lightly_damped(self) -> dict:
        """Run the seed's lightly damped draw through ``validate`` and
        ``rate`` once and judge both answers like the timed ones."""
        md = modelgen.draw_lightly_damped(self.seed, self.out_dir / "light")
        th0 = _refs(md.ss)["theta0"]
        v = _v_ref(md.ss, 0.5 * th0)
        base = self.out_dir / "light"
        found = {"n": md.n, "m": md.m, "hurwitz_margin": md.hurwitz_margin,
                 "mesh_steps": md.mesh_steps}
        for cmd, extra in (("validate", []), ("rate", ["--theta", repr(0.5 * th0)])):
            try:
                res = self._cli(cmd, "--model", str(md.path), *extra,
                                "--out", str(base))
                verdict = self._judge(cmd, res, base, th0, v)
            except Exception as exc:  # reported, never fatal
                verdict = Verdict(f"raised {type(exc).__name__}: {exc}")
            found[cmd] = "; ".join(([verdict.flag] if verdict.flag else [])
                                   + verdict.misses) or "ok"
        return found

    def _cli(self, *args: str):
        return self.runner.invoke(self.main, list(args))

    def jobs(self, pass_index: int) -> list[Job]:
        jobs = []
        for k, md in enumerate(self.models):
            path, out = str(md.path), str(self.out_dir / f"m{k:03d}")
            jobs.append(Job(f"validate:{k}", lambda p=path, o=out: self._cli(
                "validate", "--model", p, "--out", o)))
            jobs.append(Job(f"rate:{k}", lambda p=path, o=out, t=self.theta[k]:
                            self._cli("rate", "--model", p, "--theta", repr(t),
                                      "--out", o)))
        out = str(self.out_dir / "onemode")
        # one per pass, left out of the median so that it falls between
        # the slowest validate and the fastest rate
        jobs.append(Job("onemode-check", lambda: self._cli(
            "onemode-check", "--seed", str(self.seed), "--out", out),
            in_p50=False))
        return jobs

    def check(self, jobs: list[Job], answers: list) -> list[Verdict]:
        verdicts = []
        for job, res in zip(jobs, answers):
            cmd, _, idx = job.kind.partition(":")
            if cmd == "onemode-check":
                verdicts.append(self._judge(cmd, res, self.out_dir / "onemode"))
            else:
                k = int(idx)
                verdicts.append(self._judge(cmd, res, self.out_dir / f"m{k:03d}",
                                            self.theta0[k], self.v[k]))
        return verdicts

    @staticmethod
    def _judge(cmd: str, res, base: Path, th0: float | None = None,
               v: float | None = None) -> Verdict:
        """Judge one CLI invocation from its exit code and its output files
        in ``base`` against the references theta0 and V."""
        out = Verdict()
        if res is None:  # the job raised; the runner flags it
            return out
        if res.exit_code != 0:
            out.flag = f"exit code {res.exit_code}"
            return out
        name = "validate.json" if cmd == "validate" else "summary.json"
        summary = json.loads((base / name).read_text())
        if summary["status"] != "ok":
            out.flag = f"status {summary['status']}"
        if cmd == "onemode-check":
            return out
        _miss_if(_rel(summary["theta0"], th0) > THETA0_TOL,
                 f"theta0 off by {_rel(summary['theta0'], th0):.2e}", out.misses)
        if cmd == "rate":
            cl = summary["classical_v"]
            _miss_if(cl is None or _rel(cl, v) > V_TOL,
                     f"V off by {_rel(cl, v) if cl is not None else math.inf:.2e}",
                     out.misses)
            _miss_if(not 0.0 < summary["upsilon"] < v,
                     f"Upsilon {summary['upsilon']:.9g} not in (0, V={v:.9g})",
                     out.misses)
            with open(base / "frequency_profile.csv") as fh:
                rows = sum(1 for _ in fh) - 1
            _miss_if(rows != summary["n_freq"],
                     f"CSV has {rows} rows, summary says {summary['n_freq']}",
                     out.misses)
        return out

    def info(self) -> dict:
        return {"rejected_draws": self.rejected,
                "lightly_damped_set_aside": self.set_aside,
                "known_defect": self.known_defect,
                "models": [{"index": k, "n": md.n, "m": md.m,
                            "hurwitz_margin": md.hurwitz_margin,
                            "mesh_steps": md.mesh_steps, "nodes": md.nodes}
                           for k, md in enumerate(self.models)]}


WORKLOADS = {w.name: w for w in (TwoModeCurve, TwoModeMarch, TwoModeHorizon,
                                  ModelBatch)}
