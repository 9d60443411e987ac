"""Per-layer metrics of a traced run, computed from its spans.

Conventions: counts (``*_calls``, ``*_steps``, ``*_nodes``,
``*_matrices``, ``*_bytes``) and times (``*_s``) are per traced pass, so
they compare across runs of different length; a span nested in a span of
the same name is counted once.  Exceptions: ``homotopy.step_s`` and
``cli.*_s`` are medians per call, ``quadrature.nodes_per_integral`` is a
mean per integral, ``horizon.order`` is the largest matrix order, and
``horizon.ln_xi_s`` and ``self_s.<layer>`` are self times (a span's time
minus the time its child spans cover).  ``trace.unattributed_s`` is job
time no layer span covers, and ``trace.overhead_frac`` compares the
median traced and untraced pass.  ``process.probe_s`` is the median
time of the workload's speed probe in the untraced passes, the machine
speed the layer times were taken at (0 on ``twomode-horizon``, which has
no probe).
"""

from __future__ import annotations

import statistics

from spans import Span

LAYERS = ("model", "spectral", "quadrature", "rate", "homotopy", "horizon",
          "io", "cli", "linalg")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class _Index:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        # time each span's children cover, for self times
        self.cover = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                self.cover[s.parent] += s.end - s.start

    def _ancestors(self, s: Span):
        while s.parent is not None:
            s = self.spans[s.parent]
            yield s

    def outer(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(a.name != name for a in self._ancestors(s))]

    def under(self, name: str, ancestor: str) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and any(a.name == ancestor for a in self._ancestors(s))]

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds summed per layer (the span name's first part)."""
        out: dict[str, float] = {}
        for s, cover in zip(self.spans, self.cover):
            key = s.name.split(".", 1)[0]
            out[key] = out.get(key, 0.0) + s.end - s.start - cover
        return out

    def self_s(self, name: str) -> float:
        return sum(s.end - s.start - cover
                   for s, cover in zip(self.spans, self.cover) if s.name == name)


def metrics(spans: list[Span], passes: list[dict], traced_passes: int,
            blas_threads) -> dict:
    idx = _Index(spans)
    per = max(traced_passes, 1)

    def total(name):
        return sum(s.end - s.start for s in idx.outer(name)) / per

    def calls(name):
        return len(idx.outer(name)) / per

    def units(name):
        return sum(s.units for s in idx.outer(name)) / per

    def per_call(name):
        return _median(s.end - s.start for s in idx.outer(name))

    integrals = idx.outer("quadrature.integral")
    orders = [s.units for s in idx.outer("horizon.discretize")]
    out = {
        "model.validate_s": total("model.validate"),
        "model.validate_calls": calls("model.validate"),
        "spectral.sample_grid_calls": calls("spectral.sample_grid"),
        "spectral.sample_grid_nodes": units("spectral.sample_grid"),
        "spectral.sample_grid_s": total("spectral.sample_grid"),
        "spectral.transfer_calls": calls("spectral.transfer"),
        "quadrature.nodes_per_integral":
            sum(s.units for s in integrals) / len(integrals) if integrals else 0.0,
        "rate.upsilon_s": total("rate.upsilon"),
        "rate.upsilon_calls": calls("rate.upsilon"),
        "rate.theta_threshold_s": total("rate.theta_threshold"),
        "rate.classical_v_s": total("rate.classical_v"),
        "rate.small_theta_expansion_s": total("rate.small_theta_expansion"),
        "rate.frequency_profile_s": total("rate.frequency_profile"),
        "rate.bounds_s": total("rate.bounds"),
        "rate.bounds_upsilon_calls":
            len(idx.under("rate.upsilon_from_grid", "rate.bounds")) / per,
        "homotopy.march_s": total("homotopy.march"),
        "homotopy.march_steps": calls("homotopy.step"),
        "homotopy.step_s": per_call("homotopy.step"),
        "horizon.order": max(orders, default=0.0),
        "horizon.discretize_s": total("horizon.discretize"),
        "horizon.hessenberg_s": total("horizon.hessenberg"),
        "horizon.tridiag_eig_s": total("horizon.tridiag_eig"),
        "horizon.lambda_max_s": total("horizon.lambda_max"),
        "horizon.cholesky_s": total("horizon.cholesky"),
        "horizon.ln_xi_s": idx.self_s("horizon.ln_xi") / per,
        "io.write_csv_s": total("io.write_csv"),
        "io.write_csv_bytes": units("io.write_csv"),
        "io.write_summary_s": total("io.write_summary"),
        "cli.validate_s": per_call("cli.validate"),
        "cli.rate_s": per_call("cli.rate"),
        "cli.onemode_check_s": per_call("cli.onemode_check"),
        "linalg.eigh_matrices": units("linalg.eigh"),
        "linalg.eigh_s": total("linalg.eigh"),
        "linalg.solve_matrices": units("linalg.solve"),
        "linalg.solve_s": total("linalg.solve"),
    }
    per_layer = idx.self_by_layer()
    for name in LAYERS:
        out[f"self_s.{name}"] = per_layer.get(name, 0.0) / per
    # job spans are the roots: their self time is what no layer covers
    job_s = sum(s.end - s.start for s in idx.outer("job"))
    unattributed = per_layer.get("job", 0.0)
    out["trace.job_s"] = job_s / per
    out["trace.unattributed_s"] = unattributed / per
    out["trace.unattributed_frac"] = unattributed / job_s if job_s else 0.0
    out["trace.spans"] = len(spans) / per
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    base = _median(p["wall"] for p in untraced)
    out["trace.overhead_frac"] = (
        (_median(p["wall"] for p in traced) - base) / base if base else 0.0)
    out["process.cpu_s"] = _median(p["cpu"] for p in (untraced or passes))
    out["process.blas_threads"] = float(blas_threads)
    out["process.probe_s"] = _median(_median(p["probes"]) for p in untraced)
    return out
