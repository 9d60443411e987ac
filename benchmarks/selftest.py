"""Self-tests of the benchmark itself.

    python3 benchmarks/selftest.py

Checks the oracles against the closed-form surrogate and the library, runs
every workload once at smoke-test size (and one traced) with no failed
job, checks that the model generator sets lightly damped draws aside, and
shows that the gate can fail: a deliberately perturbed answer is counted
in ``fail_frac`` and makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import worker  # noqa: E402  (puts the sources on the path)

import modelgen  # noqa: E402
import oracle  # noqa: E402
import qefrate as q  # noqa: E402
import run  # noqa: E402
from workloads import Job, TwoModeMarch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "1",
                          "--tiny", "--seconds", "1", *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class OracleTest(unittest.TestCase):
    def test_surrogate_closed_form(self):
        dev = oracle.self_check()
        self.assertLess(dev["theta0_rel_dev"], 1e-12)
        self.assertLess(dev["v_rel_dev"], 1e-10)

    def test_agrees_with_library_on_two_mode_model(self):
        ss = q.two_mode_example()
        cfg = q.QuadratureConfig.for_system(ss)
        theta0 = oracle.theta_threshold(ss.a, ss.b, ss.weight)
        self.assertLess(abs(theta0 - q.theta_threshold(ss, cfg)) / theta0, 1e-9)
        v = oracle.classical_v(ss.a, ss.b, ss.weight, 0.5 * theta0)
        self.assertLess(abs(v - q.classical_v(ss, 0.5 * theta0, cfg)) / v, 1e-6)


class SmokeTest(unittest.TestCase):
    def test_every_workload(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = _bench("--workload", w["name"])
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(list(res["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_traced_run_reports_every_layer_metric(self):
        res = _bench("--workload", "model-batch", "--trace", "1")
        metrics = res["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in SPEC["per_layer"]])
        self.assertGreater(metrics["cli.rate_s"]["value"], 0.0)
        self.assertGreater(metrics["model.validate_calls"]["value"], 0.0)
        self.assertLess(metrics["trace.unattributed_frac"]["value"], 0.5)


class ModelGenTest(unittest.TestCase):
    def test_timed_draws_are_resolved_and_light_draw_is_not(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            models, _, _ = modelgen.draw_models(5, 5, Path(tmp))
            self.assertEqual([(md.n, md.m) for md in models],
                             list(modelgen.SIZES))
            self.assertTrue(all(md.mesh_steps >= modelgen.MIN_MESH_STEPS
                                for md in models))
            light = modelgen.draw_lightly_damped(5, Path(tmp))
            self.assertLess(light.mesh_steps, modelgen.LIGHT_MESH_STEPS)


class _Perturbed:
    """A workload whose answers are altered before the gate sees them."""

    def __init__(self, wl, alter):
        self.wl, self.alter = wl, alter

    def jobs(self, index):
        return [Job(j.kind, lambda j=j: self.alter(j.call()), j.theta)
                for j in self.wl.jobs(index)]

    def check(self, jobs, answers):
        return self.wl.check(jobs, answers)


class GateTest(unittest.TestCase):
    def test_perturbed_answer_is_counted(self):
        wl = TwoModeMarch(1, ROOT, tiny=True)
        wl.prepare()

        def off_by_two_per_mille(trace):
            return dataclasses.replace(trace, rate=trace.rate * 1.002)

        for alter, failures in ((lambda trace: trace, 0),
                                (off_by_two_per_mille, 1)):
            res = {"passes": [worker._run_pass(_Perturbed(wl, alter), 0, None,
                                               None)],
                   "peak_rss_mb": 1.0}
            summary = run._summarize(res, [(1.0, 0.2)])
            self.assertEqual(len(summary["failed"]), failures)
            self.assertEqual(len(summary["silent"]), failures)


class MedianJobTest(unittest.TestCase):
    """On model-batch the median job must see a change to ``rate`` alone."""

    @staticmethod
    def _p50(rate_latency: float) -> float:
        jobs = []
        for k in range(5):
            jobs.append({"kind": f"validate:{k}", "in_p50": True,
                         "latency": 0.06 + 0.001 * k})
            jobs.append({"kind": f"rate:{k}", "in_p50": True,
                         "latency": rate_latency + 0.1 * k})
        jobs.append({"kind": "onemode-check", "in_p50": False, "latency": 0.05})
        for j in jobs:
            j.update(flag=None, misses=[])
        res = {"passes": [{"traced": False, "jobs": jobs, "probes": [0.02]}],
               "peak_rss_mb": 1.0}
        return run._summarize(res, [(1.0, 0.2)])["job_p50_s"]

    def test_slower_rate_moves_median(self):
        self.assertGreater(self._p50(0.45), 1.1 * self._p50(0.3))


if __name__ == "__main__":
    unittest.main()
