"""One workload in a fresh process: set up, check the oracles, run timed
passes, judge every answer, and print one JSON result line.

Started by ``run.py``.  The process prints ``READY`` once the workload's
set-up is done, so the parent can time set-up from process start.  With
``--setup-only`` it stops there.  With ``--trace 1`` every second pass runs
with the span recorder installed, and the untraced passes between them
give the tracing overhead.  Untraced passes time the workload's speed
probe (``probes.py``), if it has one, three times before every job and
after the last.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qefrate  # noqa: E402,F401  (set-up includes the import)

from workloads import WORKLOADS, Verdict  # noqa: E402

#: Every run makes at least this many passes, so that every job is
#: timed more than once, however long its pass.
MIN_PASSES = 2
#: Probe readings taken before every job and after the last one.
PROBE_READINGS = 3
#: Probe readings discarded before the first pass: the first few after
#: the references are computed run two to three times slower.
PROBE_WARMUP = 10


def _run_pass(wl, index: int, tracer, probe) -> dict:
    """Run the job list once, timing ``probe`` between jobs unless it is
    None (a traced pass, whose spans the probe would show up in)."""
    jobs = wl.jobs(index)
    answers, latencies, errors, probes = [], [], [], []

    def read_probe():
        if probe is not None:
            probes.extend(probe() for _ in range(PROBE_READINGS))

    cpu0 = time.process_time()
    for job_id, job in enumerate(jobs):
        read_probe()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ans = job.call()
            else:
                ans = tracer.run_job(job_id, job.call)
            err = None
        except Exception as exc:  # a failed job is counted, not fatal
            ans, err = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        answers.append(ans)
        errors.append(err)
    cpu = time.process_time() - cpu0
    read_probe()
    try:
        verdicts = wl.check(jobs, answers)
        if len(verdicts) != len(jobs):
            raise RuntimeError(f"{len(verdicts)} verdicts for {len(jobs)} jobs")
    except Exception:
        verdicts = [Verdict(misses=["gate raised:\n" + traceback.format_exc()])
                    for _ in jobs]
    for v, err in zip(verdicts, errors):
        if err is not None:
            v.flag = err
    return {"wall": sum(latencies), "cpu": cpu, "traced": tracer is not None,
            "probes": probes,
            "jobs": [{"kind": j.kind, "in_p50": j.in_p50, "latency": t,
                      "flag": v.flag, "misses": v.misses}
                     for j, t, v in zip(jobs, latencies, verdicts)]}


def main() -> int:
    # run.py passes every flag; the run's length is set in BENCHMARK.json
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--run-dir", required=True)
    args = ap.parse_args()

    run_dir = Path(args.run_dir)
    # inputs come from the seed; generators and the CLI take seeds >= 0
    wl = WORKLOADS[args.workload](args.seed % 2**31, run_dir, tiny=args.tiny)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # the benchmark's own modules load after set-up is timed
    import header
    import oracle

    tracer = None
    if args.trace:
        import layers
        import spans
        tracer = spans.Tracer()
    oracle_dev = oracle.self_check()
    wl.prepare()
    probe = wl.probe() if wl.probe else None
    for _ in range(PROBE_WARMUP if probe else 0):
        probe()
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(_run_pass(wl, len(passes), tracer if traced else None,
                                    None if traced else probe))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        # the pass count is --seconds over the pass time, rounded to the
        # nearest: a pass starts if at least half of it fits
        if len(passes) >= MIN_PASSES and elapsed + typical / 2 > args.seconds:
            break

    result = {
        "header": header.collect(),
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "oracle_self_check": oracle_dev,
        "info": wl.info(),
        "probe": type(probe).__name__ if probe else None,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_passes = sum(p["traced"] for p in passes)
        threads = [t for t in result["header"]["blas_threads"].values() if t]
        result["layers"] = layers.metrics(tracer.spans, passes, traced_passes,
                                          max(threads, default=0))
        trace_file = run_dir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(spans.to_records(tracer.spans)))
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
