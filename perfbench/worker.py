"""One workload run in a fresh process; run.py starts it and reads the
JSON object it prints last.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR
    python3 perfbench/worker.py --workload W --seed N --work DIR --setup-only

permdeflate is imported from PYTHONPATH, which run.py points at the
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import types
from pathlib import Path

from measure import Speedometer, Tally, median, tail_percentile
from tracing import Tracer, boundaries, layer_metrics, patched
from workloads import WORKLOADS, normalise

MODULES = ("perm_core", "decomposition", "class_engine", "deflate_analysis", "witness", "cli")


def import_program(src: Path):
    """Import permdeflate, refusing a copy from outside ``src``."""
    pd = types.SimpleNamespace()
    for name in MODULES:
        setattr(pd, name, importlib.import_module(f"permdeflate.{name}"))
    origin = Path(pd.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"permdeflate was imported from {origin}, not from {src}")
    return pd


def run_batch(jobs, tracer=None):
    """Run the jobs back to back; return (outputs, (start, end) per job,
    wall).  A job that raises yields its exception as output."""
    outputs, spans = [], []
    clock = time.perf_counter
    t0 = clock()
    for i, job in enumerate(jobs):
        start = clock()
        try:
            if tracer is None:
                out = job()
            else:
                with tracer.job(i):
                    out = job()
        except Exception as exc:  # a failed job is a result to count, not a crash
            out = exc
        spans.append((start, clock()))
        outputs.append(out)
    return outputs, spans, clock() - t0


def same_outputs(a, b) -> bool:
    return [_comparable(x) for x in a] == [_comparable(x) for x in b]


def _comparable(out):
    return repr(out) if isinstance(out, Exception) else normalise(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    speed = Speedometer()
    with speed.running():
        t0 = time.perf_counter()
        pd = import_program(Path(args.src))
        import_s = time.perf_counter() - t0
        wl = WORKLOADS[args.workload]
        inputs = wl.make_inputs(args.seed, Path(args.src), Path(args.work))
        t1 = time.perf_counter()
    for _ in range(5):  # set-up can end before the first timer tick
        speed.sample()
    setup_s = speed.scaled(t0, t1)
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s, "setup_raw_s": t1 - t0}))
        return 0

    tally = Tally()
    result = {"import_s": import_s, "setup_s": setup_s, "setup_raw_s": t1 - t0}
    if args.trace:
        # untraced batches before and after the traced one, so that a drift
        # in machine speed does not pass for tracing overhead
        before, _, before_wall = run_batch(wl.jobs(pd, inputs))
        tracer = Tracer()
        with patched(boundaries(tracer, pd)):
            traced, _, traced_wall = run_batch(wl.jobs(pd, inputs), tracer)
        after, _, after_wall = run_batch(wl.jobs(pd, inputs))
        wl.check(inputs, traced, tally)
        for plain in (before, after):
            if not same_outputs(plain, traced):
                tally.record(False, "traced outputs differ from untraced outputs")
        metrics = layer_metrics(tracer)
        metrics["setup.import_s"] = import_s
        metrics["trace.overhead_ratio"] = 2 * traced_wall / (before_wall + after_wall) - 1
        result["trace"] = tracer.dump()
    else:
        batches, spans, raw_walls = [], [], []
        deadline = time.perf_counter() + args.seconds
        min_jobs = getattr(wl, "min_jobs", 1)
        with speed.running():
            while time.perf_counter() < deadline or len(spans) < min_jobs:
                outputs, batch_spans, wall = run_batch(wl.jobs(pd, inputs))
                batches.append(outputs)
                spans.extend(batch_spans)
                raw_walls.append(wall)
        latencies = [speed.scaled(start, end) for start, end in spans]
        per_batch = len(latencies) // len(batches)
        walls = [sum(latencies[i : i + per_batch]) for i in range(0, len(latencies), per_batch)]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        first = Tally()
        wl.check(inputs, batches[0], first)
        for outputs in batches:
            if outputs is batches[0] or same_outputs(batches[0], outputs):
                tally.add(first)  # same outputs as the checked batch: same verdicts
            else:
                wl.check(inputs, outputs, tally)
        p99 = tail_percentile(latencies, 99)
        metrics = {
            "wall_s": median(walls),
            "req_p50_ms": median(latencies) * 1000,
            "req_p99_ms": (p99 if p99 is not None else max(latencies)) * 1000,
            "peak_rss_mib": peak_rss_mib,
        }
        result.update(
            batches=len(batches),
            requests=len(latencies),
            p99_from_max=p99 is None,
            raw_wall_s=raw_walls,
            scaled_wall_s=walls,
            reference_s=speed.loops,
        )
    deep = Tally()
    if hasattr(wl, "deep_jobs"):
        outputs, _, _ = run_batch(wl.deep_jobs(pd, inputs))
        wl.check(inputs, outputs, deep, requests=inputs["deep"])
        result["known_defect"] = {"attempted": deep.attempted, "failed": deep.failed, "reasons": deep.reasons}
    if args.trace:
        metrics["decomposition.deep_decompose.failed"] = deep.failed
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.fail_ratio,
        reasons=tally.reasons,
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
