"""permdeflate benchmark: one workload, one run.

    python3 perfbench/run.py --workload corpus|cover|search|queries \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
the checkout's ``src``.  The workload runs in a fresh child process with a
pinned environment (PYTHONHASHSEED=0, DEFLATE_THREADS unset), one process
at a time.  With ``--trace 0`` it repeats the workload's batch for S
seconds and reports the end-to-end metrics; with ``--trace 1`` it runs a
traced batch between two untraced ones and reports the per-layer
metrics.  Outputs are checked against brute-force oracles either way.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The full
record, spans included, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from measure import median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up is timed this many times per run, each in a fresh process.
SETUP_PROBES = 5
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def pinned_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("DEFLATE_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(src)
    return env


def source_record(root: Path) -> dict:
    """The commit when the checkout is a git work tree, and a digest of
    the program's sources either way (a plain checkout has no git data)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_worker(cmd, env, cwd):
    """Run one worker to completion; return its last stdout line as JSON."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s: {' '.join(cmd[2:])}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd[2:])}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "permdeflate" / "__init__.py").is_file():
        print(f"error: no permdeflate sources under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    work = BENCH / "out"
    work.mkdir(exist_ok=True)
    env = pinned_env(src)
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--src", str(src), "--work", str(work)]

    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probes.append(run_worker(base + ["--setup-only"], env, root)["setup_s"])
        result = run_worker(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, root
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = median(probes)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pythonhashseed": env["PYTHONHASHSEED"],
        **source_record(root),
        "setup_probes_s": probes,
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work / name).write_text(json.dumps(record, indent=1))

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  commit {record['commit']}  "
        f"src {record['src_sha256'][:12]}  python {record['python']}  cpus {record['cpu_count']}"
    )
    for key in sorted(metrics):
        print(f"  {key:44s} {metrics[key]:14.6g} {units[key]}")
    print(f"  {'fail_ratio':44s} {result['fail_ratio']:14.6g} ratio  ({failed} of {attempted} jobs failed)")
    for reason in result["reasons"]:
        print(f"  failed: {reason}")
    if "batches" in result:
        p99_note = "maximum: fewer than 1000 samples" if result["p99_from_max"] else "nearest rank"
        print(f"  {result['batches']} batches, {result['requests']} requests; req_p99_ms is the {p99_note}")
    defect = result.get("known_defect")
    if defect:
        print(
            f"  known defect: {defect['failed']} of {defect['attempted']} near-identity decompose "
            "requests of 500-900 entries failed (reported apart from the timed stream)"
        )
    print(f"  record written to {work / name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
