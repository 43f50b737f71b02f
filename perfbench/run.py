"""mulab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload flags-shallow --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The program is taken from ``src`` as
it is; nothing is installed or built.  Each run starts fresh worker
interpreters one at a time: a few that only set up (import
``mulab.cli`` and build the inputs) to time set-up, then one that also
runs whole passes of ops until ``--seconds`` of op time, 200 ops and 3
passes are reached.  Times are scaled to a reference speed by a probe
taken around and inside every op (see worker.py).  Every op's report is
checked by the benchmark's own oracle; a wrong answer aborts the run
with exit code 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of one traced pass.  The lines
before it print the same figures as a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

SETUP_RUNS = 7           # set-up is timed in this many fresh interpreters
RUN_DEADLINE_S = 170.0   # every worker is killed past this point


class WorkerError(Exception):
    pass


def _worker(args: argparse.Namespace, deadline: float, setup_only: bool):
    """Run one worker; return (its scaled set-up seconds, summary or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("setup "):
        raise WorkerError(f"worker exited with code {proc.returncode} "
                          f"before finishing (see its stderr above)")
    setup_s = float(lines[0].removeprefix("setup "))
    if setup_only:
        return setup_s, None
    if len(lines) < 2:
        raise WorkerError("worker wrote no summary")
    return setup_s, json.loads(lines[-1])


def _table(workload: str, rows: dict, extra: list[str]) -> None:
    print(f"workload {workload}")
    for line in extra:
        print(f"  {line}")
    for name, entry in rows.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")


def end_to_end(args, summary: dict, setups: list[float]) -> dict:
    tally, attempted = summary["tally"], summary["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (summary["ops_per_s"], "ops/s"),
        "latency_p50_ms": (summary["latency_p50_s"] * 1000, "ms"),
        "latency_p95_ms": (summary["latency_p95_s"] * 1000, "ms"),
        "success_rate": (tally["ok"] / attempted, "ratio"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    rows = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    error_rate = (tally["known_defect"] + tally["failed"]) / attempted
    _table(args.workload, rows, [
        f"seed {args.seed}, {summary['passes']} passes, {attempted} ops "
        f"taking {summary['op_s']:.3f} s, set-up runs {len(setups)}",
        f"unscaled: {attempted / summary['op_s']:.6g} ops/s, p50 "
        f"{summary['raw_latency_p50_s'] * 1000:.6g} ms, p95 "
        f"{summary['raw_latency_p95_s'] * 1000:.6g} ms",
        f"error_rate {error_rate:.6g} ratio: {tally['known_defect']} known "
        f"baseline defects + {tally['failed']} unexpected failures",
    ])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="mulab benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # on SIGTERM unwind normally, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        setups = [] if args.trace else [
            _worker(args, deadline, setup_only=True)[0]
            for _ in range(SETUP_RUNS - 1)]
        setup_s, summary = _worker(args, deadline, setup_only=False)
    except (WorkerError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    if "mismatch" in summary:
        print(f"oracle mismatch: {summary['mismatch']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    if args.trace:
        rows = summary["metrics"]
        _table(args.workload, rows, [
            f"seed {args.seed}, one pass of {summary['attempted']} ops traced, "
            f"spans in {summary['spans_file']}",
            f"scaled op time untraced {summary['untraced_s']:.3f} s, "
            f"traced {summary['traced_s']:.3f} s",
        ])
    else:
        rows = end_to_end(args, summary, setups)
    tally = summary["tally"]
    if tally["known_defect"]:
        for name, why in KNOWN_DEFECTS.items():
            print(f"  known defect {name}: {why}")
    print(json.dumps({"correct": True, "attempted": summary["attempted"],
                      "failed": tally["failed"], "metrics": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
