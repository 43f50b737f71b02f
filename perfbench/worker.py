"""One workload in one fresh interpreter: a closed loop with one client.

Started by run.py.  It imports ``mulab.cli`` from the checkout's
``src`` and builds the first pass of ops; that much is set-up, and its
scaled time is the first stdout line.  With ``--setup-only`` it stops
there.  Otherwise it runs whole passes, each op an in-process
``mulab.cli.main(argv)`` call with stdout and stderr captured, and writes
one JSON summary line.

With ``--trace 1`` it runs pass 0 untraced, then again with the tracer
installed, checks that both give op-for-op identical exit codes and
reports, and writes the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracle import Mismatch  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

MIN_OPS = 200            # so that at least ten samples lie beyond p95
MIN_PASSES = 3           # ops_per_s is the median over passes
OP_TIMEOUT_S = 60.0      # a hung op counts as failed
NO_NEW_PASS_AFTER_S = 60.0
REF_PROBE_S = 100e-6    # the probe's time on the reference machine
SAMPLE_CPU_S = 0.010    # probe period inside an op, in CPU time


class OpTimeout(BaseException):
    """Raised in the op by the interval timer; nothing in mulab catches it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def speed_probe() -> float:
    """Seconds for a fixed interpreter loop, the least of three tries.

    On a shared host, speed can swing by up to 1.9x over a few seconds.
    This probe moves with it to within a few percent, so op times divided
    by probes taken around and during the op are steady.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 40):
            acc += Fraction(i, i + 1)
            seen[i] = str(acc)
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Takes speed_probe() every SAMPLE_CPU_S of CPU time while an op runs,
    from a SIGVTALRM handler, so a long op is scaled by the speed during
    it and not only at its ends.  The handler's time is taken out of the
    op's latency."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(speed_probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def run_op(call, argv: tuple[str, ...],
           sampler: SpeedSampler) -> tuple[str, str, float]:
    """One op: (outcome, stdout, latency).  The outcome is 'exit:<code>',
    'escaped:<exception type>' or 'timeout'."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with sampler, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = call(list(argv))
        outcome = f"exit:{code}"
    except OpTimeout:
        outcome = "timeout"
    except SystemExit as exc:
        outcome = f"exit:{exc.code}"
    except Exception as exc:  # anything escaping main is a failed op
        outcome = f"escaped:{type(exc).__name__}"
    finally:
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome, out.getvalue(), latency - sampler.spent


def run_pass(call, ops, sampler: SpeedSampler):
    """Run the ops back to back.  Returns the results and, per op, its
    speed: the mean of the probes just before it, inside it and just
    after it."""
    results, speeds = [], []
    before = speed_probe()
    for index, op in enumerate(ops):
        results.append(call(index, op.argv))
        after = speed_probe()
        samples = [before, *sampler.samples, after]
        speeds.append(sum(samples) / len(samples))
        before = after
    return results, speeds


def scaled_latencies(results, speeds) -> list[float]:
    """Each op's latency at the reference speed."""
    return [latency * REF_PROBE_S / speed
            for (_outcome, _stdout, latency), speed in zip(results, speeds)]


def classify(op, outcome: str, stdout: str) -> str:
    """'ok', 'known_defect' or 'failed'; raises Mismatch on a wrong answer."""
    if outcome == "exit:0":
        try:
            report = json.loads(stdout)
        except ValueError:
            raise Mismatch(f"report is not JSON: {stdout[:200]!r}") from None
        op.check(report)
        return "ok"
    if op.known_defect is not None and outcome != "timeout":
        return "known_defect"
    return "failed"


def check_pass(ops, results, tally: dict) -> None:
    for op, (outcome, stdout, _latency) in zip(ops, results):
        try:
            kind = classify(op, outcome, stdout)
        except Mismatch as exc:
            raise Mismatch(f"{' '.join(op.argv)[:300]}: {exc}") from None
        tally[kind] += 1
        if kind == "failed":
            print(f"failed op ({outcome}): {' '.join(op.argv)[:300]}",
                  file=sys.stderr)


def _import_mulab():
    sys.path.insert(0, str(ROOT / "src"))
    import mulab.cli
    src = (ROOT / "src").resolve()
    if src not in Path(mulab.cli.__file__).resolve().parents:
        raise ImportError(f"mulab.cli imported from {mulab.cli.__file__}, "
                          f"not from {src}")
    return mulab.cli


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(main, args, first_pass) -> dict:
    """Whole passes until --seconds of op time, MIN_OPS ops and MIN_PASSES
    passes.  ops_per_s is the median of the passes' scaled rates, so one
    pass caught by a speed swing inside a long op does not move it."""
    raw: list[float] = []
    scaled: list[float] = []
    pass_rates: list[float] = []
    tally = {"ok": 0, "known_defect": 0, "failed": 0}
    ops = first_pass
    start = time.perf_counter()
    sampler = SpeedSampler()
    call = lambda index, argv: run_op(main, argv, sampler)  # noqa: E731
    while True:
        results, speeds = run_pass(call, ops, sampler)
        check_pass(ops, results, tally)
        pass_scaled = scaled_latencies(results, speeds)
        pass_rates.append(len(pass_scaled) / sum(pass_scaled))
        scaled += pass_scaled
        raw += [latency for _outcome, _stdout, latency in results]
        enough = (sum(raw) >= args.seconds and len(raw) >= MIN_OPS
                  and len(pass_rates) >= MIN_PASSES)
        if enough or time.perf_counter() - start >= NO_NEW_PASS_AFTER_S:
            break
        ops = make_pass(args.workload, args.seed, len(pass_rates))
    return {
        "passes": len(pass_rates),
        "attempted": len(raw),
        "tally": tally,
        "op_s": sum(raw),
        "ops_per_s": statistics.median(pass_rates),
        "latency_p50_s": statistics.median(scaled),
        "latency_p95_s": _quantile(scaled, 95),
        "raw_latency_p50_s": statistics.median(raw),
        "raw_latency_p95_s": _quantile(raw, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def write_spans(spans: list[tuple], workload: str, seed: int) -> Path:
    """One JSON line per span: op, name, start, end, parent span index."""
    path = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for op, name, start, end, parent in spans:
            fh.write(json.dumps({"op": op, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
    return path.relative_to(ROOT)


def traced_run(main, ops) -> dict:
    """Pass 0 untraced, traced, untraced again.  The overhead is the traced
    op time minus the mean of the two untraced ones, which cancels most
    of the first pass's warm-up; all three are scaled to the reference
    speed.  The per-layer times are not scaled."""
    from tracing import Tracer

    sampler = SpeedSampler()
    plain = lambda index, argv: run_op(main, argv, sampler)  # noqa: E731
    before, before_speeds = run_pass(plain, ops, sampler)
    check_pass(ops, before, {"ok": 0, "known_defect": 0, "failed": 0})

    tracer = Tracer()
    for name in tracer.install():
        print(f"trace hook target missing: {name}", file=sys.stderr)
    traced_call = lambda index, argv: run_op(  # noqa: E731
        lambda a: tracer.run_op(index, main, a), argv, sampler)
    try:
        traced, traced_speeds = run_pass(traced_call, ops, sampler)
    finally:
        tracer.uninstall()
    tally = {"ok": 0, "known_defect": 0, "failed": 0}
    check_pass(ops, traced, tally)
    after, after_speeds = run_pass(plain, ops, sampler)
    for index, (plain_result, traced_result) in enumerate(zip(before, traced)):
        if plain_result[:2] != traced_result[:2]:
            raise Mismatch(f"op {index} differs under tracing: "
                           f"{plain_result[0]} vs {traced_result[0]}")
    untraced_s = (sum(scaled_latencies(before, before_speeds))
                  + sum(scaled_latencies(after, after_speeds))) / 2
    traced_s = sum(scaled_latencies(traced, traced_speeds))

    metrics = tracer.metrics()
    outcomes = [outcome for outcome, _s, _l in traced]
    metrics["cli.exit1"] = (outcomes.count("exit:1"), "count")
    metrics["cli.exit2"] = (outcomes.count("exit:2"), "count")
    metrics["cli.escaped"] = (sum(o.startswith("escaped:") or o == "timeout"
                                  for o in outcomes), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return {
        "passes": 1,
        "attempted": len(ops),
        "tally": tally,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "span_records": tracer.spans,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: import mulab.cli into this fresh interpreter and build the
    # first pass, scaled by the probes on either side
    probe_before = speed_probe()
    t0 = time.perf_counter()
    cli = _import_mulab()
    first_pass = make_pass(args.workload, args.seed, 0)
    setup_s = time.perf_counter() - t0
    probe = (probe_before + speed_probe()) / 2
    sys.stdout.write(f"setup {setup_s * REF_PROBE_S / probe!r}\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            summary = traced_run(cli.main, first_pass)
            summary["spans_file"] = str(write_spans(
                summary.pop("span_records"), args.workload, args.seed))
        else:
            summary = timed_run(cli.main, args, first_pass)
    except Mismatch as exc:
        summary = {"mismatch": str(exc)}
    sys.stdout.write(json.dumps(summary) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
