"""pcmxbar benchmark entry point.

    python3 bench/run.py --workload {sweep,sensitivity,learn} --seed N --seconds S --trace {0,1}

One process, one thread, one caller in a closed loop: each op starts when
the previous one returns. A pass runs every op of the seed's window once,
and passes repeat for ``--seconds``. Every op's outputs are digested and compared with the recorded reference; a
mismatch, a broken invariant or an exception counts the op as failed.

End-to-end times are taken at a fixed host speed. The host is shared, and
other tenants' load slows every instruction stream on it by up to about
1.5x, in phases from milliseconds to minutes, so raw times of the same code
spread 10-40 % from run to run. A fixed reference kernel (``calibrate.py``)
is timed before the first op of each untraced pass and after every op. An
op's cost is its latency over the mean of the two kernel timings around it,
and its time is the median of that ratio over the run's passes times the
kernel's reference time. A pass takes the sum of its ops' times. Raw floors
(each op's fastest latency) are kept in the record beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead among them. A readable summary goes to stderr, a full record with
the host environment to ``.bench_out/``, and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap
import calibrate

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# a percentile is reported only with at least ten samples beyond it
P95_MIN_OPS = 200


@dataclass
class PassResult:
    latencies: list[float | None] = field(default_factory=list)  # None where the op raised
    digests: list[str | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    # untraced passes: kernel time before the first op and after every op
    kernel: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Time spent inside the package, summed over the pass's ops."""
        return sum(t for t in self.latencies if t is not None)


def run_pass(ops, reference_digests=None, tracer=None) -> PassResult:
    """Run every op once, in order; time each call and check its outputs."""
    result = PassResult()
    if tracer is None:
        result.kernel.append(calibrate.time_kernel())
    for i, op in enumerate(ops):
        op.reset()
        latency = digest = None
        try:
            start = time.perf_counter()
            value = op.run() if tracer is None else tracer.run_op(op.label, op.run)
            latency = time.perf_counter() - start
            digest, problems = op.outcome(value)
        except Exception as exc:  # a failed op is counted, the pass goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if tracer is None:
            result.kernel.append(calibrate.time_kernel())
        else:
            problems += tracer.take_problems()
        if reference_digests is not None and digest != reference_digests[i]:
            problems.append(f"digest {digest} != reference {reference_digests[i]}")
        if problems:
            result.failures.append(f"{op.label}: {'; '.join(problems)}")
        result.latencies.append(latency)
        result.digests.append(digest)
    return result


def probe_setup(workload: str, seed: int, work: Path) -> float:
    """Seconds from starting a fresh interpreter to the workload's inputs ready."""
    before = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - before


def end_to_end(untraced: list[PassResult], setup: list[float], answer_epochs: int, record: dict) -> dict:
    # each op's latency in kernel calls, against the kernel timed just before and after it
    ratios = [[] for _ in untraced[0].latencies]
    for r in untraced:
        for i, t in enumerate(r.latencies):
            if t is not None:
                ratios[i].append(2 * t / (r.kernel[i] + r.kernel[i + 1]))
    per_op = [calibrate.REFERENCE_S * statistics.median(x) for x in ratios if x]
    wall = sum(per_op)
    samples = [calibrate.REFERENCE_S * x for op in ratios for x in op]
    columns = [[t for t in c if t is not None] for c in zip(*(r.latencies for r in untraced))]
    record.update(ops_timed=len(samples), setup_samples_s=setup, answer_epochs=answer_epochs,
                  raw_floor_pass_s=sum(min(c) for c in columns if c),
                  kernel_median_s=statistics.median(k for r in untraced for k in r.kernel))
    if len(samples) >= P95_MIN_OPS:
        record["op_p95_ms"] = 1e3 * statistics.quantiles(samples, n=20)[-1]
    return {
        "wall_s": (wall, "s"),
        "sim_epochs_per_s": (answer_epochs / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracers: list, untraced: list[PassResult], traced: list[PassResult],
              record: dict, problems: list[str]) -> dict:
    from layers import COUNTERS, TARGET_NAMES

    metrics = {}
    absent = list(tracers[0].absent)
    for name in TARGET_NAMES:
        if name in absent:
            continue
        calls = {t.stats[name][0] for t in tracers}
        if len(calls) > 1:
            problems.append(f"{name}.calls differs between passes: {sorted(calls)}")
        metrics[f"{name}.calls"] = (tracers[0].stats[name][0], "count")
        metrics[f"{name}.self_ms"] = (min(t.stats[name][1] for t in tracers) / 1e6, "ms")
    counters = [t.counters() for t in tracers]
    if any(c != counters[0] for c in counters):
        problems.append(f"counters differ between passes: {counters}")
    units = {"harness.unique_run_ratio": "ratio", "io.bytes_written": "bytes"}
    for name in COUNTERS:
        if name in counters[0]:
            metrics[name] = (counters[0][name], units.get(name, "count"))
        else:
            absent.append(name)
    overhead = min(r.seconds for r in traced) / min(r.seconds for r in untraced)
    metrics["trace_overhead"] = (overhead, "ratio")
    record.update(absent=absent, pass_seconds_traced=[r.seconds for r in traced])
    return metrics


def measure(args, work: Path) -> dict:
    import workloads

    window, ops = workloads.prepare(args.workload, args.seed, work)
    digests, answer_epochs = workloads.load_references(ops)
    record = {"workload": args.workload, "seed": args.seed, "window": window,
              "ops_per_pass": len(ops), "trace": args.trace}
    problems: list[str] = []

    setup = [] if args.trace else [probe_setup(args.workload, args.seed, work) for _ in range(SETUP_PROBES)]
    passes, untraced, traced, tracers = [], [], [], []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        tracer = None
        if args.trace and len(untraced) > len(traced):
            from layers import LayerTracer

            tracer = LayerTracer()
        try:
            if tracer is not None:
                tracer.install()
            result = run_pass(ops, digests, tracer)
        finally:
            if tracer is not None:
                problems += [f"binding not restored: {b}" for b in tracer.restore()]
        passes.append(result)
        if tracer is None:
            untraced.append(result)
        else:
            traced.append(result)
            tracers.append(tracer)
        enough = len(untraced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_TRACED_PASSES)
        now = time.monotonic()
        # stop when another pass as long as the last one would end past --seconds
        if enough and now + (now - pass_start) - start > args.seconds:
            break

    if len({tuple(r.digests) for r in passes}) > 1:
        problems.append("op digests differ between passes (traced vs untraced or run to run)")
    record["pass_seconds_untraced"] = [r.seconds for r in untraced]
    if args.trace:
        metrics = per_layer(tracers, untraced, traced, record, problems)
        record["spans_file"] = str(_write_spans(args, tracers[-1].spans))
    else:
        metrics = end_to_end(untraced, setup, answer_epochs, record)

    attempted = sum(len(r.digests) for r in passes)
    failures = [f for r in passes for f in r.failures]
    record.update(
        passes=len(passes),
        correct=not failures and not problems,
        attempted=attempted,
        failed=len(failures),
        failed_share=len(failures) / attempted,
        failures=failures[:50],
        problems=problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return record


def _write_spans(args, spans) -> Path:
    """Spans of the last traced pass: [name, start_ns, end_ns, parent_index], start-relative."""
    origin = spans[0][1] if spans else 0
    path = bootstrap.OUT / f"{args.workload}-seed{args.seed}-spans.json"
    rows = [[name, start - origin, end - origin, parent] for name, start, end, parent in spans]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": rows},
                               separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def _summary(record: dict) -> str:
    lines = [f"workload={record['workload']} seed={record['seed']} window={record['window']} "
             f"passes={record['passes']} ops/pass={record['ops_per_pass']} "
             f"attempted={record['attempted']} failed={record['failed']} correct={record['correct']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "op_p95_ms" in record:
        lines.append(f"  op_p95_ms = {record['op_p95_ms']:.6g} ms (all {record['ops_timed']} timed ops)")
    elif "ops_timed" in record:
        lines.append(f"  op_p95_ms not reported: {record['ops_timed']} timed ops < {P95_MIN_OPS}")
    if "raw_floor_pass_s" in record:
        lines.append(f"  raw floor pass = {record['raw_floor_pass_s']:.6g} s, reference kernel median = "
                     f"{1e3 * record['kernel_median_s']:.4g} ms (reference {1e3 * calibrate.REFERENCE_S:.4g} ms)")
    for name in record.get("absent", []):
        lines.append(f"  {name}: absent")
    lines += [f"  FAILED {f}" for f in record["failures"]]
    lines += [f"  PROBLEM {p}" for p in record["problems"]]
    env = record["environment"]
    lines.append(f"  env: python {env['python']}, numpy {env['numpy']}, {env['cpu_model']}, "
                 f"nproc {env['nproc']}, threads pinned to 1")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "sensitivity", "learn"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap.prepare_process()
    bootstrap.OUT.mkdir(exist_ok=True)
    work = bootstrap.OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = bootstrap.environment()
    side = bootstrap.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(_summary(record), file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
