"""Re-record ``references.json`` from the package in this checkout.

    python3 bench/record.py

Collects every op that any seed can run, over all windows of all
workloads, and runs each once traced and once untraced. Both runs must
succeed, agree and break no invariant. It stores each op's output digest
and the training epochs its answer needs. Re-recording is reserved for
changes to the benchmark itself: a change to the simulator that alters any
output must fail the gate, not move the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import bootstrap

bootstrap.prepare_process()

import workloads  # noqa: E402  (needs the package path set above)
from layers import LayerTracer  # noqa: E402
from run import run_pass  # noqa: E402


def main() -> None:
    work = bootstrap.OUT / "record"
    ops = {
        op.label: op
        for name in workloads.WORKLOADS
        for window in range(workloads.WINDOWS)
        for op in workloads.prepare(name, window, work)[1]
    }
    recorded, failures = {}, []
    try:
        for label, op in ops.items():
            tracer = LayerTracer()
            try:
                tracer.install()
                traced = run_pass([op], tracer=tracer)
            finally:
                failures += [f"not restored: {b}" for b in tracer.restore()]
            plain = run_pass([op])
            failures += traced.failures + plain.failures
            if traced.digests != plain.digests:
                failures.append(f"{label}: traced and untraced digests differ")
            recorded[label] = {"digest": plain.digests[0], "epochs": tracer.answer_epochs()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        raise SystemExit("bench: not recorded:\n  " + "\n  ".join(failures[:20]))
    data = {"windows": workloads.WINDOWS, "ops": recorded, "environment": bootstrap.environment()}
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} ops", file=sys.stderr)


if __name__ == "__main__":
    main()
