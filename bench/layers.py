"""Outside-in layer tracing of the pcmxbar package.

``LayerTracer.install`` replaces every module-level binding of each target
function, found by object identity across the loaded ``pcmxbar`` modules
(``pcmxbar.__main__`` excepted), with a timing wrapper. A call made through
``from .hopfield import run_learning`` is therefore seen as well as one made
through ``hopfield.run_learning``. ``restore`` puts the original bindings
back. Spans (name, start, end, parent) stay in memory; the caller writes
them out at the end. A target the package no longer defines is reported as
absent, never as zero.

Metric names drop the leading underscore of ``_io`` (``io.write_csv``).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

from workloads import invariant_problems

TARGETS = {
    "device": ("decay_log_steps", "apply_gradual_set", "apply_full_set", "apply_full_reset"),
    "crossbar": ("build_array", "apply_update_phase", "read_recall_currents", "resistance_map"),
    "hopfield": ("compute_threshold", "train_epoch", "run_learning", "run_two_pattern_protocol"),
    "metrics": ("variation_sweep", "read_voltage_sensitivity"),
    "harness": ("sweep_figures", "characterize_device"),
    "config": ("default_run_config", "config_hash"),
    "_io": ("write_csv", "write_json"),
    "cli": ("main",),
}
TARGET_NAMES = tuple(
    f"{module.lstrip('_')}.{fn}" for module, fns in TARGETS.items() for fn in fns
)
COUNTERS = (
    "crossbar.pulses",
    "hopfield.epochs",
    "hopfield.nonconverged",
    "io.bytes_written",
    "harness.unique_run_ratio",
)


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "pcmxbar" and name != "pcmxbar.__main__" and module is not None
    ]


class LayerTracer:
    """Wraps the targets for one traced pass and accumulates what they did."""

    def __init__(self):
        self.spans: list = []
        self.stats = {name: [0, 0] for name in TARGET_NAMES}  # calls, self ns
        self.absent: list[str] = []
        self.pulses = 0
        self.bytes_written = 0
        self.runs: list[tuple[tuple, int, bool]] = []  # (seed, cv, pattern), epochs, converged
        self.problems: list[str] = []
        self._stack: list[list[int]] = []
        self._patched: list = []
        self._after = {
            "crossbar.apply_update_phase": self._count_pulses,
            "hopfield.run_learning": self._check_run,
            "io.write_csv": self._count_bytes,
            "io.write_json": self._count_bytes,
        }

    # -- bindings ---------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for module_name in TARGETS:
            try:
                targets[module_name] = importlib.import_module(f"pcmxbar.{module_name}")
            except ModuleNotFoundError:
                targets[module_name] = None
        modules = _package_modules()
        for module_name, fns in TARGETS.items():
            module = targets[module_name]
            for fn_name in fns:
                name = f"{module_name.lstrip('_')}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    del self.stats[name]
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def restore(self) -> list[str]:
        """Put every original binding back; returns the bindings that did not return."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        stuck = [
            f"{mod.__name__}.{attr}"
            for mod, attr, original in self._patched
            if getattr(mod, attr) is not original
        ]
        self._patched.clear()
        return stuck

    def _wrap(self, name: str, fn):
        stat = self.stats.get(name, [0, 0])
        spans, stack = self.spans, self._stack
        after = self._after.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, label: str, fn):
        """Call ``fn`` under a root span named after the op."""
        return self._wrap(f"op {label}", fn)()

    # -- counters and checks ----------------------------------------------

    def _count_pulses(self, args, kwargs, result) -> None:
        self.pulses += len(result[0])

    def _count_bytes(self, args, kwargs, result) -> None:
        self.bytes_written += os.path.getsize(args[0] if args else kwargs["path"])

    def _check_run(self, args, kwargs, trace) -> None:
        key = (trace.seed, trace.variation_cv, trace.pattern.pixels)
        self.runs.append((key, len(trace.epochs), trace.converged))
        e_prog = (args[0] if args else kwargs["array"]).params.e_prog
        self.problems += invariant_problems(
            f"run_learning seed={trace.seed} cv={trace.variation_cv}",
            trace.program_energy, trace.program_event_count,
            ((ep.epoch_index, ep.program_energy, ep.program_event_count, ep.false_firings)
             for ep in trace.epochs),
            e_prog,
        )

    def take_problems(self) -> list[str]:
        problems, self.problems = self.problems, []
        return problems

    def counters(self) -> dict:
        out = {
            "crossbar.pulses": self.pulses,
            "hopfield.epochs": sum(epochs for _, epochs, _ in self.runs),
            "hopfield.nonconverged": sum(not converged for _, _, converged in self.runs),
            "io.bytes_written": self.bytes_written,
        }
        if self.runs:
            out["harness.unique_run_ratio"] = len({key for key, _, _ in self.runs}) / len(self.runs)
        return out

    def answer_epochs(self) -> int:
        """Epochs the outputs need: each distinct (seed, cv, pattern) run once, at its longest.

        A rerun of a run already simulated adds nothing, since per-epoch
        child streams make its epochs repeat exactly.
        """
        longest: dict = {}
        for key, epochs, _ in self.runs:
            longest[key] = max(epochs, longest.get(key, 0))
        return sum(longest.values())
