"""In-memory span tracer that wraps the program's layer entry points.

The program itself carries no tracing for this: the tracer replaces
each entry point listed in :data:`layers.SPANS` with a wrapper that
records ``(name, start, end, parent)``, at the defining module *and*
at every name another ``repro`` module bound it under, so
``from .x import f`` callers are traced as well.  Methods are replaced
on their class.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import statistics
import sys
import time
from collections import defaultdict

from layers import CALLS, COUNTS, INCLUSIVE_TIME, SELF_TIME, SPANS


def import_all_repro_modules() -> None:
    """Import every ``repro`` submodule, so the by-name rebinding in
    :meth:`Tracer.install` sees all bindings a run could go through."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.counts: dict[str, int] = defaultdict(int)
        self.instructions = 0
        self.sim = defaultdict(int)    # simulated counters (hw.*)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.instructions = 0
        self.sim = defaultdict(int)
        self._stack = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if after is not None:
                    after(args)

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_machine(self, interpreter) -> None:
        machine = interpreter.machine
        self.instructions += interpreter.instructions_executed
        stats = machine.stats
        self.sim["hw.loads"] += stats.loads
        self.sim["hw.stores"] += stats.stores
        self.sim["hw.faults"] += stats.memmanage_faults + stats.bus_faults
        self.sim["hw.cycles"] += machine.cycles

    def _after_interpreter_run(self, args) -> None:
        self._note_machine(args[0])

    def _after_batch_run(self, args) -> None:
        for lane in args[0].lanes:
            self._note_machine(lane.interpreter)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        import_all_repro_modules()
        after = {"Interpreter.run": self._after_interpreter_run,
                 "BatchRunner.run": self._after_batch_run}
        for name, module, path in SPANS:
            self._replace(module, path,
                          lambda fn, n=name, p=path:
                          self._span(n, fn, after.get(p)))
        for name, module, path in COUNTS:
            self._replace(module, path,
                          lambda fn, n=name: self._counter(n, fn))

    def _replace(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._set(owner, attr, make(vars(owner)[attr]))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus direct
        children's durations)."""
        spans = [span for span in self.spans if span is not None]
        child = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is not None:
                name, start, end, _parent = span
                totals[name] += (end - start) - child[index]
        return totals

    def durations(self, name: str) -> list[float]:
        return [span[2] - span[1] for span in self.spans
                if span is not None and span[0] == name]

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span is not None:
                counts[span[0]] += 1
        return counts

    def layer_metrics(self) -> dict[str, float]:
        """Every metric this tracer measures directly (spans, counts,
        simulated counters), keyed by metric name."""
        self_time = self.self_times()
        calls = self.calls()
        metrics: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            metrics[metric] = sum(self_time.get(name, 0.0) for name in names)
        for metric, names in INCLUSIVE_TIME.items():
            metrics[metric] = sum(sum(self.durations(name)) for name in names)
        for metric, names in CALLS.items():
            metrics[metric] = sum(calls.get(name, 0) for name in names)
        metrics["hw.mmio_reads"] = self.counts.get("hw.mmio_reads", 0)
        metrics.update({key: self.sim.get(key, 0) for key in
                        ("hw.loads", "hw.stores", "hw.faults", "hw.cycles")})
        metrics["interp.instructions"] = self.instructions
        run_total = sum(self.durations("interp.run"))
        metrics["interp.insts_per_s"] = (self.instructions / run_total
                                         if run_total else 0.0)
        firmware = self.durations("campaign.firmware")
        metrics["campaign.firmware_p50_s"] = (statistics.median(firmware)
                                              if firmware else 0.0)
        metrics["campaign.firmware_p90_s"] = (
            statistics.quantiles(firmware, n=10)[8]
            if len(firmware) > 1 else (firmware[0] if firmware else 0.0))
        return metrics

    def write(self, path, rep: int) -> None:
        """Append this rep's spans to a gzip JSON-lines file."""
        with gzip.open(path, "at", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                handle.write(json.dumps([rep, index, name, start, end,
                                         parent]) + "\n")
