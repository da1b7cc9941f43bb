"""Per-function cycle profiler.

Attributes simulated DWT cycles to functions using the interpreter's
enter/exit callbacks — the tool a developer reaches for when choosing
operation entry points ("which tasks are heavy?") or when chasing a
regression in the monitor's switch cost.

Self cycles: spent inside the function's own instructions.
Total cycles: self + everything it called (inclusive time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..image.layout import Image
from ..interp.hooks import RuntimeHooks
from ..interp.interpreter import Interpreter
from ..ir.function import Function
from .report import render_table


@dataclass
class FunctionProfile:
    name: str
    calls: int = 0
    self_cycles: int = 0
    total_cycles: int = 0


@dataclass
class Profile:
    """The finished profile: per-function rows + run totals."""

    functions: dict[str, FunctionProfile] = field(default_factory=dict)
    total_cycles: int = 0
    halt_code: int = 0

    #: Sort keys ``top`` accepts — the numeric FunctionProfile fields.
    SORT_KEYS = ("calls", "self_cycles", "total_cycles")

    def top(self, count: int = 10, by: str = "self_cycles"
            ) -> list[FunctionProfile]:
        if by not in self.SORT_KEYS:
            raise ValueError(
                f"unknown profile sort key {by!r}: expected one of "
                f"{', '.join(self.SORT_KEYS)}")
        # Ties (e.g. two leaf tasks with identical cost) break on the
        # function name, so the ordering is deterministic.
        return sorted(self.functions.values(),
                      key=lambda p: (-getattr(p, by), p.name))[:count]

    def render(self, count: int = 15) -> str:
        rows = []
        for entry in self.top(count):
            share = (100.0 * entry.self_cycles / self.total_cycles
                     if self.total_cycles else 0.0)
            rows.append((entry.name, entry.calls, entry.self_cycles,
                         entry.total_cycles, f"{share:.1f}"))
        return render_table(
            ["Function", "Calls", "Self cycles", "Total cycles", "Self %"],
            rows, title=f"Cycle profile ({self.total_cycles} cycles)")


class CycleProfiler:
    """Attach to an interpreter before running to collect a profile."""

    def __init__(self, machine):
        self.machine = machine
        self.profile = Profile()
        # Stack of (function name, cycles at entry, callee cycles so far).
        self._stack: list[list] = []
        self._last_cycles = 0

    def install(self, interp: Interpreter) -> None:
        interp.on_function_enter = self._on_enter
        interp.on_function_exit = self._on_exit

    def _account_running(self) -> None:
        now = self.machine.cycles
        if self._stack:
            self._stack[-1][2] += now - self._last_cycles
        self._last_cycles = now

    def _on_enter(self, func: Function) -> None:
        self._account_running()
        self._stack.append([func.name, self.machine.cycles, 0])

    def _on_exit(self, func: Function) -> None:
        self._account_running()
        name, entered, self_cycles = self._stack.pop()
        total = self.machine.cycles - entered
        record = self.profile.functions.setdefault(
            name, FunctionProfile(name=name))
        record.calls += 1
        record.self_cycles += self_cycles
        record.total_cycles += total
        # The caller's "running" window resumes now; its own self time
        # continues accumulating from here.

    def finish(self, halt_code: int) -> Profile:
        # Unwind anything still on the stack (main, the halting frame).
        while self._stack:
            self._on_exit_fake()
        self.profile.total_cycles = self.machine.cycles
        self.profile.halt_code = halt_code
        return self.profile

    def _on_exit_fake(self) -> None:
        self._account_running()
        name, entered, self_cycles = self._stack.pop()
        record = self.profile.functions.setdefault(
            name, FunctionProfile(name=name))
        record.calls += 1
        record.self_cycles += self_cycles
        record.total_cycles += self.machine.cycles - entered


def profile_image(image: Image, *, hooks: Optional[RuntimeHooks] = None,
                  setup=None, entry: str = "main",
                  max_instructions: int = 100_000_000) -> Profile:
    """Run ``image`` under the profiler and return the profile.

    The machine and, with ``hooks=None``, the runtime are the ones
    :func:`~repro.pipeline.run_image` would use, so the profile's total
    equals that run's cycles for every image kind.
    """
    from ..pipeline import default_hooks, prepare_machine

    machine = prepare_machine(image, setup=setup)
    if hooks is None:
        hooks = default_hooks(machine, image)
    interp = Interpreter(machine, image, hooks,
                         max_instructions=max_instructions)
    profiler = CycleProfiler(machine)
    profiler.install(interp)
    code = interp.run(entry=entry)
    return profiler.finish(code)
