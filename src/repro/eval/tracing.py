"""Per-task execution tracing (§6.4).

The paper single-steps the firmware under GDB to learn which functions
each task actually executes; here the interpreter's function-entry/exit
callbacks provide the same information without the debugger.  A *task
window* opens when a task entry function is entered from outside any
window and closes when that activation returns; every function entered
while the window is open belongs to the task.

Traces record function *names*, not :class:`Function` objects: names
are stable across module copies (the artifact cache rehydrates builds
as fresh objects) and across processes, so a trace taken against one
build can be joined with artifacts of any build of the same firmware
via :meth:`TaskTrace.functions_of`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..image.layout import Image
from ..interp.interpreter import Interpreter
from ..ir.function import Function
from ..obs.recorder import FlightRecorder, trace_capacity
from ..pipeline import RunResult, run_image


@dataclass
class TaskTrace:
    """Executed-function sets per task (unioned over invocations)."""

    executed: dict[str, set[str]] = field(default_factory=dict)
    invocations: dict[str, int] = field(default_factory=dict)

    def names_of(self, task: str) -> set[str]:
        """The names of the functions the task executed."""
        return set(self.executed.get(task, set()))

    def functions_of(self, task: str, module) -> set[Function]:
        """The task's executed functions, resolved *in* ``module``.

        Functions traced under one build are looked up by name in
        whichever module the caller is analysing, so identity-keyed
        queries (resource sets, compartment maps) stay valid.
        """
        return {module.functions[name]
                for name in self.executed.get(task, set())
                if name in module.functions}


class TaskTracer:
    """Installs entry/exit callbacks and collects task windows."""

    def __init__(self, task_entries: list[str]):
        self.entries = set(task_entries)
        self.trace = TaskTrace()
        self._window_task: Optional[str] = None
        self._window_depth = 0
        self._depth = 0
        # Bumped whenever the trace itself grows.
        self._version = 0

    def install(self, interp: Interpreter) -> None:
        interp.on_function_enter = self._on_enter
        interp.on_function_exit = self._on_exit
        interp.callback_state = self._state

    def _state(self) -> tuple:
        return (self._depth, self._window_task, self._version)

    def _on_enter(self, func: Function) -> None:
        self._depth += 1
        if self._window_task is None and func.name in self.entries:
            self._window_task = func.name
            self._window_depth = self._depth
            self.trace.invocations[func.name] = (
                self.trace.invocations.get(func.name, 0) + 1
            )
            self._version += 1
        if self._window_task is not None:
            names = self.trace.executed.setdefault(self._window_task, set())
            if func.name not in names:
                names.add(func.name)
                self._version += 1

    def _on_exit(self, func: Function) -> None:
        if (self._window_task is not None
                and self._depth == self._window_depth
                and func.name == self._window_task):
            self._window_task = None
        self._depth -= 1


def record_app_trace(name: str, kind: str = "opec", *,
                     profile: Optional[str] = None,
                     capacity: Optional[int] = None,
                     backend: Optional[str] = None
                     ) -> tuple[FlightRecorder, RunResult]:
    """Build ``name`` and run it under a dedicated flight recorder.

    The build may be served from the artifact store, but the simulation
    always executes fresh — a cached :class:`RunResult` carries no
    event stream — so the returned recorder holds the complete
    deterministic trace of the run.  ``capacity`` defaults to the
    ``REPRO_TRACE_BUF`` setting; ``backend`` to the ambient
    ``REPRO_BACKEND``.
    """
    from .workloads import (
        aces_artifacts,
        active_profile,
        build_app,
        opec_artifacts,
    )

    profile = profile or active_profile()
    app = build_app(name, profile)
    if kind == "vanilla":
        from ..pipeline import build_vanilla

        image = build_vanilla(app.module, app.board)
    elif kind == "opec":
        image = opec_artifacts(name, profile).image
    else:
        image = aces_artifacts(name, kind, profile).image
    recorder = FlightRecorder(capacity if capacity is not None
                              else trace_capacity())
    result = run_image(image, setup=app.setup,
                       max_instructions=app.max_instructions,
                       recorder=recorder, backend=backend)
    app.verify_run(result.machine, result.halt_code)
    return recorder, result


def trace_tasks(image: Image, task_entries: list[str], *,
                setup=None, max_instructions: int = 200_000_000
                ) -> tuple[TaskTrace, RunResult]:
    """Run ``image`` (typically the vanilla build) and trace tasks."""
    tracer = TaskTracer(task_entries)

    from ..hw.machine import Machine
    from ..interp.hooks import RuntimeHooks

    machine = Machine(image.board)
    if setup is not None:
        setup(machine)
    image.initialize_memory(machine)
    interp = Interpreter(machine, image, RuntimeHooks(),
                         max_instructions=max_instructions)
    tracer.install(interp)
    code = interp.run()
    result = RunResult(halt_code=code, cycles=machine.cycles,
                       machine=machine, interpreter=interp,
                       hooks=interp.hooks)
    return tracer.trace, result
