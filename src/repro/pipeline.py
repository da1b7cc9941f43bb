"""End-to-end build-and-run facade.

Mirrors Figure 5: source (an IR module) + the developer's entry list →
static analyses → operation partitioning → policy → image generation;
then the image runs on a simulated machine under the chosen runtime
(vanilla baseline or OPEC-Monitor).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import config
from .analysis.andersen import AndersenResult, run_andersen
from .analysis.callgraph import CallGraph, build_call_graph
from .analysis.resources import ResourceAnalysis
from .cache import active_store, build_digest
from .hw.backend import BackendSpec
from .hw.board import Board
from .hw.machine import Machine
from .image.layout import (
    DEFAULT_HEAP_SIZE,
    DEFAULT_STACK_SIZE,
    Image,
    VanillaImage,
    build_vanilla_image,
)
from .image.linker import OpecImage, build_opec_image
from .interp.hooks import RuntimeHooks
from .interp.interpreter import Interpreter
from .ir.module import Module
from .ir.verifier import verify_module
from .obs.events import BUILD_STAGE, DOMAIN_HOST
from .obs.recorder import FlightRecorder, active_recorder
from .partition.operations import Operation, OperationSpec, partition_operations
from .partition.policy import SystemPolicy, build_policy
from .runtime.monitor import OpecMonitor


@dataclass
class BuildArtifacts:
    """Everything the compiler stage produced for one OPEC build."""

    module: Module
    board: Board
    andersen: AndersenResult
    callgraph: CallGraph
    resources: ResourceAnalysis
    operations: list[Operation]
    policy: SystemPolicy
    image: OpecImage
    # Host wall-clock seconds per compiler stage (verify / andersen /
    # callgraph / resources / partition / policy / image) — diagnostic
    # only, never part of the determinism contract.  A cache hit
    # replaces the map with a single "cache_load" entry.
    stage_times: dict[str, float] = field(default_factory=dict)
    # Content-addressed cache bookkeeping: the structural digest this
    # build is stored under, and whether it was served from the store.
    cache_digest: str = ""
    cache_hit: bool = False


def build_opec(
    module: Module,
    board: Board,
    specs: Sequence[OperationSpec],
    *,
    stack_size: int = DEFAULT_STACK_SIZE,
    heap_size: int = DEFAULT_HEAP_SIZE,
    verify: bool = True,
) -> BuildArtifacts:
    """Run the full OPEC-Compiler pipeline (Figure 5, stage I).

    Consults the content-addressed artifact store first: a hit returns
    a deep copy of a previous build of the same (module, board, specs,
    flavour, pipeline version) — byte-identical images and analysis
    results without re-running any stage.  Note that a hit's objects
    are *fresh* copies: ``artifacts.module`` is equal to, but not the
    same object as, the ``module`` argument.
    """
    store = active_store()
    digest = ""
    if store is not None:
        start = time.perf_counter()
        digest = build_digest("opec", module, board, specs=specs,
                              stack_size=stack_size, heap_size=heap_size,
                              verify=verify)
        cached = store.get(digest)
        if cached is not None:
            cached.stage_times = {"cache_load": time.perf_counter() - start}
            cached.cache_digest = digest
            cached.cache_hit = True
            return cached

    stage_times: dict[str, float] = {}
    recorder = active_recorder()

    def timed(stage: str, thunk):
        if recorder is not None:
            recorder.begin(BUILD_STAGE, stage, None, DOMAIN_HOST,
                           args={"flavour": "opec",
                                 "module": module.name})
        start = time.perf_counter()
        result = thunk()
        stage_times[stage] = time.perf_counter() - start
        if recorder is not None:
            # Host-side wall clock: diagnostic only, never part of a
            # deterministic export (sim-domain exports drop host events).
            recorder.end(BUILD_STAGE, stage, None, DOMAIN_HOST,
                         args={"wall_us": int(stage_times[stage] * 1e6)})
        return result

    if verify:
        timed("verify", lambda: verify_module(module))
    andersen = timed("andersen", lambda: run_andersen(module))
    graph = timed("callgraph", lambda: build_call_graph(module, andersen))
    resources = ResourceAnalysis(module, board, andersen)
    # Pre-warm the per-function cache so "resources" carries the slicing
    # cost and "partition" is pure reachability + merging.
    timed("resources", lambda: [resources.function_resources(f)
                                for f in module.iter_functions()])
    operations = timed("partition", lambda: partition_operations(
        module, graph, specs, resources))
    policy = timed("policy", lambda: build_policy(module, operations))
    image = timed("image", lambda: build_opec_image(
        module, board, policy, stack_size=stack_size, heap_size=heap_size))
    artifacts = BuildArtifacts(
        module=module, board=board, andersen=andersen, callgraph=graph,
        resources=resources, operations=operations, policy=policy,
        image=image, stage_times=stage_times, cache_digest=digest,
    )
    if store is not None:
        store.put(digest, artifacts)
    return artifacts


def build_vanilla(module: Module, board: Board, *,
                  stack_size: int = DEFAULT_STACK_SIZE,
                  heap_size: int = DEFAULT_HEAP_SIZE,
                  verify: bool = True) -> VanillaImage:
    """The unprotected baseline build (cached like ``build_opec``)."""
    store = active_store()
    digest = ""
    if store is not None:
        digest = build_digest("vanilla", module, board,
                              stack_size=stack_size, heap_size=heap_size,
                              verify=verify)
        cached = store.get(digest)
        if cached is not None:
            return cached
    recorder = active_recorder()
    if recorder is not None:
        recorder.begin(BUILD_STAGE, "vanilla", None, DOMAIN_HOST,
                       args={"flavour": "vanilla", "module": module.name})
    stage_start = time.perf_counter()
    if verify:
        verify_module(module)
    image = build_vanilla_image(module, board,
                                stack_size=stack_size, heap_size=heap_size)
    if recorder is not None:
        recorder.end(BUILD_STAGE, "vanilla", None, DOMAIN_HOST,
                     args={"wall_us": int(
                         (time.perf_counter() - stage_start) * 1e6)})
    if store is not None:
        store.put(digest, image)
    return image


@dataclass
class RunResult:
    """Outcome of one simulated firmware run."""

    halt_code: int
    cycles: int
    machine: Machine
    interpreter: Interpreter
    hooks: RuntimeHooks


def default_hooks(machine: Machine, image: Image) -> Optional[RuntimeHooks]:
    """The runtime an image gets when the caller passes ``hooks=None``.

    OPEC images get a fresh monitor, ACES images their compartment
    runtime, vanilla images the no-op default (``None`` here; the
    interpreter substitutes ``RuntimeHooks()``).  Shared by
    :func:`run_image` and the batch runner so a batched lane runs
    under exactly the runtime a solo run would.
    """
    if isinstance(image, OpecImage):
        return OpecMonitor(machine, image)
    if image.kind == "aces":
        from .baselines.aces.runtime import AcesRuntime

        return AcesRuntime(machine, image)
    return None


def prepare_machine(
    image: Image,
    *,
    setup: Optional[Callable[[Machine], None]] = None,
    recorder: Optional[FlightRecorder] = None,
    backend: Optional[BackendSpec] = None,
) -> Machine:
    """Build and initialise a fresh machine for ``image`` (no run)."""
    machine = Machine(image.board,
                      backend=backend if backend is not None
                      else config.current().backend)
    machine.recorder = recorder if recorder is not None \
        else active_recorder()
    if setup is not None:
        setup(machine)
    image.initialize_memory(machine)
    return machine


def run_image(
    image: Image,
    *,
    hooks: Optional[RuntimeHooks] = None,
    setup: Optional[Callable[[Machine], None]] = None,
    entry: str = "main",
    max_instructions: int = 100_000_000,
    recorder: Optional[FlightRecorder] = None,
    backend: Optional[BackendSpec] = None,
    block_compile: Optional[bool] = None,
    trace_fuse: bool = True,
) -> RunResult:
    """Load ``image`` onto a fresh machine and run it to halt.

    ``setup`` attaches device models and feeds host-side stimuli; for
    OPEC images pass ``hooks=None`` to get a monitor automatically.
    ``recorder`` attaches a flight recorder to the machine; when left
    ``None`` the ambient recorder (``REPRO_TRACE``) applies.
    ``backend`` selects the enforcement substrate (name or instance);
    when left ``None`` the ambient ``REPRO_BACKEND`` applies.
    ``block_compile`` overrides superinstruction execution; when left
    ``None`` the ambient ``REPRO_BLOCKCOMPILE`` (default on) applies.
    ``trace_fuse=False`` turns loop-trace fusion off (it is on by
    default, and inert without block compilation).
    """
    machine = prepare_machine(image, setup=setup, recorder=recorder,
                              backend=backend)
    if hooks is None:
        hooks = default_hooks(machine, image)
    interp = Interpreter(machine, image, hooks,
                         max_instructions=max_instructions,
                         block_compile=block_compile,
                         trace_fuse=trace_fuse)
    code = interp.run(entry=entry)
    return RunResult(
        halt_code=code, cycles=machine.cycles, machine=machine,
        interpreter=interp, hooks=interp.hooks,
    )
