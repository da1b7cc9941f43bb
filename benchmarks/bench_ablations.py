"""Ablation benchmarks for the design choices DESIGN.md calls out.

* peripheral-window merging (§4.3): MPU regions needed with and
  without the merge-by-adjacency optimisation;
* protection backend (§7): the same OPEC image enforced by the ARM MPU
  vs the RISC-V PMP adapter;
* sanitisation (§5.2): switch cost with and without declared ranges.
"""

from __future__ import annotations

import pytest

import repro.ir as ir
from repro import build_opec, run_image
from repro.apps import ACES_APPS
from repro.eval.workloads import build_app, opec_artifacts
from repro.image.mpu_config import covering_regions
from repro.partition import OperationSpec
from repro.partition.operations import merge_peripheral_windows


def test_window_merging_ablation(benchmark):
    """§4.3: merging adjacent peripherals saves MPU regions."""
    savings = {}

    def sweep():
        for app_name in ACES_APPS:
            artifacts = opec_artifacts(app_name)
            merged = 0
            unmerged = 0
            for op in artifacts.operations:
                windows = merge_peripheral_windows(op.resources.peripherals)
                merged += sum(
                    len(covering_regions(w.base, w.size)) for w in windows)
                unmerged += sum(
                    len(covering_regions(p.base, p.size))
                    for p in op.resources.peripherals)
            savings[app_name] = (unmerged, merged)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for app_name, (before, after) in savings.items():
        print(f"{app_name:10s} MPU pieces: unmerged={before} merged={after}")
    assert all(after <= before for before, after in savings.values())

    # The suite's operations touch scattered peripherals, so the win
    # shows on a driver sweeping adjacent ports (GPIOA..GPIOE):
    from repro.hw import stm32f4_discovery

    board = stm32f4_discovery()
    adjacent = [board.peripheral(n)
                for n in ("GPIOA", "GPIOB", "GPIOC", "GPIOD", "GPIOE")]
    windows = merge_peripheral_windows(adjacent)
    merged_pieces = sum(
        len(covering_regions(w.base, w.size)) for w in windows)
    unmerged_pieces = sum(
        len(covering_regions(p.base, p.size)) for p in adjacent)
    print(f"adjacent GPIO sweep: unmerged={unmerged_pieces} "
          f"merged={merged_pieces}")
    assert merged_pieces < unmerged_pieces


@pytest.mark.parametrize("backend", ["mpu", "pmp"])
def test_protection_backend_ablation(benchmark, backend):
    """§7: OPEC runs unchanged on MPU or PMP; compare enforced runs."""
    app = build_app("PinLock")
    artifacts = opec_artifacts("PinLock")

    def run():
        return run_image(artifacts.image, setup=app.setup,
                         max_instructions=app.max_instructions,
                         backend=backend)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    app.verify_run(result.machine, result.halt_code)
    benchmark.extra_info["cycles"] = result.cycles


def _sanitize_module(with_ranges: bool):
    module = ir.Module("sanbench")
    for i in range(6):
        module.add_global(
            f"g{i}", ir.I32, i,
            sanitize_range=(0, 1000) if with_ranges else None)
    task, b = ir.define(module, "task", ir.VOID, [])
    for i in range(6):
        g = module.get_global(f"g{i}")
        b.store(b.add(b.load(g), 1), g)
    b.ret_void()
    _m, b = ir.define(module, "main", ir.I32, [])
    acc = b.alloca(ir.I32)
    b.store(0, acc)
    with b.for_range(0, 40):
        b.call(task)
    b.halt(b.load(module.get_global("g0")))
    return module


@pytest.mark.parametrize("with_ranges", [False, True],
                         ids=["no-sanitize", "sanitize"])
def test_sanitization_cost_ablation(benchmark, with_ranges):
    """§5.2: per-switch cost of the developer-provided range checks."""
    from repro.hw import stm32f4_discovery

    board = stm32f4_discovery()
    artifacts = build_opec(_sanitize_module(with_ranges), board,
                           [OperationSpec("task")])

    def run():
        return run_image(artifacts.image)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cycles"] = result.cycles
    assert result.halt_code == 40
