"""The cache contract: a warm hit is byte-identical to a cold build.

Each test points ``REPRO_CACHE`` at a private directory, cold-builds
real applications (populating the store), then rebuilds and compares
the canonical forms the evaluation depends on — image memory bytes,
the §4.3 policy document, the points-to solution, simulated cycles.
"""

from collections import Counter

import pytest

from repro import cache
from repro.eval import workloads
from repro.hw import Machine
from repro.image.policyfile import dump_policy
from repro.ir import print_module
from repro.pipeline import build_opec, build_vanilla, run_image

APPS = ("PinLock", "CoreMark")


@pytest.fixture
def private_store(tmp_path, monkeypatch):
    """A fresh store for one test, with every in-process memo reset so
    the second build genuinely comes off the disk."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
    workloads.clear_caches()
    cache.reset_store_state()
    yield cache.active_store()
    workloads.clear_caches()
    cache.reset_store_state()


def _memory_bytes(image):
    """Flash + SRAM contents after programming a fresh machine."""
    machine = Machine(image.board)
    image.initialize_memory(machine)
    board = image.board
    return (machine.read_bytes(board.flash_base, image.flash_used())
            + machine.read_bytes(board.sram_base, image.sram_used()))


def _points_to_summary(andersen) -> Counter:
    """Order- and identity-insensitive rendering of the solution."""
    return Counter(
        (repr(value), tuple(sorted(repr(obj) for obj in objects)))
        for value, objects in andersen._pts.items())


@pytest.mark.parametrize("name", APPS)
def test_opec_warm_build_is_byte_identical(name, private_store):
    app = workloads.build_app(name, profile="quick")
    cold = build_opec(app.module, app.board, app.specs)
    assert not cold.cache_hit
    warm = build_opec(app.module, app.board, app.specs)
    assert warm.cache_hit
    assert warm.cache_digest == cold.cache_digest
    assert warm.module is not cold.module  # rehydrated copy...
    assert print_module(warm.module) == print_module(cold.module)
    assert dump_policy(warm.image) == dump_policy(cold.image)
    assert _memory_bytes(warm.image) == _memory_bytes(cold.image)
    assert (_points_to_summary(warm.andersen)
            == _points_to_summary(cold.andersen))
    cold_run = run_image(cold.image, setup=app.setup,
                         max_instructions=app.max_instructions)
    warm_run = run_image(warm.image, setup=app.setup,
                         max_instructions=app.max_instructions)
    assert (warm_run.halt_code, warm_run.cycles) == \
        (cold_run.halt_code, cold_run.cycles)


@pytest.mark.parametrize("name", APPS)
def test_vanilla_warm_build_is_byte_identical(name, private_store):
    app = workloads.build_app(name, profile="quick")
    cold = build_vanilla(app.module, app.board)
    warm = build_vanilla(app.module, app.board)
    assert warm is not cold
    assert _memory_bytes(warm) == _memory_bytes(cold)


def test_warm_vanilla_image_resolves_live_module_globals(private_store):
    """A store-served image carries an unpickled copy of the module;
    globals of the caller's live module must still resolve (by name)."""
    app = workloads.build_app("PinLock", profile="quick")
    key = app.module.get_global("KEY")
    cold = build_vanilla(app.module, app.board)
    warm = build_vanilla(app.module, app.board)
    assert warm.module is not app.module  # served from the store
    assert warm.global_address(key) == cold.global_address(key)
    assert warm.global_address(key) == warm.global_address(
        warm.module.get_global("KEY"))


def test_run_results_are_cached_and_identical(private_store):
    cold = workloads.run_build("PinLock", "opec", profile="quick")
    before = cache.counters_snapshot()
    workloads.clear_caches()  # drop the in-process memo, keep the disk
    warm = workloads.run_build("PinLock", "opec", profile="quick")
    assert cache.counters_delta(before)["hits"] > 0
    assert (warm.halt_code, warm.cycles) == (cold.halt_code, cold.cycles)


def test_off_disables_the_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    workloads.clear_caches()
    app = workloads.build_app("PinLock", profile="quick")
    first = build_opec(app.module, app.board, app.specs)
    second = build_opec(app.module, app.board, app.specs)
    assert not first.cache_hit and not second.cache_hit
    assert first.cache_digest == "" and second.cache_digest == ""
    assert second.module is app.module  # no rehydration without a store
    workloads.clear_caches()


def test_corrupt_store_entry_recovers_with_cold_build(private_store):
    app = workloads.build_app("PinLock", profile="quick")
    cold = build_opec(app.module, app.board, app.specs)
    path = private_store.path_for(cold.cache_digest)
    path.write_bytes(b"opec-cache-v1\n" + b"0" * 64 + b"\ngarbage")
    rebuilt = build_opec(app.module, app.board, app.specs)
    assert not rebuilt.cache_hit  # corruption fell back to a cold build
    assert private_store.counters.corrupt == 1
    assert dump_policy(rebuilt.image) == dump_policy(cold.image)
    warm = build_opec(app.module, app.board, app.specs)
    assert warm.cache_hit  # the rebuild restored the entry
