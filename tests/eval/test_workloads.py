"""Tests for workload profiles and build/run caching."""

import pytest

from repro.eval import workloads
from repro.fanout import env_jobs


def test_profiles_change_workload_scale():
    quick = workloads.build_app("PinLock", profile="quick")
    paper = workloads.build_app("PinLock", profile="paper")
    assert quick.module is not paper.module
    # Same structure, different stop conditions (rounds compiled into
    # main's loop bound).
    assert len(quick.specs) == len(paper.specs)


def test_builds_are_cached_per_profile():
    a = workloads.build_app("PinLock", profile="quick")
    b = workloads.build_app("PinLock", profile="quick")
    assert a is b
    artifacts_a = workloads.opec_artifacts("PinLock", profile="quick")
    artifacts_b = workloads.opec_artifacts("PinLock", profile="quick")
    assert artifacts_a is artifacts_b


def test_artifacts_are_internally_consistent():
    """With the content-addressed store, a warm build's objects are
    fresh copies rather than the app's own module — but every object
    *inside* one artifact bundle must reference the same module."""
    artifacts = workloads.opec_artifacts("PinLock", profile="quick")
    assert artifacts.image.module is artifacts.module
    for op in artifacts.operations:
        for func in op.functions:
            assert artifacts.module.functions[func.name] is func
    aces = workloads.aces_artifacts("PinLock", "ACES2", profile="quick")
    assert aces.image.module is aces.module
    for compartment in aces.compartments:
        for func in compartment.functions:
            assert aces.module.functions[func.name] is func


def test_build_app_rejects_unknown_profile(monkeypatch):
    with pytest.raises(ValueError, match="unknown workload profile"):
        workloads.build_app("PinLock", profile="fast")
    monkeypatch.setenv("REPRO_PROFILE", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        workloads.build_app("CoreMark")


def test_run_cache_returns_same_result():
    first = workloads.run_build("PinLock", "vanilla", profile="quick")
    second = workloads.run_build("PinLock", "vanilla", profile="quick")
    assert first is second


def test_clear_caches_resets():
    workloads.build_app("PinLock", profile="quick")
    workloads.clear_caches()
    rebuilt = workloads.build_app("PinLock", profile="quick")
    assert rebuilt is workloads.build_app("PinLock", profile="quick")


def test_active_profile_env(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "paper")
    assert workloads.active_profile() == "paper"
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    assert workloads.active_profile() == "quick"


def test_repro_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert env_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert env_jobs() == 4
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert env_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "bogus")
    with pytest.raises(ValueError, match="invalid worker count"):
        env_jobs()
    monkeypatch.setenv("REPRO_JOBS", "-3")
    with pytest.raises(ValueError, match="invalid worker count"):
        env_jobs()


def test_compute_all_rows_sections_and_order():
    rows = workloads.compute_all_rows(jobs=1)
    assert set(rows) == {"table1", "figure9", "table2", "figure10",
                         "figure11", "table3", "cache", "compile",
                         "telemetry"}
    assert set(rows["cache"]) == {"hits", "misses", "stores", "corrupt",
                                  "bytes_read", "bytes_written"}
    # Envelope protocol: conductor first, then one per app in order.
    envelopes = rows["telemetry"]
    assert [env.label for env in envelopes] == \
        ["conductor", *workloads.APP_NAMES]
    assert [env.worker for env in envelopes] == \
        list(range(len(workloads.APP_NAMES) + 1))
    assert [r.app for r in rows["table1"]] == \
        [*workloads.APP_NAMES, "Average"]
    assert [r.app for r in rows["table3"]] == list(workloads.APP_NAMES)


def test_compute_all_rows_aggregates_compile_metrics(monkeypatch):
    """Interpreter compile metrics used to die with each worker's
    interpreters; ``compute_all_rows`` must fold them into the merged
    output.  Cache off so the runs actually execute (and compile);
    compilation pinned on so the counters are nonzero even when the CI
    matrix runs the suite with the tiers disabled."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_BLOCKCOMPILE", "on")
    monkeypatch.setenv("REPRO_TRACEFUSE", "on")
    workloads.clear_caches()
    try:
        rows = workloads.compute_all_rows(jobs=1)
        compile_totals = rows["compile"]
        assert compile_totals.get("blockcompile.blocks_compiled", 0) > 0
        assert compile_totals.get("blockcompile.block_entries", 0) > 0
        assert compile_totals.get("idle.skips", 0) > 0
        assert list(compile_totals) == sorted(compile_totals)
    finally:
        workloads.clear_caches()


def test_idle_skip_counters_attribute_the_saving(monkeypatch):
    """TCP-Echo/opec spends its waits in a fast-forwarded polling loop;
    a generated campaign firmware polls no paced device and skips
    nothing.  Both reach the telemetry envelope's compile counters."""
    from repro.campaign.engine import CampaignConfig, evaluate_firmware
    from repro.obs import fleet

    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_BLOCKCOMPILE", "on")
    workloads.clear_caches()
    try:
        token = fleet.begin_capture()
        workloads.run_build("TCP-Echo", "opec", profile="quick",
                            backend="mpu")
        echo = fleet.end_capture(token).compile_counters
        token = fleet.begin_capture()
        evaluate_firmware(CampaignConfig(firmwares=1, attacks=("global",),
                                         backends=("mpu",)), 0)
        campaign = fleet.end_capture(token).compile_counters
    finally:
        workloads.clear_caches()
    assert echo["idle.skips"] > 0
    assert echo["idle.iterations_skipped"] > echo["idle.skips"]
    assert echo["idle.cycles_skipped"] > 0
    # Envelopes keep nonzero counters only: the campaign's interpreters
    # did report (block entries), with no idle skip among them.
    assert campaign["blockcompile.block_entries"] > 0
    assert "idle.skips" not in campaign


def test_compute_all_rows_parallel_merge_identical():
    """The REPRO_JOBS fan-out contract: a process-pool evaluation must
    merge into exactly the rows the serial path computes (row
    dataclasses compare by value, floats included)."""
    serial = workloads.compute_all_rows(jobs=1)
    parallel = workloads.compute_all_rows(jobs=2)
    # Cache traffic, compile activity, and the telemetry envelopes
    # legitimately differ between the two paths (the serial pass warms
    # the in-process memos the parallel workers cannot see); every
    # *table* must merge identically.
    for diagnostic in ("cache", "compile", "telemetry"):
        serial.pop(diagnostic)
        parallel.pop(diagnostic)
    assert serial == parallel
