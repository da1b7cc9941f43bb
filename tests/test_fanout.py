"""Tests for the one process fan-out and its worker-count parsing."""

import os

import pytest

from repro import config
from repro.fanout import fanout, split
from repro.obs.events import DOMAIN_HOST, FLEET_DISPATCH
from repro.obs.recorder import FlightRecorder


def _tagged(item):
    return item, os.getpid()


class TestValidateJobs:
    def test_rejects_non_positive(self):
        for bad in (0, -2, "0", "nope", None):
            with pytest.raises(ValueError,
                               match="invalid worker count"):
                config.positive_int(bad, "worker count", "--jobs")

    def test_accepts_positive(self):
        assert config.positive_int(3, "worker count", "jobs") == 3
        assert config.positive_int("2", "worker count", "--jobs") == 2


class TestSplit:
    def test_contiguous_near_equal_slices(self):
        assert split(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert split(list(range(7)), 6) == [[0, 1], [2], [3], [4], [5],
                                            [6]]
        assert split(list(range(4)), 1) == [[0, 1, 2, 3]]


class TestFanout:
    def test_results_in_item_order_for_any_worker_count(self):
        items = list(range(7))
        for jobs in (1, 2, 3):
            assert [item for item, _ in fanout(_tagged, items, jobs)] \
                == items

    def test_one_worker_runs_in_process(self):
        assert {pid for _, pid in fanout(_tagged, range(3), 1)} \
            == {os.getpid()}

    def test_each_worker_takes_one_contiguous_chunk(self):
        results = fanout(_tagged, range(6), 2)
        pids = [pid for _, pid in results]
        assert pids[:3] == [pids[0]] * 3
        assert pids[3:] == [pids[3]] * 3
        assert os.getpid() not in pids

    def test_empty_items(self):
        assert fanout(_tagged, [], 4) == []

    def test_jobs_default_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            fanout(_tagged, [1])

    def test_explicit_jobs_validated(self):
        with pytest.raises(ValueError, match="invalid worker count"):
            fanout(_tagged, [1], 0)

    def test_records_one_dispatch_span_per_chunk(self):
        for jobs in (1, 2):
            recorder = FlightRecorder(16)
            fanout(_tagged, range(4), jobs, recorder=recorder)
            events = recorder.events()
            assert all(e.kind == FLEET_DISPATCH and e.domain == DOMAIN_HOST
                       for e in events)
            assert sorted((e.name, e.ph) for e in events) == sorted(
                (f"worker{n}", ph) for n in range(1, jobs + 1)
                for ph in "BE")
