"""Unit tests for the flight recorder ring buffer and its knobs."""

import pytest

from repro import config
from repro.obs.events import BEGIN, DOMAIN_HOST, DOMAIN_SIM, END, INSTANT
from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    active_recorder,
    attach_crash_context,
    install,
    reset_active,
)


class TestRingBuffer:
    def test_emit_assigns_monotonic_seq(self):
        rec = FlightRecorder()
        events = [rec.instant("k", f"e{i}", i * 10) for i in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]
        assert rec.seq == 5
        assert len(rec) == 5

    def test_capacity_bounds_buffer_and_counts_drops(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.instant("k", f"e{i}", i)
        assert len(rec) == 4
        assert rec.dropped == 6
        assert rec.seq == 10  # emission count survives the drops
        assert [e.name for e in rec.events()] == ["e6", "e7", "e8", "e9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError, match="positive"):
            FlightRecorder(capacity=-3)

    def test_none_ts_falls_back_to_seq(self):
        rec = FlightRecorder()
        rec.instant("k", "host-event", None, domain=DOMAIN_HOST)
        rec.instant("k", "sim-event", 1234)
        host, sim = rec.events()
        assert host.ts == host.seq == 0
        assert sim.ts == 1234

    def test_begin_end_instant_phases(self):
        rec = FlightRecorder()
        assert rec.begin("k", "a", 0).ph == BEGIN
        assert rec.end("k", "a", 1).ph == END
        assert rec.instant("k", "b", 2).ph == INSTANT

    def test_events_filters_by_domain(self):
        rec = FlightRecorder()
        rec.instant("k", "s", 0)
        rec.instant("k", "h", None, domain=DOMAIN_HOST)
        assert [e.name for e in rec.events(DOMAIN_SIM)] == ["s"]
        assert [e.name for e in rec.events(DOMAIN_HOST)] == ["h"]
        assert len(rec.events()) == 2

    def test_tail_returns_most_recent(self):
        rec = FlightRecorder()
        for i in range(6):
            rec.instant("k", f"e{i}", i)
        assert [e.name for e in rec.tail(2)] == ["e4", "e5"]
        assert [e.name for e in rec.tail(100)] == [f"e{i}" for i in range(6)]
        assert rec.tail(0) == []
        assert rec.tail(-1) == []

    def test_clear_resets_everything(self):
        rec = FlightRecorder(capacity=2)
        for i in range(5):
            rec.instant("k", f"e{i}", i)
        rec.clear()
        assert len(rec) == 0
        assert rec.seq == 0
        assert rec.dropped == 0


class TestEnvKnobs:
    def test_trace_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert config.current().trace is False

    @pytest.mark.parametrize("value", ["on", "1", "true", "YES", " Enabled "])
    def test_trace_on_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert config.current().trace is True

    @pytest.mark.parametrize("value", ["", "off", "0", "none", "False"])
    def test_trace_off_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert config.current().trace is False

    def test_unknown_trace_value_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "maybe")
        with pytest.raises(ValueError, match="REPRO_TRACE"):
            config.current().trace

    def test_capacity_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_BUF", raising=False)
        assert config.current().trace_buf == DEFAULT_CAPACITY

    def test_capacity_parses_positive_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BUF", " 1024 ")
        assert config.current().trace_buf == 1024

    @pytest.mark.parametrize("value", ["0", "-5", "x", "1.5"])
    def test_bad_capacity_fails_loudly(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE_BUF", value)
        with pytest.raises(ValueError, match="REPRO_TRACE_BUF"):
            config.current().trace_buf


class TestAmbientRecorder:
    @pytest.fixture(autouse=True)
    def _isolate(self, monkeypatch):
        """Leave the process-global recorder exactly as we found it."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        previous = install(None)
        reset_active()
        yield
        install(previous)

    def test_off_by_default(self):
        assert active_recorder() is None

    def test_env_enables_ambient_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "on")
        monkeypatch.setenv("REPRO_TRACE_BUF", "128")
        reset_active()
        rec = active_recorder()
        assert isinstance(rec, FlightRecorder)
        assert rec.capacity == 128
        assert active_recorder() is rec  # memoised

    def test_install_overrides_and_returns_previous(self):
        mine = FlightRecorder(capacity=8)
        assert install(mine) is None
        assert active_recorder() is mine
        assert install(None) is mine
        assert active_recorder() is None

    def test_reset_rereads_environment(self, monkeypatch):
        assert active_recorder() is None
        monkeypatch.setenv("REPRO_TRACE", "on")
        assert active_recorder() is None  # still memoised
        reset_active()
        assert active_recorder() is not None


class TestCrashContext:
    def test_formats_tail_with_header(self):
        rec = FlightRecorder()
        rec.begin("op.switch", "a->b", 100, args={"from": "a", "to": "b"})
        rec.end("op.switch", "a->b", 250)
        text = rec.crash_context()
        assert text.startswith("flight recorder: last 2 of 2 events")
        assert "op.switch" in text
        assert "from=a" in text and "to=b" in text

    def test_attach_sets_crash_context_and_emits_crash_event(self):
        rec = FlightRecorder()
        rec.instant("k", "before", 10)
        error = RuntimeError("boom")
        attach_crash_context(error, rec, ts=99)
        assert "run.crash" in error.crash_context
        assert "reason=boom" in error.crash_context
        assert "before" in error.crash_context
        assert rec.events()[-1].kind == "run.crash"

    def test_attach_without_recorder_is_noop(self):
        error = RuntimeError("boom")
        attach_crash_context(error, None)
        assert not hasattr(error, "crash_context")

    def test_window_is_bounded(self):
        rec = FlightRecorder()
        for i in range(100):
            rec.instant("k", f"e{i}", i)
        error = RuntimeError("boom")
        attach_crash_context(error, rec, ts=100, count=5)
        assert "e95" not in error.crash_context
        assert "e99" in error.crash_context
