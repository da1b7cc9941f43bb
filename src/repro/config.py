"""The run configuration: every ``REPRO_*`` knob, parsed in one place.

This is the only module in :mod:`repro` that reads the environment.
:func:`current` turns ``os.environ`` into a frozen :class:`RunConfig`,
validating every knob and naming it in any error; code that falls back
to an ambient setting (a ``None`` argument) asks :func:`current` for
it.  ``repro.cli.main`` calls :func:`current` before it dispatches, so
a misspelt value fails every verb before any build or simulation.

:data:`KNOBS` names the variable behind each :class:`RunConfig` field;
README.md, "Configuration knobs", gives each one's default and meaning
(a tier-1 test keeps that table and the fields in step).

On/off knobs accept ``on``/``1``/``true``/``yes``/``enabled`` and
``off``/``0``/``none``/``false``/``disabled``, in any case; an empty
value means the default.  :func:`current` re-reads the environment on
every call and memoises nothing, so a setting changed mid-process
(tests, or a benchmark switching stores between runs) takes effect at
the next ambient lookup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

KNOWN_PROFILES = ("paper", "quick")
KNOWN_BACKENDS = ("mpu", "pmp", "overlay")
DEFAULT_BACKEND = "mpu"
DEFAULT_CAPACITY = 65536
DEFAULT_CACHE_ROOT = ".repro-cache"

ON_VALUES = frozenset({"on", "1", "true", "yes", "enabled"})
OFF_VALUES = frozenset({"off", "0", "none", "false", "disabled"})


def on_off(raw: str, knob: str, default: bool) -> bool:
    """Parse an on/off knob value; empty means ``default``."""
    value = raw.strip().lower()
    if not value:
        return default
    if value in ON_VALUES:
        return True
    if value in OFF_VALUES:
        return False
    raise ValueError(
        f"unknown {knob} setting {raw!r}: expected one of "
        f"{', '.join(sorted(ON_VALUES))} or "
        f"{', '.join(sorted(OFF_VALUES))}")


def positive_int(value, what: str, source: str) -> int:
    """Parse a positive integer, naming ``what`` it counts and the
    ``source`` (knob or flag) it came from in any error."""
    try:
        number = int(value)
    except (TypeError, ValueError):
        number = 0
    if number <= 0:
        raise ValueError(
            f"invalid {what} {value!r} ({source}): "
            "expected a positive integer")
    return number


def _choice(raw: str, knob: str, what: str, known: tuple[str, ...],
            default: str) -> str:
    value = raw.strip().lower() or default
    if value not in known:
        raise ValueError(
            f"unknown {what} {value!r} ({knob}): "
            f"expected one of {', '.join(known)}")
    return value


def _jobs(raw: str, knob: str) -> int:
    value = raw.strip().lower() or "1"
    if value in ("0", "auto"):
        return os.cpu_count() or 1
    return positive_int(value, "worker count", knob)


def _capacity(raw: str, knob: str) -> int:
    value = raw.strip()
    return positive_int(value, "ring capacity", knob) if value \
        else DEFAULT_CAPACITY


def _cache(raw: str, _knob: str) -> Optional[Path]:
    value = raw.strip()
    if value.lower() in OFF_VALUES:
        return None
    return Path(value or DEFAULT_CACHE_ROOT)


#: The environment variable behind each :class:`RunConfig` field.
KNOBS = {
    "profile": "REPRO_PROFILE",
    "jobs": "REPRO_JOBS",
    "cache": "REPRO_CACHE",
    "trace": "REPRO_TRACE",
    "trace_buf": "REPRO_TRACE_BUF",
    "backend": "REPRO_BACKEND",
    "block_compile": "REPRO_BLOCKCOMPILE",
}


@dataclass(frozen=True)
class RunConfig:
    """One validated reading of the ``REPRO_*`` knobs."""

    profile: str = "paper"
    jobs: int = 1
    #: Artifact-store root, or ``None`` when caching is off.
    cache: Optional[Path] = Path(DEFAULT_CACHE_ROOT)
    trace: bool = False
    trace_buf: int = DEFAULT_CAPACITY
    backend: str = DEFAULT_BACKEND
    block_compile: bool = True

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "RunConfig":
        """Parse and validate every knob of ``environ``."""
        def raw(field: str) -> tuple[str, str]:
            return environ.get(KNOBS[field], ""), KNOBS[field]

        return cls(
            profile=_choice(*raw("profile"), "workload profile",
                            KNOWN_PROFILES, "paper"),
            jobs=_jobs(*raw("jobs")),
            cache=_cache(*raw("cache")),
            trace=on_off(*raw("trace"), False),
            trace_buf=_capacity(*raw("trace_buf")),
            backend=_choice(*raw("backend"), "enforcement backend",
                            KNOWN_BACKENDS, DEFAULT_BACKEND),
            block_compile=on_off(*raw("block_compile"), True),
        )


def current() -> RunConfig:
    """The configuration ``os.environ`` describes right now."""
    return RunConfig.from_env(os.environ)


__all__ = [
    "DEFAULT_BACKEND", "DEFAULT_CACHE_ROOT", "DEFAULT_CAPACITY",
    "KNOBS", "KNOWN_BACKENDS", "KNOWN_PROFILES", "OFF_VALUES", "ON_VALUES",
    "RunConfig", "current", "on_off", "positive_int",
]
