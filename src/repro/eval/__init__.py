"""Evaluation harness: every table and figure of §6.

Run any generator directly::

    python -m repro.eval.table1
    python -m repro.eval.figure9
    python -m repro.eval.table2
    python -m repro.eval.figure10
    python -m repro.eval.figure11
    python -m repro.eval.table3

or everything at once: ``python -m repro.eval.report_all``; write
every results file with ``python -m repro.eval.export [dir]``.
Set ``REPRO_PROFILE=quick`` to downscale the workloads.

``export`` and ``report_all`` are entry-point modules and are not
imported here, so ``python -m`` runs them without a double import.
"""

from . import (
    figure9,
    figure10,
    figure11,
    metrics,
    profiler,
    report,
    table1,
    table2,
    table3,
)
from .profiler import CycleProfiler, Profile, profile_image
from .tracing import TaskTrace, TaskTracer, trace_tasks
from .workloads import (
    APP_NAMES,
    aces_artifacts,
    build_app,
    clear_caches,
    opec_artifacts,
    run_build,
)

__all__ = [
    "figure9", "figure10", "figure11", "metrics", "profiler",
    "report", "table1", "table2", "table3",
    "CycleProfiler", "Profile", "profile_image",
    "TaskTrace", "TaskTracer", "trace_tasks",
    "APP_NAMES", "aces_artifacts", "build_app", "clear_caches",
    "opec_artifacts", "run_build",
]
