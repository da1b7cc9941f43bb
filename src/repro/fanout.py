"""One process fan-out for every grid the evaluation runs.

The §6 rows, the backend matrix, the attack campaign and the fleet
lanes all apply one worker to a list of independent items.
:func:`fanout` alone decides how: with one worker the items run
in-process; otherwise they are cut into contiguous chunks, one pool
task per worker process, so each process keeps its build memos warm
across its slice.  Results come back in item order either way, so
anything rendered from them is byte-identical for any worker count.
Pool children inherit the parent's environment; workers take every
other setting as an explicit argument and never write ``os.environ``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from . import config
from .obs.events import DOMAIN_HOST, FLEET_DISPATCH


def split(items: Sequence, parts: int) -> list:
    """``items`` cut into ``parts`` contiguous slices, in order, whose
    sizes differ by at most one."""
    size, extra = divmod(len(items), parts)
    slices, start = [], 0
    for index in range(parts):
        end = start + size + (index < extra)
        slices.append(items[start:end])
        start = end
    return slices


def _run_chunk(worker: Callable, chunk: Sequence) -> list:
    return [worker(item) for item in chunk]


def _record_dispatch(recorder, index: int, begin_us: int) -> None:
    """One ``fleet.dispatch`` span: chunk ``index`` from submit to
    result, on the conductor's recorder."""
    if recorder is None:
        return
    name = f"worker{index + 1}"
    args = {"worker": index + 1}
    recorder.begin(FLEET_DISPATCH, name, begin_us, DOMAIN_HOST, args)
    recorder.end(FLEET_DISPATCH, name, time.time_ns() // 1000,
                 DOMAIN_HOST, args)


def fanout(worker: Callable, items: Sequence, jobs: Optional[int] = None,
           recorder=None) -> list:
    """``[worker(item) for item in items]``, over up to ``jobs`` worker
    processes (default ``REPRO_JOBS``).

    ``worker`` must be a module-level function and items and results
    must pickle.  With a ``recorder``, each chunk's dispatch is
    recorded as a wall-clock ``fleet.dispatch`` span.
    """
    items = list(items)
    jobs = config.current().jobs if jobs is None \
        else config.positive_int(jobs, "worker count", "jobs")
    workers = min(jobs, len(items))
    if workers <= 1:
        begin_us = time.time_ns() // 1000
        results = _run_chunk(worker, items)
        _record_dispatch(recorder, 0, begin_us)
        return results
    # Imported here: the pool machinery costs start-up time that a
    # one-worker run never needs.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    chunks: list = [None] * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {}
        for index, chunk in enumerate(split(items, workers)):
            pending[pool.submit(_run_chunk, worker, chunk)] = \
                (index, time.time_ns() // 1000)
        for future in as_completed(pending):
            index, begin_us = pending[future]
            chunks[index] = future.result()
            _record_dispatch(recorder, index, begin_us)
    return [result for chunk in chunks for result in chunk]
