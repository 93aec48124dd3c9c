"""Deterministic fan-out of pure replicate tasks over processes.

Each task is a pure function of shared read-only state plus its own
index, so results are identical whatever the worker count; outputs are
always collected in task order.  Shared state is shipped once per
worker through the pool initializer rather than per task.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

_SHARED: Any = None


def _init_shared(state) -> None:
    global _SHARED
    _SHARED = state


def shared_state():
    return _SHARED


def run_indexed(
    task: Callable[[int], Any],
    indices: Sequence[int],
    workers: int,
    shared: Any,
) -> list:
    """Run ``task(i)`` for each index, in order, with ``shared`` visible
    to the task via :func:`shared_state`.

    ``workers`` is capped at the task count and the usable CPUs, since a
    pool starts all its processes at once.  One worker runs in-process;
    more use a process pool, and ``shared`` must be picklable.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(indices), cpus or 1)
    if workers <= 1:
        previous = _SHARED
        _init_shared(shared)
        try:
            return [task(i) for i in indices]
        finally:
            _init_shared(previous)  # restore state for nested callers
    chunk = max(1, len(indices) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_shared, initargs=(shared,)
    ) as pool:
        return list(pool.map(task, indices, chunksize=chunk))
