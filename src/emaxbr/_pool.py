"""Process-pool fan-out shared by the study harness and the bootstrap."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

# Datasets per chunk: a chunk's start grids are solved as one batch.
CHUNK = 64


def n_workers() -> int:
    """Worker count from ``EMAXBR_THREADS``; unset, malformed or < 1 means 1."""
    try:
        return max(1, int(os.environ.get("EMAXBR_THREADS", "1")))
    except ValueError:
        return 1


def chunks(n_items: int) -> list[range]:
    """``range(n_items)`` cut into near-equal contiguous ranges, one job each.

    There are ``ceil(n_items / CHUNK)`` of them, or one per worker if that
    is more (but never an empty one), so every worker gets a job.
    """
    k = max(-(-n_items // CHUNK), min(n_items, n_workers()))
    return [range(i * n_items // k, (i + 1) * n_items // k) for i in range(k)]


def pool_map(func, jobs: list, serial: bool = False) -> list:
    """``[func(job) for job in jobs]``, fanned out over :func:`n_workers` processes.

    Each job is one task.  Runs serially with one worker, one job, or
    ``serial``.  Results come back in job order either way.
    """
    workers = n_workers()
    if workers > 1 and len(jobs) > 1 and not serial:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, jobs))
    return [func(job) for job in jobs]
