"""Process-pool fan-out shared by the study harness and the bootstrap."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def n_workers() -> int:
    """Worker count from ``EMAXBR_THREADS``; unset, malformed or < 1 means 1."""
    try:
        return max(1, int(os.environ.get("EMAXBR_THREADS", "1")))
    except ValueError:
        return 1


def pool_map(func, jobs: list, chunksize: int, min_jobs: int = 2) -> list:
    """``[func(job) for job in jobs]``, fanned out over :func:`n_workers` processes.

    Runs serially with one worker or fewer than ``min_jobs`` jobs.  Results
    come back in job order either way.
    """
    workers = n_workers()
    if workers > 1 and len(jobs) >= min_jobs:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, jobs, chunksize=chunksize))
    return [func(job) for job in jobs]
