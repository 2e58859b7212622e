"""Chunking and process-pool fan-out shared by the study harness and the bootstrap."""

from __future__ import annotations

import os
from collections.abc import Sequence
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


def map_chunks(func, items: Sequence, serial: bool = False) -> list:
    """``func`` over the :func:`chunks` of ``items``, one result per chunk in order.

    ``func`` takes one contiguous slice of ``items``; the caller joins the
    results.  Each chunk is one task, fanned out over :func:`n_workers`
    processes; with one worker, one chunk, or ``serial``, the chunks run in
    this process.
    """
    parts = [items[r.start : r.stop] for r in chunks(len(items))]
    workers = n_workers()
    if workers > 1 and len(parts) > 1 and not serial:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(func, parts))
    else:
        results = [func(part) for part in parts]
    return results
