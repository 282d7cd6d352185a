"""Deterministic thread-pool map for the `favard` quadrature's angles.

The quadrature is the one caller: `--threads` sizes its pool alone, and every
other command runs in one thread.  Work items are independent; results are
collected in submission order, so the output never depends on the worker
count.  The default count comes from the FAVLAB_THREADS environment variable
(1 if unset).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import FavlabError


def default_threads() -> int:
    raw = os.environ.get("FAVLAB_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise FavlabError(f"FAVLAB_THREADS must be a positive integer, got {raw!r}")
    return value


def ordered_map(fn, items, threads: int | None = None) -> list:
    """Apply fn to each item, in parallel, returning results in input order.

    At most one worker per item is started; a count below 2 runs serially.
    """
    items = list(items)
    n = min(default_threads() if threads is None else int(threads), len(items))
    if n <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
