"""Deterministic thread-pool map.

Work items are independent; results are collected in submission order, so the
output never depends on the worker count.  The default count comes from the
FAVLAB_THREADS environment variable (1 if unset).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def default_threads() -> int:
    raw = os.environ.get("FAVLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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
