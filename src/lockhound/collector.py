"""Pausing the cyclic garbage collector.

The analyses and the oracle allocate many tuples, sets and dicts and keep
most of them to the end, so collector passes during a run find little to
free and rescan a growing heap. collector_paused() turns the collector off
for a block or, as a decorator, for each call of a function, and restores
the state it found, on return and on an exception alike. Nested pauses
leave the collector off until the outermost one ends.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def collector_paused() -> Iterator[None]:
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
