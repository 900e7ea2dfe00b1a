"""The one cyclic-GC pause of the package (DESIGN.md §8).

A leaf module (it imports nothing from the package), so the cover
builders, the cover registry, the runtime and the sweep harnesses can all
share it without an import cycle.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause cyclic GC for the enclosed block, then restore its prior state.

    The package's long-lived structures (covers, registries, runtimes)
    and the dispatch loop's event tuples are allocated at a rate that
    trips gen-0 collection constantly while creating no garbage cycles of
    their own, so each collection pass rescans a growing young generation
    and frees nothing.  Under one pause those passes never run; objects
    that are cycle garbage stay allocated until the collector runs again
    after the pause (``gc.collect`` still works inside one).

    Usable as a ``with`` block or as a decorator (``@paused_gc()``).  A
    no-op when the collector is already paused, so pauses nest: the
    outermost one re-enables, also when the enclosed code raises.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()
