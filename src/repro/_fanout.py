"""One fan-out for independent work: forked workers, one per CPU.

A figure's cells (:func:`repro.experiments.runner.measure_cells`) and a
sweep's variants (:func:`repro.scenarios.sweep.run_sweep`) are each a
pure function of their item.  Fork, not spawn: a forked worker inherits
the function and everything it reaches (a trained world, a spec), so it
may be a closure over state that does not pickle, no worker re-imports
``repro``, and a caller needs no ``__main__`` guard.  The worker count
is the CPU count; there is no option.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterable, List, Optional, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: the function of the :func:`fan_out` call whose pool is open.  Forked
#: workers inherit it, so it is never pickled.
_FN: Optional[Callable[[Any], Any]] = None


def _call(item: Any) -> Any:
    """Worker entry point: the inherited function on one item."""
    return _FN(item)


def available_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot say)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fan_out(fn: Callable[[ItemT], ResultT],
            items: Iterable[ItemT]) -> List[ResultT]:
    """``[fn(item) for item in items]``, in item order.

    Runs in-process for one CPU, one item, or a platform without
    ``fork``; otherwise on a ``fork`` pool of ``min(CPUs, items)``
    workers, one item at a time each, pickling only items and results.
    An exception raised by *fn* reaches the caller with its own type,
    and no worker outlives the call.
    """
    items = list(items)
    workers = min(available_cpus(), len(items))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    global _FN
    _FN = fn
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(_call, items, chunksize=1)
    finally:
        _FN = None
