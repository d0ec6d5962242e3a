"""Traced-allocation measurement for the tests that bound a call's memory."""

import gc
import tracemalloc


def traced_peak(fn, *args):
    """``fn(*args)``'s result and the peak bytes it had allocated at once (tracemalloc).

    Only allocations made during the call count, so arrays built before it,
    such as its arguments, are not part of the peak.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
