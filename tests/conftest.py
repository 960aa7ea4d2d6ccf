"""Shared test settings and helpers.

Property tests run under one Hypothesis profile: no per-example deadline
(a case can spend tens of milliseconds in ``expm``) and a printed
reproducer blob for any failing case, so it can be replayed with
``@reproduce_failure``.
"""

import tracemalloc

from hypothesis import settings

settings.register_profile("logsens", deadline=None, print_blob=True)
settings.load_profile("logsens")


def peak_mib(fn) -> float:
    """Peak Python-heap allocation (tracemalloc, numpy buffers included)
    while ``fn()`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
