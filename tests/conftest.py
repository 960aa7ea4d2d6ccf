"""Shared test settings.

Property tests run under one Hypothesis profile: no per-example deadline
(a case can spend tens of milliseconds in ``expm``) and a printed
reproducer blob for any failing case, so it can be replayed with
``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("logsens", deadline=None, print_blob=True)
settings.load_profile("logsens")
