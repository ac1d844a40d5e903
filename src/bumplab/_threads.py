"""The worker count the benchmark harness records.

Nothing in the package imports this module: it stays only because ``bench/``
imports it (``bench/run.py`` records ``max_workers()`` and ``bench/tracing.py``
wraps the module's functions), and ROADMAP item 1a deletes it together with
those uses.
"""

from __future__ import annotations

import os


def max_workers() -> int:
    return min(4, os.cpu_count() or 1)
