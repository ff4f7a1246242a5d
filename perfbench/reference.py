"""A fixed reference task that gauges how fast the host runs Python right now.

The benchmark's host is shared: other tenants slow it by tens of percent for
seconds to minutes at a time, far more than the bounds a change is judged by.
Every timed figure is therefore taken together with this task, run in the same
process between the timed calls, and scaled to a host on which the task takes
``REFERENCE_S`` seconds:

    scaled time = measured time * REFERENCE_S / reference time

The task uses the standard library only (parse Python source, walk the tree,
round-trip JSON), so it does not change when semkit does, and it leans on the
interpreter and memory the way semkit's parsing, execution and report writing
do.  The unscaled figures and the reference time are reported beside the
scaled ones.
"""

from __future__ import annotations

import ast
import json
import statistics
import time

REFERENCE_S = 0.020  # the task's time on a 2-core x86-64 VM, Python 3.11, quiet host

_SOURCE = "\n".join(
    f"def f{i}(a, b=None):\n"
    f"    x = [a * {i} + c for c in range({i % 9})]\n"
    f"    return {{'k{i}': x, 'y': (a, b, {i})}}\n"
    for i in range(20))


def reference_seconds() -> float:
    """Wall time of one run of the reference task."""
    start = time.perf_counter()
    for _ in range(8):  # small pieces, so the task adds nothing to peak memory
        counts: dict[str, int] = {}
        for node in ast.walk(ast.parse(_SOURCE)):
            name = type(node).__name__
            counts[name] = counts.get(name, 0) + 1
        json.loads(json.dumps([counts] * 8))
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference host the samples say this host ran."""
    return statistics.median(samples) / REFERENCE_S
