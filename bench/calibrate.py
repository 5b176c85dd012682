"""How fast is this box right now?  A fixed memory-bound kernel.

The box the benchmark was sized on changes speed under it: by 10-25 %
for tens of seconds at a time, and between a quiet and a slow state,
minutes long, in which ``mc_intact`` takes 7 or 13 seconds and a
served-tier window completes 1,950 or 1,220 ops a second (neighbours on
the host).  A pure-compute loop does not follow those changes; a loop
of dependent loads scattered over a heap that misses the caches does,
as the program's pointer-chasing does.  So every measured child times
this kernel around what it measures -- before and after the one call of
a one-call workload, between the slices of a served-tier window, always
while the workload stands still -- and ``bench/run.py`` multiplies its
times by :data:`REFERENCE_S` / kernel time: they are times at the speed
at which the kernel takes its reference time.

The kernel runs in a helper process of its own (this file, run as a
script): its 50 MiB heap is then in nobody's peak memory, and it is
timed the same beside a small process and a large one.
``bench/README.md`` ("Noise") has the measurements behind each of these
statements, and those against timing the kernel *while* a call runs.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time
from typing import Any, Callable, Optional, Tuple

#: Kernel time on the box the benchmark was sized on, in a quiet spell.
REFERENCE_S = 0.120

_OBJECTS = 2_000_000
_STRIDE = 7


class Kernel:
    """The helper process; :meth:`sample` times the kernel in it."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._helper.stdout.readline()  # the heap is built

    def sample(self, samples: int = 1) -> float:
        """The median of ``samples`` timings, in seconds."""
        self._helper.stdin.write(f"{samples}\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def close(self) -> None:
        """End the helper (it also ends when this process does: its
        standard input closes)."""
        self._helper.stdin.close()
        self._helper.stdout.close()
        self._helper.wait()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def timed_call(
    recorder: Optional[Any], root: str, call: Callable[[], Any],
    kernel_samples: int = 5,
) -> Tuple[Any, dict]:
    """Run ``call`` once, with the kernel timed on both sides of it.

    Returns the call's result and ``wall_s``, ``cpu_s``,
    ``peak_rss_mib`` and ``kernel_s``.  With a recorder
    (:class:`bench.trace.Recorder`) the call is the root span ``root``,
    whose self time is whatever no wrapped layer accounts for.
    """
    with Kernel() as kernel:
        before = kernel.sample(kernel_samples)
        cpu0 = process_time()
        start = perf_counter()
        if recorder is None:
            result = call()
        else:
            with recorder.span(root):
                result = call()
        wall_s = perf_counter() - start
        cpu_s = process_time() - cpu0
        after = kernel.sample(kernel_samples)
    return result, {
        "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_s": (before + after) / 2,
    }


def _serve() -> None:
    """The helper: one line in (how many timings), one line out (their
    median), until standard input closes."""
    heap = [object() for _ in range(_OBJECTS)]
    order = list(range(0, _OBJECTS, _STRIDE))
    random.Random(1).shuffle(order)
    print("ready", flush=True)
    for line in sys.stdin:
        timings = []
        for _ in range(int(line)):
            acc = 0
            start = perf_counter()
            for i in order:
                acc += id(heap[i]) & 1
            timings.append(perf_counter() - start)
        print(repr(statistics.median(timings)), flush=True)


if __name__ == "__main__":
    _serve()
