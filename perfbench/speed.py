"""Host-speed reference: a fixed Python loop that shares the benchmark's CPU.

The benchmark runs on a shared virtual machine whose effective CPU speed
switches between states about 1.6x apart that last seconds to minutes, most
likely as other tenants' load on the same core comes and goes.  Wall time alone then measures the host more than the
program.  `Reference` runs a fixed pure-Python chunk of work in a thread of
the benchmark process, pinned to the same single CPU as the timed child
processes.  The scheduler interleaves the two every few milliseconds, so over
any interval both see the same hardware.  The chunks completed per second of
the thread's own CPU time measure the host's speed over exactly the interval
a command ran, and a command's CPU seconds times (that speed / `REF_SPEED`)
is its CPU time on a host running at the reference speed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from fractions import Fraction

# chunks per CPU-second of the reference loop in the fast state of the machine
# the bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11.7).  It only fixes
# the unit: normalised times equal CPU times at this speed.
REF_SPEED = 8000.0


# a fixed table the chunk reads in a scattered order, so the reference, like
# the program, works on more memory than the first-level caches hold
_TABLE = {(i, i * 7 % 1013): i for i in range(4_000)}
_KEYS = sorted(_TABLE, key=lambda k: (k[0] * 7919) % 4_001)


def chunk(step: int) -> int:
    """A fixed mix of what the program does: set products, dict lookups,
    `Fraction` sums and JSON text."""
    a = frozenset(range(0, 60, 7))
    b = frozenset(range(1, 60, 5))
    prod = frozenset((x * y + x) % 61 for x in a for y in b)
    at = (step * 150) % 3_850
    total = sum(_TABLE[k] for k in _KEYS[at:at + 150])
    pairs = frozenset((x % 29, y % 13) for x in a for y in b)
    frac = sum((Fraction(i, i + 3) for i in range(1, 12)), Fraction(0))
    text = json.dumps({"a": sorted(prod), "b": str(frac), "c": total}, sort_keys=True)
    return len(prod) + len(pairs) + len(text)


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and the threads and children it starts later,
    to one allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Reference:
    """The reference loop in a daemon thread, run between `start()` and `stop()`.

    Create it after `pin_to_one_cpu()`, so the thread shares the CPU of the
    commands.  `start()` and `stop()` return marks; `speed()` of two marks
    is the loop's speed between them.
    """

    def __init__(self) -> None:
        self._running = threading.Event()
        self._closed = False
        self._progress = (0, 0.0)  # (chunks done, thread CPU seconds), replaced whole
        self._thread = threading.Thread(target=self._loop, name="speed-reference", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        done = 0
        while True:
            self._running.wait()
            if self._closed:
                return
            chunk(done)
            done += 1
            self._progress = (done, time.thread_time())

    def start(self) -> tuple[int, float]:
        self._running.set()
        return self._progress

    def stop(self) -> tuple[int, float]:
        mark = self._progress
        self._running.clear()
        return mark

    @staticmethod
    def speed(before: tuple[int, float], after: tuple[int, float]) -> float:
        """Chunks per CPU-second of the reference loop between two marks."""
        cpu = after[1] - before[1]
        return (after[0] - before[0]) / cpu if cpu > 0 else float("nan")

    def close(self) -> None:
        self._closed = True
        self._running.set()
        self._thread.join()
