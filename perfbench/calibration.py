"""Host-speed calibration for the wall-clock metrics.

On a shared host the interpreter's speed drifts by tens of percent over
seconds to minutes (other tenants' load on the same cores and caches), so
raw records per second from two runs minutes apart are not comparable.
While measured work runs, a real-time timer interrupts it every
:data:`INTERVAL_S` seconds to time a fixed pure-Python kernel that shares
no code with the system under test.  The samples land inside the work
they calibrate, so they see the same host.  Wall-clock figures are then
scaled to a host on which the kernel takes :data:`REFERENCE_S` seconds.

A slowdown in the system under test leaves the kernel untouched, so it
still shows in full; a slowdown of the host moves both and cancels.

Set-up is different work: it builds streams of small objects, and its
speed follows the host's allocation speed more than the kernel's.  Set-up
is therefore calibrated with :func:`build_kernel`, a stream-building
kernel timed between set-ups (see :func:`build_speed`), where it does not
run into the collector over the heap of the work it would interrupt.
"""

from __future__ import annotations

import random
import signal
import struct
import time
from typing import Any

REFERENCE_S = 0.01  # kernel seconds on the reference host
INTERVAL_S = 0.25
BUILD_REFERENCE_S = 0.01  # build_kernel seconds on the reference host


def kernel() -> int:
    """About ten milliseconds of fixed interpreter work: hashing, bytes,
    and a tight arithmetic loop."""
    pack = struct.Struct("<QQ").pack
    table: dict[bytes, int] = {}
    for i in range(8_000):
        key = pack(i % 251, i % 13)
        table[key] = table.get(key, 0) + 1
    x = 0
    for i in range(80_000):
        x = (x * 31 + i) & 0xFFFF
    return x + len(table)


class Speedometer:
    """Samples the kernel on a ``SIGALRM`` timer while the block runs.

    The handler runs between two bytecodes of whatever is executing.  Its
    own time is kept out of :meth:`clock`, so work timed with that clock
    does not see the interruptions.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous: Any = None

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent sampling."""
        return time.perf_counter() - self.paused

    def _sample(self, *_: Any) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # at least one sample, however short the block
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Host seconds per reference second, over all samples."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S


class _Item:
    __slots__ = ("key", "value", "timestamp")

    def __init__(self, key: int, value: int, timestamp: float) -> None:
        self.key = key
        self.value = value
        self.timestamp = timestamp


def _items(rng: random.Random, n: int) -> Any:
    timestamp = 0.0
    for i in range(n):
        timestamp += rng.expovariate(2.0)
        if rng.random() < 0.5:
            yield _Item(i, rng.randrange(64), timestamp), timestamp
        else:
            yield (i, timestamp), timestamp


def build_kernel() -> int:
    """About ten milliseconds of stream building: a seeded generator of
    small objects collected into a list."""
    return len(list(_items(random.Random(7), 7_000)))


def build_speed() -> float:
    """Host seconds per reference second for stream building, now: the
    fastest of five timings of :func:`build_kernel`, which drops the ones
    another process cut into."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        build_kernel()
        times.append(time.perf_counter() - start)
    return min(times) / BUILD_REFERENCE_S
