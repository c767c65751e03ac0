"""Host-normalized timing.

The benchmark runs on small shared hosts whose speed drifts by up to 2x over
a few minutes, with no PMU to count cycles instead of seconds.  Every timed
operation is therefore scaled by the host speed measured around it:

* a fixed reference loop (stdlib-only work: a JSON round trip, struct
  pack/unpack, dict and list churn) is timed with the cyclic GC paused, so it
  measures the host and not the program's heap;
* it is sampled after about every ``SAMPLE_EVERY_S`` of measured work;
* each operation's raw seconds are multiplied by
  ``NOMINAL_REFERENCE_S / mean(sample before, sample after)``.

On a host running at nominal speed a normalized time equals the raw time.
Raw seconds are kept next to every normalized value.
"""

from __future__ import annotations

import gc
import json
import struct
import time
from typing import Callable, List, Optional, Tuple

#: Seconds the reference loop takes on a host of nominal speed (calibrated
#: once on a shared 2-vCPU host; never change it, or all history shifts).
NOMINAL_REFERENCE_S = 0.0015

#: Measured work between two reference samples.  Sampling this often halved
#: the round-to-round variation of normalized write and query time compared
#: with sampling every 250 ms, at about 5% extra wall time.
SAMPLE_EVERY_S = 0.08

#: Timed repetitions per sample; the sample is their median.
_REPEATS = 3

_DOC = {
    "id": 12345,
    "user": {"name": "user_17", "followers": 72935, "verified": False},
    "text": "sit et lorem incididunt ut lorem labore sed elit aliqua",
    "tags": [{"text": "jobs", "indices": [3, 9]}, {"text": "data", "indices": [12, 40]}],
    "coords": [-117.84, 33.64],
}
_PACKER = struct.Struct("<qdI")


def reference_work(iterations: int = 75) -> int:
    """The fixed reference loop (about 1.5 ms on the calibration host)."""
    checksum = 0
    for index in range(iterations):
        blob = json.dumps(_DOC)
        back = json.loads(blob)
        packed = _PACKER.pack(index, index * 0.5, len(blob))
        number, _, length = _PACKER.unpack(packed)
        table = {str(key): key * number for key in range(24)}
        values = [value ^ length for value in table.values()]
        values.sort(reverse=True)
        checksum += len(back["tags"]) + values[0] + len(table)
    return checksum


def reference_sample() -> float:
    """Seconds of one reference loop: the median of ``_REPEATS`` timings."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        timings = []
        for _ in range(_REPEATS):
            started = time.perf_counter()
            reference_work()
            timings.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    timings.sort()
    return timings[len(timings) // 2]


class Timing:
    """One operation's raw seconds and, once settled, its normalized seconds."""

    __slots__ = ("raw", "norm")

    def __init__(self, raw: float) -> None:
        self.raw = raw
        self.norm: Optional[float] = None


class HostClock:
    """Times operations and normalizes them by the reference samples around them."""

    def __init__(self) -> None:
        self.samples: List[float] = [reference_sample()]
        self._pending: List[Timing] = []
        self._since_sample = 0.0

    def timed(self, fn: Callable, *args, **kwargs) -> Tuple[object, Timing]:
        """Run ``fn`` and return its result with its :class:`Timing`."""
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        timing = Timing(time.perf_counter() - started)
        self._pending.append(timing)
        self._since_sample += timing.raw
        if self._since_sample >= SAMPLE_EVERY_S:
            self.settle()
        return result, timing

    def settle(self) -> None:
        """Take a sample and normalize every operation since the previous one."""
        sample = reference_sample()
        scale = NOMINAL_REFERENCE_S / ((self.samples[-1] + sample) / 2.0)
        for timing in self._pending:
            timing.norm = timing.raw * scale
        self._pending = []
        self._since_sample = 0.0
        self.samples.append(sample)

    def speed(self) -> float:
        """Median host speed over this clock's samples (1.0 = nominal)."""
        ordered = sorted(self.samples)
        return NOMINAL_REFERENCE_S / ordered[len(ordered) // 2]

