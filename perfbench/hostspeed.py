"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared hosts whose speed changes by tens of
percent for seconds to minutes at a time: on a 2-vCPU VM, one-second
windows of the same pure-Python loop took 1.1 to 1.9 times its fastest
time, and the median wall time of the same rq2 command moved by 44%
(range over median) between 15-second windows. A wall time alone
therefore measures the host as much as the program.

The worker runs reference_block(), a fixed piece of pure-Python work
that never touches flowstable, before the first timed command and after
every one. Each command's wall time is rescaled by the speed of the
host around it:

    corrected = wall * REFERENCE_S / mean(reference before, reference after)

so a corrected time is what the command would take on a host where the
reference block takes REFERENCE_S seconds. Over the same windows the
spread (quartile distance over median) of that command's median fell
from 0.21 for wall times to 0.06 for corrected times. The block runs
with the garbage collector off and keeps no objects, so the program's
heap does not change its cost.
"""

from __future__ import annotations

import gc
import json
import time

#: Nominal time of reference_block(), in seconds: about its fastest
#: time on a 2-vCPU Xeon VM with CPython 3.11. Only the scale of the
#: corrected times depends on it.
REFERENCE_S = 0.15
_ROUNDS = 8
_ITEMS = 12000


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _round() -> int:
    """FNV-style hashing, small objects, tuple-keyed dict updates and
    JSON encoding: the kinds of work the program spends its time on."""
    h = 0xCBF29CE484222325
    table = {}
    lines = []
    for i in range(_ITEMS):
        for byte in (i & 0xFF, (i >> 8) & 0xFF):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        p = _Point(i, h)
        table[(p.a & 511, p.b & 3)] = p
        if i & 7 == 0:
            lines.append(json.dumps({"i": i, "h": h & 0xFFFF, "k": [p.a, p.b & 0xFF]}))
    return len("\n".join(lines)) + len(table)


def reference_block() -> float:
    """Wall time of one reference block, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_ROUNDS):
            _round()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def corrected(wall: float, ref_before: float, ref_after: float) -> float:
    """wall rescaled to a host on which the reference block takes REFERENCE_S."""
    return wall * REFERENCE_S / ((ref_before + ref_after) / 2)

