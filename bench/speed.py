"""Machine-speed calibration for the timed loop.

The benchmark runs on shared virtual machines whose speed moves by a third
or more within minutes: a fixed piece of pure-Python work can take 50 %
longer in one 20-second window than in the next, and a workload's raw wall
times follow.  So the loop times :func:`unit`, a fixed piece of work that
never calls the library, between ops, and each op's latency is scaled by
``REF_NS`` over the calibration time around it; set-up and per-layer self
times are scaled the same way.  Reported times are thus "milliseconds at
the speed where one unit takes ``REF_NS``" and comparable across runs on
one interpreter: a change to the library moves them, a change of machine
phase moves them far less.  Raw wall times are printed alongside.

The unit does the kinds of work the library does (bitmask relation
composition as in ``automata.Rel``, sets and dicts of tuples, sorting,
small objects), so that a slow phase slows it about as much as the ops.
"""

from __future__ import annotations

import statistics
import time

REF_NS = 3_000_000  # one unit at the reference speed: 3 ms
SIZE = 64


def unit() -> int:
    """Fixed work: compose a bitmask relation with itself, close a tuple
    relation over one step, and sort the result."""
    rows = tuple(((i * 7 + 3) % SIZE and 1 << ((i * 7 + 3) % SIZE)) | (1 << ((i * 5 + 1) % SIZE))
                 for i in range(SIZE))
    for _ in range(6):
        out = []
        for row in rows:
            acc = 0
            while row:
                low = row & -row
                acc |= rows[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        rows = tuple(out)
    succ: dict[int, set] = {}
    for i in range(SIZE * 24):
        succ.setdefault(i % 97, set()).add(((i * 31) % 97, i % 3))
    closure = set()
    for a, targets in succ.items():
        for b, tag in targets:
            for c, tag2 in succ.get(b, ()):
                closure.add((a, c, tag ^ tag2))
    frozen = frozenset(closure)
    return sum(rows) % 1009 + len(sorted(frozen)) + len(frozen)


def sample() -> int:
    """Nanoseconds one :func:`unit` takes now."""
    t0 = time.perf_counter_ns()
    unit()
    return time.perf_counter_ns() - t0


def current(count: int = 7) -> int:
    """Median of ``count`` samples after one warm-up sample."""
    sample()
    return int(statistics.median(sample() for _ in range(count)))


def normalise(ns: float, calibration_ns: float) -> float:
    """``ns`` of wall time at a speed where a unit took ``calibration_ns``,
    expressed at the reference speed."""
    return ns * REF_NS / calibration_ns
