"""Machine speed, from short slices of a fixed pure-Python loop.

The sandbox this benchmark was written on changes speed by up to 2.4x over
a few minutes (identical `query` rounds took 7.4 s and then 17.5 s), with
CPU time equal to wall time and almost no steal: another tenant's load
slows every instruction.  So every round runs slices of this loop between
its operations, and run.py reports a time t measured in a round whose
median slice took c as t * REFERENCE_S / c, in *reference seconds*: what t
would have been had a slice taken REFERENCE_S.

The loop does what the program does most (tuples, dict lookups, small
integer gcds, Fractions) and never calls mckay_lab, so no change to the
program moves it; slices are timed outside the operations they scale.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from math import gcd

REFERENCE_S = 0.0015  # one slice, about its typical time on a 2-core Xeon
SLICE_N = 2000


def _slice(n: int = SLICE_N) -> int:
    counts: dict[tuple, int] = {}
    acc = 0
    for i in range(n):
        t = (i % 97, i % 89, i % 83)
        counts[t] = counts.get(t, 0) + 1
        acc += gcd(t[0] * t[1] + 1, t[2] + 7)
        if i % 50 == 0:
            acc += (Fraction(i, 7) + Fraction(1, 3)).numerator % 5
    return acc + len(counts)


class SpeedLog:
    """Slice times taken through one round."""

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.tracer = tracer

    def sample(self, slices: int = 3) -> float:
        """Run some slices; return the seconds spent, to leave out of a timing."""
        spent = 0.0
        for _ in range(slices):
            start = time.perf_counter()
            _slice()
            took = time.perf_counter() - start
            self.samples.append(took)
            spent += took
        if self.tracer is not None:
            self.tracer.exclude(spent)
        return spent

    def factor(self) -> float:
        """Multiply a time measured alongside these slices by this."""
        return REFERENCE_S / statistics.median(self.samples)
