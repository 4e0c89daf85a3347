"""Fixed reference kernel that measures the machine's current speed.

On the shared 2-core x86-64 machine this benchmark was written on, speed
swings within one process: one unit of this kernel has taken anywhere from
2.3 to 4.3 ms, so raw wall-clock times do not repeat.  While the benchmark
measures, a timer runs one unit of this kernel every 25 ms; every timed
interval is then reported as ``raw * R0 / k``, where ``k`` is the mean unit
time of the samples around and inside it: the interval as it would have
taken when one unit took ``R0`` seconds.

The kernel is pure-stdlib exact arithmetic of the kind the program does
(``Fraction`` multiply, add, compare and hash, with ``frozenset`` and ``dict``
work around it) and imports nothing from the program, so a change to the
program cannot move it.  Its shape matters: on that machine a plain
arithmetic loop slows down less than the program does, while this
double-description-like sweep over 60 rays tracks the program more closely.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Median time of one kernel unit, in seconds, on the reference machine (a
# 2-core x86-64 container, Python 3.11).  Written once; never re-measured.
R0 = 0.002500

_rng = random.Random(20151006)
_RAYS = [tuple(Fraction(_rng.randint(0, 3)) for _ in range(12)) for _ in range(60)]
_NORMAL = [Fraction(_rng.randint(-2, 2)) for _ in range(12)]
ZERO = Fraction(0)


def unit() -> int:
    """One fixed piece of work: a double-description-like adjacency sweep.

    Exact dot products of Fraction rays with a cutting plane, zero sets as
    frozensets in a dict keyed by the ray tuples (so every lookup hashes
    Fractions), and the combinatorial adjacency test over every ray.
    """
    zero_sets = {r: frozenset(i for i, x in enumerate(r) if x == 0) for r in _RAYS}
    values = [sum((a * b for a, b in zip(_NORMAL, r)), ZERO) for r in _RAYS]
    plus = [r for r, v in zip(_RAYS, values) if v > 0][:5]
    minus = [r for r, v in zip(_RAYS, values) if v < 0][:5]
    adjacent = 0
    for rp in plus:
        for rm in minus:
            common = zero_sets[rp] & zero_sets[rm]
            if not any(w is not rp and w is not rm and common <= zero_sets[w] for w in _RAYS):
                adjacent += 1
    return adjacent
