"""A fixed reference task that measures how fast the host runs right now.

On a shared host, other tenants slow this single-threaded program by up
to twofold for minutes at a time, longer than a run lasts, so taking each
stage's fastest pass does not remove the slowdown.  The slowdown is per
instruction (CPU time equals wall time and the kernel reports almost no
steal), and it hits different kinds of work differently.  The probe
therefore mixes four small fixed tasks: membership tests in a table of
several megabytes and in one that fits in cache, plain integer
arithmetic, and ``Fraction`` arithmetic on growing integers.  Timed right
before and right after a stage, it tells how fast the host ran during the
stage; the stage's time scaled by ``REFERENCE_S / probe time`` is its
time at reference speed.

Calibration on a shared 2-vCPU Xeon (CPython 3.11.7): every stage of the
three workloads was run in turn, with the probes between stages, for
twelve minutes.  Over 40-second windows, the sum of each stage's median
time spread 15-32 % (quartile distance over median) per workload; scaled
by this probe it spread 6-9 %.  No single task tracked every workload as
well as the mix.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction
from time import perf_counter

# The probe's time on the calibration host above while it was quiet, so
# that adjusted times there read as quiet-host times.  It only sets the
# scale of the adjusted times, which compare runs on one host.
REFERENCE_S = 0.011
REPEATS = 2

_LARGE: frozenset = frozenset()
_SMALL: frozenset = frozenset()
_KEYS: tuple = ()


def _scattered(count: int, seed: int) -> Iterator[int]:
    """Seeded random integers below 10**7, made without a list."""
    rng = random.Random(seed)
    return (rng.randrange(10**7) for _ in range(count))


def load() -> None:
    """Build the probe's tables, about 15 MB; once per process."""
    global _LARGE, _SMALL, _KEYS
    if not _LARGE:
        _LARGE = frozenset(_scattered(200_000, 1))
        _SMALL = frozenset(_scattered(20_000, 3))
        _KEYS = tuple(_scattered(10_000, 2))


def _lookups(table: frozenset) -> int:
    hits = 0
    for key in _KEYS:
        if key in table:
            hits += 1
    slots = {}
    for key in _KEYS:
        slots[key & 0xFFFF] = key
    return hits + len(slots)


def _integers() -> int:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


def _fractions() -> Fraction:
    x = Fraction(1, 3)
    for i in range(1, 750):
        x = (x * i + Fraction(1, i)) / (i + 1)
    return x


TASKS = (lambda: _lookups(_LARGE), lambda: _lookups(_SMALL), _integers,
         _fractions)


def probe() -> float:
    """The summed fastest times of a few runs of each task, in seconds."""
    load()
    total = 0.0
    for task in TASKS:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            task()
            best = min(best, perf_counter() - start)
        total += best
    return total


def adjusted(seconds: float, before: float, after: float) -> float:
    """A time at reference speed, from the probe times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
