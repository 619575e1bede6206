"""The pace of the machine, read from a fixed pure-Python reference loop.

The host this benchmark runs on changes speed by up to a factor of two over
minutes, with nothing else running in the process, and not all code slows
alike. The reference loop does two kinds of work in about equal time: Python
function calls with float arithmetic, which track the solver and the
exploration, and seeding `random.Random` from strings (hashing and Mersenne
Twister set-up in C), which tracks Monte Carlo sampling; on its own, the
first kind tracked `solve_opt` but made a 0.5 s `run_monte_carlo` noisier
than no scaling at all. Alternating the two with the loop for five minutes,
4-round windows spread between their quartiles by 14% (solve) and 10%
(sampling) after scaling, against 21% and 14% before. So the loop runs
between the timed pieces of work, and a stretch of work (a
round of operations, or the repeated set-up) is scaled by how long the loop
took meanwhile:

    scaled = measured * NOMINAL_S / (median of the reference samples)

which is the stretch's time at the pace where the loop takes NOMINAL_S. The loop
keeps no containers alive and runs with the garbage collector off, so the
program's memory (memo tables, exploration frontiers) does not change it; it
imports nothing from the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

NOMINAL_S = 0.02   # what one reference loop takes at the reference pace
EVERY_S = 0.2      # measured seconds between two reference samples
STEPS = 75_000     # function calls with float arithmetic
SEEDS = 1_000      # random.Random seeded from a string


def _step(a, b):
    return a * 0.5 + b if a < b else b * 0.25 - a


def sample() -> tuple:
    """Wall and CPU seconds of one reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w, c = time.perf_counter(), time.process_time()
        acc = 0.0
        for i in range(STEPS):
            acc = _step(acc, i * 1e-6) % 7.0
        for i in range(SEEDS):
            acc += random.Random(f"pace:{i}").random()
        return time.perf_counter() - w, time.process_time() - c
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Reference samples taken between timed pieces of work.

    Call `mark(wall)` after each piece: once EVERY_S of work has built up since
    the last sample, it takes a new one. `close()` takes a last sample if work
    is pending. `factors(first)` gives the wall and CPU factors that bring
    times measured since sample `first` to the reference pace: NOMINAL_S over
    the median of those samples, so that one sample slowed by a hiccup moves
    nothing.
    """

    def __init__(self):
        self.samples = [sample()]
        self.pending = 0.0

    def mark(self, wall: float):
        self.pending += wall
        if self.pending >= EVERY_S:
            self.close()

    def close(self):
        if self.pending > 0:
            self.samples.append(sample())
            self.pending = 0.0

    def factors(self, first: int) -> tuple:
        walls, cpus = zip(*self.samples[first:])
        return NOMINAL_S / statistics.median(walls), NOMINAL_S / statistics.median(cpus)
