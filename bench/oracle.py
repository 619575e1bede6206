"""Exact-rational reference for the benchmark's output checks.

Written apart from protoforge: it evaluates the synchronization probability
in `fractions.Fraction` with the closed form (two events) and the delivery-
phase recursion (three or more) that the `protoforge.bounds` docstring
documents, and it decides requirements exactly. Nothing here imports the
package under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache


def closed_form_two(n1: int, n2: int, d: Fraction) -> Fraction:
    """P(n1, n2) = rho(1 - d^(n1+1)) + rho^3/(1 - d rho) * sum_{i=1..n1} d^i (1 - (d rho)^min(n1+1-i, n2))."""
    rho = 1 - d
    dr = d * rho
    acc = Fraction(0)
    for i in range(1, n1 + 1):
        acc += d ** i * (1 - dr ** min(n1 + 1 - i, n2))
    return rho * (1 - d ** (n1 + 1)) + rho ** 3 / (1 - dr) * acc


@lru_cache(maxsize=None)
def _phase(a: int, rest: tuple, d: Fraction) -> Fraction:
    # Success of the remaining events once the previous message is delivered,
    # with `a` timeouts left in the previous loop. The final message retries
    # only on re-delivery of the peer's message: rho * sum_{t<=min(a,b)} (d rho)^t.
    rho = 1 - d
    if len(rest) == 1:
        return rho * sum((d * rho) ** t for t in range(min(a, rest[0]) + 1))
    nxt = rest[0]
    return sum(rho * d ** j * _phase(nxt - j, rest[1:], d) for j in range(min(a, nxt) + 1))


def sync_prob(bounds, d) -> Fraction:
    """Exact synchronization probability of one sequence with these per-event bounds."""
    bounds = tuple(int(n) for n in bounds)
    d = Fraction(d)
    if len(bounds) < 2 or min(bounds) < 0:
        raise ValueError(f"need two or more nonnegative bounds, got {bounds}")
    if len(bounds) == 2:
        return closed_form_two(bounds[0], bounds[1], d)
    rho = 1 - d
    return sum(rho * d ** i * _phase(bounds[0] - i, bounds[1:], d) for i in range(bounds[0] + 1))


# ---------------------------------------------------------------------------
# Requirements: a problem is (events, delta, [(event indices, p), ...]) with
# exact delta and p.


def meets(vec, delta, constraints) -> bool:
    return all(sync_prob([vec[i] for i in idxs], delta) >= p for idxs, p in constraints)


def single_decrement_minimal(vec, delta, constraints) -> bool:
    """Lowering any one positive bound by one breaks some requirement."""
    for j, n in enumerate(vec):
        if n == 0:
            continue
        lowered = list(vec)
        lowered[j] = n - 1
        if meets(lowered, delta, constraints):
            return False
    return True


def brute_force_opt(k: int, delta, constraints, max_total: int):
    """Least vector in (total, lexicographic) order meeting every requirement,
    searched exhaustively up to `max_total`; None if there is none."""
    for total in range(max_total + 1):
        for vec in _compositions(total, k):
            if meets(vec, delta, constraints):
                return list(vec)
    return None


def _compositions(total: int, k: int):
    # Vectors of k nonnegative ints summing to total, in lexicographic order.
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for tail in _compositions(total - first, k - 1):
            yield (first,) + tail


# ---------------------------------------------------------------------------
# Medium and Monte Carlo references


def logistic_delta(rate: float, a: float = 4.0, b: float = 0.002) -> float:
    """delta(r) = 1/(1 + a exp(-b r)), the load curve the medium module documents."""
    return 1.0 / (1.0 + a * math.exp(-b * rate))


def wilson_accepts(successes: int, runs: int, p, z: float = 5.0) -> bool:
    """The exact rate p lies in the Wilson score interval at z around successes/runs,
    that is (successes - runs p)^2 <= z^2 runs p (1 - p)."""
    p = Fraction(p)
    dev = successes - runs * p
    return dev * dev <= Fraction(z * z) * runs * p * (1 - p)


# ---------------------------------------------------------------------------
# The boundary set


def boundary_set():
    """The distinct two-event requirements that some vector with both bounds
    at most 2 meets exactly at delta in {0.1, ..., 0.9}, as sorted (delta, p) Fractions."""
    out = set()
    for d in (Fraction(k, 10) for k in range(1, 10)):
        for n1, n2 in itertools.product(range(3), repeat=2):
            out.add((d, closed_form_two(n1, n2, d)))
    return sorted(out)


def decimal_text(x: Fraction) -> str:
    """Exact decimal text of a Fraction whose denominator divides a power of ten."""
    num, den = x.numerator, x.denominator
    digits = 0
    while den != 1:
        if (10 ** digits) % den == 0:
            break
        digits += 1
        if digits > 400:
            raise ValueError(f"{x} has no finite decimal expansion")
    scaled = num * (10 ** digits) // den
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return sign + (s[:-digits] + "." + s[-digits:] if digits else s)
