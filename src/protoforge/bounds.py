"""Synchronization probabilities and the retransmission-bound optimization.

For a two-event sequence with bounds (n1, n2) under drop probability d and
reception probability rho = 1 - d, the synchronization probability has the
closed form

    P(n1, n2) = rho*(1 - d^(n1+1))
              + rho^3/(1 - d*rho) * sum_{i=1..n1} d^i * (1 - (d*rho)^M),
    M = min(n1 + 1 - i, n2).

Longer sequences evaluate by one backward sweep over the suffixes of the
bound vector.  The first message is delivered after i of up to n1 drops;
every later non-final message couples its retries to the previous loop's
remaining budget (each of its drops also burns one timeout of the previous
loop); the final message retries only when the peer's preceding message is
re-delivered, giving the geometric tail rho * sum_{t<=min(a,b)} (d*rho)^t.
For each suffix, `_levels` lists its success probability for every budget
a = 0..n of timeouts left in the loop before it, as a running sum: entry a
adds to entry a - 1 the term for a delivery after a drops, read from the
next suffix's levels.  A suffix thus costs one pass over its first bound,
is memoised per (suffix, d), and P is the last entry of the whole vector's
levels.  Its two-event value agrees with the closed form, and it is pinned
against the exhaustive deduction semantics by tests.

The bound optimization minimizes the total of all retransmission bounds
subject to every sequence of the specification reaching its required
probability.  The solver exploits that P is nondecreasing in every bound.  It
returns the zero vector at once when that meets every requirement, and
otherwise first gallops: to the least u in 1, 2, 4, ... below the cap whose
all-u vector is feasible, else to the cap itself.  The optimum total is then
at most k*u for k events, so no bound in it exceeds top = min(cap, k*u), and
top stands in for the cap from there on.  The search works in place on one
candidate vector whose entries hold top until they are fixed.  A bisection
per variable, with every other entry at top, gives its lower bound.  Entries
are then fixed left to right, enumerating candidates in nondecreasing total
sum (lexicographic within a sum), and each partial vector is tested whole:
with its tail still at top it bounds every constraint from above, so a
failure prunes it.  Backtracking puts top back.  Infeasibility is reported
either analytically via the supremum rho/(1 - d*rho) or as an infeasible
all-cap vector.  Past PROTOFORGE_BUDGET candidate vectors tested, the search
raises DivergenceDetected.

Two module-level LRU tables, each bounded at 2^16 entries, hold the values of
P: `_levels` per (suffix, d), whose last entry is P of a sequence of three or
more events, and `_sync_prob` per (bound pair, d) for two-event sequences, so
the closed form runs once per bound pair and d.  The solver projects each
candidate vector onto each sequence once, through one `itemgetter` and one of
those two evaluators per sequence, both picked when the solve starts, and
stops at the first requirement the candidate misses.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import Sequence, Union

from .errors import DivergenceDetected, NotWellPosed, SequenceTooShort, _budget
from .speclang import FullSpec, SpecNode, enumerate_sequences, events_of, well_posed

DEFAULT_CAP = 512  # the default largest retransmission bound searched


def _check_delta(drop_prob: float):
    if not 0.0 <= drop_prob <= 1.0:
        raise ValueError(f"drop probability {drop_prob} outside [0, 1]")


def sync_prob_two(n1: int, n2: int, drop_prob: float) -> float:
    """Closed-form synchronization probability of a two-event sequence."""
    if n1 < 0 or n2 < 0:
        raise ValueError("retransmission bounds must be nonnegative")
    _check_delta(drop_prob)
    d = drop_prob
    rho = 1.0 - d
    dr = d * rho
    total = rho * (1.0 - d ** (n1 + 1))
    if n1 >= 1:
        acc = 0.0
        for i in range(1, n1 + 1):
            acc += d ** i * (1.0 - dr ** min(n1 + 1 - i, n2))
        total += rho ** 3 / (1.0 - dr) * acc
    return total


@lru_cache(maxsize=1 << 16)
def _levels(rest: tuple, d: float) -> array:
    # Success probabilities of the remaining events once the previous message
    # has been delivered, one per count a = 0..rest[0] of timeouts left in the
    # previous loop (more than rest[0] left acts as rest[0]).  Entry a adds
    # one term to entry a - 1: the next message delivered after a drops.
    # Stored as packed doubles, a quarter of the memory of a tuple of floats:
    # one level can hold up to cap + 1 entries.  Callers only read it.
    rho = 1.0 - d
    out = array("d")
    acc = 0.0
    if len(rest) == 1:
        # The final retry loop: rho * sum_{t<=a} (d*rho)^t.
        term = rho
        for _ in range(rest[0] + 1):
            acc += term
            out.append(acc)
            term *= d * rho
        return out
    n, m = rest[0], rest[1]
    below = _levels(rest[1:], d)
    coeff = rho
    for a in range(n + 1):
        acc += coeff * below[min(n - a, m)]
        out.append(acc)
        coeff *= d
    return out


@lru_cache(maxsize=1 << 16)
def _sync_prob(bounds: tuple, d: float) -> float:
    # P of a two-event sequence, memoised per bound pair and d: the search
    # projects many candidates onto the same pair, and the closed form costs
    # O(n1) per call.
    return sync_prob_two(bounds[0], bounds[1], d)


def _last_level(bounds: tuple, d: float) -> float:
    # P of a sequence of three or more events: `_levels` already memoises it.
    return _levels(bounds, d)[-1]


def _evaluator(n: int):
    # The function giving P of an n-event sequence from its bounds and d.
    return _sync_prob if n == 2 else _last_level


def sync_prob(bounds: Sequence[int], drop_prob: float) -> float:
    """Synchronization probability of a sequence with the given per-event bounds."""
    if len(bounds) < 2:
        raise SequenceTooShort(f"need at least two bounds, got {len(bounds)}")
    if any(n < 0 for n in bounds):
        raise ValueError("retransmission bounds must be nonnegative")
    _check_delta(drop_prob)
    return _evaluator(len(bounds))(tuple(bounds), drop_prob)


def sup_sync_prob_two(drop_prob: float) -> float:
    """Least upper bound of sync_prob over all finite bounds: rho/(1 - d*rho)."""
    _check_delta(drop_prob)
    rho = 1.0 - drop_prob
    return rho / (1.0 - drop_prob * rho)


# ---------------------------------------------------------------------------
# Minimal-bounds optimization


@dataclass(frozen=True)
class Infeasible:
    proven: bool  # True: analytically impossible; False: nothing within the cap
    reason: str

    def __str__(self):
        return self.reason


BoundsResult = Union[dict, Infeasible]


def _constraints(spec: SpecNode) -> tuple:
    """The events of a well-posed specification, in first-occurrence order, and
    one (event indices, required probability) pair per sequence."""
    report = well_posed(spec)
    if not report.ok:
        raise NotWellPosed(report)
    events = events_of(spec)
    index = {e: i for i, e in enumerate(events)}
    constraints = [
        (tuple(index[e] for e in pseq.events), pseq.p) for pseq in enumerate_sequences(spec)
    ]
    return events, constraints


def solve_opt(spec: SpecNode, drop_prob: float, cap: int = DEFAULT_CAP) -> BoundsResult:
    """Minimal-total retransmission bounds meeting every sequence requirement.

    Returns a mapping from each event (in first-occurrence order) to its
    bound; among minimal-sum solutions the lexicographically smallest in that
    event order.  Infeasible(proven=True) when some requirement exceeds the
    analytic supremum, Infeasible(proven=False) when nothing within the cap
    works.
    """
    return _solve(*_constraints(spec), drop_prob, cap)


def _solve(events: list, constraints: list, drop_prob: float, cap: int) -> BoundsResult:
    # solve_opt on the output of _constraints, so that a sweep over drop
    # probabilities builds the constraints once.
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    _check_delta(drop_prob)
    k = len(events)
    budget, tested = _budget(), count(1)

    sup = sup_sync_prob_two(drop_prob)
    for idxs, p in constraints:
        unattainable = p > sup or (p == sup and 0.0 < drop_prob < 1.0)
        if unattainable:
            names = ".".join(events[i].name for i in idxs)
            return Infeasible(
                proven=True,
                reason=f"sequence '{names}' requires {p} but no bounds can exceed {sup:.6g}",
            )

    # One projection and one evaluator per constraint, built once:
    # well_posed rejects one-event sequences, so each projection returns a
    # tuple of at least two bounds.
    checks = [(itemgetter(*idxs), _evaluator(len(idxs)), p) for idxs, p in constraints]

    def feasible(vec):
        if next(tested) > budget:
            raise DivergenceDetected(f"bound search exceeded {budget} candidate vectors; "
                                     "set PROTOFORGE_BUDGET to raise the limit")
        for pick, prob, p in checks:
            if not prob(pick(vec), drop_prob) >= p:
                return False
        return True

    # The zero vector is the unique total-0 candidate (and the answer at drop
    # probability 0); the search below would also return it, but only after
    # the gallop and the per-variable bisections at top.
    if feasible([0] * k):
        return {e: 0 for e in events}

    # Gallop to the least u in 1, 2, 4, ... below the cap whose all-u vector
    # is feasible.  The optimum total is then at most k*u, so no bound in the
    # optimum exceeds top; without such a u, top is the cap.
    u = 1
    while u < cap and not feasible([u] * k):
        u *= 2
    if u < cap:
        top = min(cap, k * u)
    elif feasible([cap] * k):
        top = cap
    else:
        return Infeasible(proven=False, reason=f"no feasible bounds with every bound <= {cap}")
    # One candidate vector: every entry not yet fixed holds top, so a test of
    # the whole vector bounds each constraint from above (P is monotone).
    vec = [top] * k

    # Tightest per-variable lower bound: the least value that keeps every
    # constraint satisfiable with all other variables at top.
    lower = [0] * k
    for j in range(k):
        lo, hi = 0, top
        while lo < hi:
            mid = (lo + hi) // 2
            vec[j] = mid
            if feasible(vec):
                hi = mid
            else:
                lo = mid + 1
        vec[j] = top
        lower[j] = lo

    suffix_min = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix_min[j] = suffix_min[j + 1] + lower[j]

    def go(j, remaining):
        if j == k:
            return True
        # The last entry takes what remains: remaining >= lower[j] there,
        # since level j - 1 left suffix_min[j] (well_posed gives k >= 2).
        hi = min(top, remaining - suffix_min[j + 1])
        for n in range(remaining if j == k - 1 else lower[j], hi + 1):
            vec[j] = n
            # Monotone pruning: the entries after j still hold top.
            if feasible(vec) and go(j + 1, remaining - n):
                return True
        vec[j] = top
        return False

    try:
        for total in range(suffix_min[0], top * k + 1):
            if go(0, total):
                return {e: vec[i] for i, e in enumerate(events)}
    finally:
        del go  # it refers to itself: deleting it breaks that reference cycle
    # A guard, unreachable while P is monotone in every bound: [top] * k is
    # feasible (top >= a u with [u] * k feasible, or top is a feasible cap), and
    # the search at total top * k tries it.
    return Infeasible(proven=False, reason=f"no feasible bounds with every bound <= {cap}")


def realizable(full: FullSpec, cap: int = DEFAULT_CAP) -> bool:
    """Well-posed, with feasible bounds at the specification's drop bound."""
    if not well_posed(full.protocol).ok:
        return False
    return not isinstance(solve_opt(full.protocol, full.delta, cap=cap), Infeasible)
