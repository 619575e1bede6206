"""The suffix sweep of `bounds._levels` and the exact check against the
per-budget recursion.

The reference below evaluates P one budget at a time: `phase(a, rest)` sums,
over the drops j of the next message, the phase of the remaining suffix with
min(n - j, next bound) timeouts left.  It is generic in the number type of d.
In floats, the sweep adds the same terms in the same order, so the two must
agree to the last bit, not within a tolerance.  In `Fraction`, it is the exact
value that `explore_sync` must return.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from protoforge import (
    enumerate_sequences,
    explore_sync,
    parse_spec,
    sync_prob,
    synthesize_for_car,
)

DELTAS = (0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.35, 0.5, 0.6)


def retry_tail(a, b, d):
    rho = 1 - d
    acc = 0
    term = rho
    for _ in range(min(a, b) + 1):
        acc += term
        term *= d * rho
    return acc


@lru_cache(maxsize=None)
def phase(a, rest, d):
    if len(rest) == 1:
        return retry_tail(a, rest[0], d)
    n_next = rest[0]
    tail = rest[1:]
    acc = 0
    coeff = 1 - d
    for j in range(min(a, n_next) + 1):
        acc += coeff * phase(min(n_next - j, tail[0]), tail, d)
        coeff *= d
    return acc


def reference(bounds, d):
    acc = 0
    coeff = 1 - d
    for i in range(bounds[0] + 1):
        acc += coeff * phase(min(bounds[0] - i, bounds[1]), tuple(bounds[1:]), d)
        coeff *= d
    return acc


def test_sweep_matches_recursion_bit_for_bit():
    rng = random.Random(11)
    deltas = DELTAS + tuple(rng.random() for _ in range(5))
    for _ in range(1500):
        bounds = [rng.randint(0, 40) for _ in range(rng.randint(3, 9))]
        d = rng.choice(deltas)
        assert sync_prob(bounds, d) == reference(bounds, d), (bounds, d)
    phase.cache_clear()


def test_sweep_matches_recursion_with_a_bound_of_512():
    rng = random.Random(12)
    for d in DELTAS:
        for _ in range(2):
            bounds = [rng.randint(0, 40) for _ in range(rng.randint(3, 5))]
            bounds[rng.randrange(len(bounds))] = 512
            assert sync_prob(bounds, d) == reference(bounds, d), (bounds, d)
    phase.cache_clear()


def test_exact_check_equals_the_recursion_in_fractions():
    # The synthesized chains of 2-5 events with every bound in 0-2, at
    # decimal deltas, and one 6-event chain whose value has 49 significant
    # digits, past the default decimal precision of 28.  The exact check
    # reads the float delta back as its decimal, so it must equal the
    # recursion at that decimal, with no tolerance.
    cases = [(bounds, ("0.3", "0.35", "0.5", "0.6"))
             for length in range(2, 6)
             for bounds in itertools.product(range(3), repeat=length)]
    cases.append(((8,) * 6, ("0.35",)))
    for bounds, deltas in cases:
        names = [f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(len(bounds))]
        full = parse_spec("delta 0.5; cars A B; " + " . ".join(names) + " : 0.5")
        (pseq,) = enumerate_sequences(full.protocol)
        by_event = dict(zip(pseq.events, bounds))
        csas = [synthesize_for_car(full.protocol, car, by_event) for car in full.cars]
        for text in deltas:
            exact = explore_sync(csas, float(text), pseq.events).probability
            assert exact == reference(bounds, Fraction(text)), (bounds, text)
    phase.cache_clear()
