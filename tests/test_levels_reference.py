"""The suffix sweep of `bounds._levels` against the per-budget recursion.

The reference below evaluates P of three or more events one budget at a
time: `phase(a, rest)` sums, over the drops j of the next message, the phase
of the remaining suffix with min(n - j, next bound) timeouts left.  The sweep
adds the same terms in the same order, so the two must agree to the last bit,
not within a tolerance.
"""

import random
from functools import lru_cache

from protoforge import sync_prob

DELTAS = (0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.35, 0.5, 0.6)


def retry_tail(a, b, d):
    rho = 1.0 - d
    acc = 0.0
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
    acc = 0.0
    coeff = 1.0 - d
    for j in range(min(a, n_next) + 1):
        acc += coeff * phase(min(n_next - j, tail[0]), tail, d)
        coeff *= d
    return acc


def reference(bounds, d):
    acc = 0.0
    coeff = 1.0 - d
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
