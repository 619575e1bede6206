import functools
import random
import time

import pytest

from protoforge import (
    Infeasible,
    NotWellPosed,
    SequenceTooShort,
    parse_spec,
    realizable,
    solve_opt,
    sup_sync_prob_two,
    sync_prob,
    sync_prob_two,
)
from protoforge.speclang import enumerate_sequences, events_of
from conftest import random_dialogue

# Pinned by the exhaustive deduction oracle (see test_semantics); kept here as
# regression constants for the closed form and the recursion.
R_31_035 = 0.781780796875
R_222_03 = 0.790648957


def test_two_bounds_spot_value():
    assert abs(sync_prob_two(3, 1, 0.35) - 0.781781) < 1e-6
    assert sync_prob_two(3, 1, 0.35) == pytest.approx(R_31_035, abs=1e-12)


def test_two_bounds_lossless_and_hopeless():
    for n1 in range(4):
        for n2 in range(4):
            assert sync_prob_two(n1, n2, 0.0) == pytest.approx(1.0, abs=1e-15)
            assert sync_prob_two(n1, n2, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_sync_prob_delegates_for_two(example_spec):
    rng = random.Random(2)
    for _ in range(50):
        n1, n2 = rng.randint(0, 6), rng.randint(0, 6)
        d = rng.random()
        assert sync_prob([n1, n2], d) == sync_prob_two(n1, n2, d)


def test_sync_prob_rejects_short_sequences():
    with pytest.raises(SequenceTooShort):
        sync_prob([3], 0.2)
    with pytest.raises(SequenceTooShort):
        sync_prob([], 0.2)


def test_sync_prob_lossless_any_length():
    rng = random.Random(3)
    for _ in range(20):
        bounds = [rng.randint(0, 5) for _ in range(rng.randint(2, 5))]
        assert sync_prob(bounds, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_three_event_regression_value():
    assert sync_prob([2, 2, 2], 0.3) == pytest.approx(R_222_03, abs=1e-9)


def test_sup_spot_values():
    assert abs(sup_sync_prob_two(0.35) - 0.84142) < 1e-5
    assert sup_sync_prob_two(0.0) == 1.0
    assert sup_sync_prob_two(1.0) == 0.0


def test_sup_is_an_upper_bound_and_approached():
    for d in (0.1, 0.25, 0.35, 0.5):
        sup = sup_sync_prob_two(d)
        for n1 in range(6):
            for n2 in range(6):
                assert sync_prob_two(n1, n2, d) <= sup
        assert sup - sync_prob_two(50, 50, d) < 1e-6


def test_sup_bounds_longer_sequences_too():
    # The same supremum limits sequences of any length, since every extra
    # delivery phase contributes a factor that telescopes to one in the limit.
    for d in (0.1, 0.3, 0.5):
        sup = sup_sync_prob_two(d)
        for length in (3, 4, 5):
            assert sync_prob([4] * length, d) <= sup
            assert sup - sync_prob([60] * length, d) < 1e-6


def test_probabilities_stay_in_range_across_the_unit_interval():
    # No singularities anywhere on [0, 1]; the denominator 1 - d*(1-d) is
    # smallest at d = 0.5 and still far from zero.
    for k in range(21):
        d = k / 20
        for bounds in ([0, 0], [3, 1], [5, 5], [2, 2, 2], [1, 4, 0, 3]):
            value = sync_prob(bounds, d)
            assert 0.0 <= value <= 1.0
        assert 0.0 <= sup_sync_prob_two(d) <= 1.0


def test_monotone_in_bounds_and_drop_probability():
    rng = random.Random(55)
    for _ in range(200):
        length = rng.randint(2, 4)
        bounds = [rng.randint(0, 5) for _ in range(length)]
        d = rng.uniform(0.02, 0.98)
        base = sync_prob(bounds, d)
        for j in range(length):
            bumped = list(bounds)
            bumped[j] += 1
            assert sync_prob(bumped, d) >= base - 1e-12
        worse = min(0.999, d + rng.uniform(0.001, 0.3))
        assert sync_prob(bounds, worse) <= base + 1e-12


def test_solve_opt_reproduces_published_bounds(example_spec):
    start = time.perf_counter()
    solved = solve_opt(example_spec.protocol, 0.35)
    elapsed = time.perf_counter() - start
    assert {e.name: n for e, n in solved.items()} == {"snd": 3, "ack": 1, "nack": 2}
    assert sum(solved.values()) == 6
    assert elapsed < 1.0


def test_solve_opt_lossless_is_all_zero(example_spec):
    solved = solve_opt(example_spec.protocol, 0.0)
    assert all(n == 0 for n in solved.values())


def test_solve_opt_infeasible_via_supremum():
    spec = parse_spec("delta 0.35; cars A B; snd A->B(d) . ack B->A : 0.9")
    start = time.perf_counter()
    result = solve_opt(spec.protocol, 0.35, cap=10 ** 6)
    elapsed = time.perf_counter() - start
    assert isinstance(result, Infeasible)
    assert result.proven
    assert elapsed < 0.5  # detected analytically, no sweep


def test_solve_opt_cap_exhaustion_is_distinct():
    # Feasible in principle (0.84 < sup = 0.8414...) but far beyond a tiny cap.
    spec = parse_spec("delta 0.35; cars A B; snd A->B(d) . ack B->A : 0.84")
    result = solve_opt(spec.protocol, 0.35, cap=2)
    assert isinstance(result, Infeasible)
    assert not result.proven


def _count_level_entries(monkeypatch):
    # Level entries computed, summed over the levels `_levels` builds (not over
    # its lookups), with both solver tables cold.  The recursion looks
    # `_levels` up in the module, so the counting table sees every call.
    from protoforge import bounds

    compute = bounds._levels.__wrapped__
    computed = []

    @functools.lru_cache(maxsize=bounds._levels.cache_parameters()["maxsize"])
    def counting(rest, d):
        out = compute(rest, d)
        computed.append(len(out))
        return out

    monkeypatch.setattr(bounds, "_levels", counting)
    bounds._sync_prob.cache_clear()
    return computed


def test_solve_opt_work_stays_small_on_a_four_event_chain(monkeypatch):
    # Counts work rather than time, so it holds on any machine.  A search
    # anchored at the cap instead of a galloped bound computes 35,017 level
    # entries here, against 5,163.
    spec = parse_spec("delta 0.6; cars A B; e0 A->B . e1 B->A . e2 A->B . e3 B->A : 0.49")
    computed = _count_level_entries(monkeypatch)
    solved = solve_opt(spec.protocol, 0.6)
    assert list(solved.values()) == [9, 8, 8, 3]
    assert sum(computed) < 15_000


def test_solve_opt_returns_zeros_at_once_when_zeros_suffice(monkeypatch):
    # A 40-event chain that any bounds meet.  Searching for the optimum from
    # a galloped anchor instead of trying the zero vector first computes
    # 196,097 level entries here, against 40.
    chain = " . ".join(f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(40))
    spec = parse_spec(f"delta 0.3; cars A B; {chain} : 0.0")
    computed = _count_level_entries(monkeypatch)
    solved = solve_opt(spec.protocol, 0.3)
    assert list(solved.values()) == [0] * 40
    assert sum(computed) < 1_000


def test_solve_opt_rejects_ill_posed():
    spec = parse_spec("delta 0.2; cars A B; e A->B : 0.5")
    with pytest.raises(NotWellPosed):
        solve_opt(spec.protocol, 0.2)


def test_solve_opt_result_is_feasible_and_minimal():
    rng = random.Random(909)
    found = 0
    while found < 20:
        tree = random_dialogue(rng)
        d = rng.uniform(0.05, 0.45)
        solved = solve_opt(tree, d, cap=64)
        if isinstance(solved, Infeasible):
            continue
        found += 1
        events = events_of(tree)
        seqs = enumerate_sequences(tree)

        def feasible(vec):
            return all(
                sync_prob([vec[e] for e in pseq.events], d) >= pseq.p for pseq in seqs
            )

        assert feasible(solved)
        for e in events:
            if solved[e] == 0:
                continue
            poked = dict(solved)
            poked[e] -= 1
            assert not feasible(poked), "a smaller-sum vector would contradict minimality"


def test_feasible_set_upward_closed():
    rng = random.Random(404)
    checked = 0
    while checked < 50:
        tree = random_dialogue(rng)
        d = rng.uniform(0.05, 0.45)
        solved = solve_opt(tree, d, cap=64)
        if isinstance(solved, Infeasible):
            continue
        checked += 1
        seqs = enumerate_sequences(tree)
        grown = {e: n + rng.randint(0, 3) for e, n in solved.items()}
        assert all(
            sync_prob([grown[e] for e in pseq.events], d) >= pseq.p for pseq in seqs
        )


def test_realizable(example_spec):
    assert realizable(example_spec)
    hard = parse_spec(
        "delta 0.35; cars A B; snd A->B(d) . (ack B->A : 0.9 | nack B->A : 0.9)"
    )
    assert not realizable(hard)
    ill = parse_spec("delta 0.2; cars A B; e A->B : 0.5")
    assert not realizable(ill)
