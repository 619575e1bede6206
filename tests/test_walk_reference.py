"""The engine's step and Monte Carlo against plain references.

`_Engine.step` gives the first successor of a configuration; the reference
stepper lists them all, and the two must agree on every configuration the
reference reaches.

`run_monte_carlo` walks next-medium-node tables for untraced runs and steps
its engine for traced ones.  The reference here steps the execution engine,
without its zeroing of dead counters, one configuration at a time, draws one
number at every medium decision and builds the deduced sequence as it goes,
the way the global rules read.
All three must give the same outcome, deduced sequence and final states for
every run of every seed.
Building the tables must also explore no more configurations than the exact
check does, and the exact check must give the probability of the runs the
reference takes, computed over the same engine in fractions.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoforge import (
    enumerate_sequences,
    explore_sync,
    parse_spec,
    run_monte_carlo,
    synthesize_for_car,
)
from protoforge.semantics import (_DEAD, _END_FAILURE, _END_SUCCESS, _Compiled, _Graph, _Tables,
                                  _trace, _trace_items)
from protoforge.speclang import GlobalEvent, events_of
from conftest import (choice_everywhere_csas, dead_deduction_csas, handoff_guard_csas,
                      handoff_reception_csas, handoff_sync_csas, medium_loop_csas,
                      random_dialogue, repeat_sender_csas, timeout_loop_csas,
                      two_choice_csas)
from reference_stepper import ReferenceEngine, UnreducedEngine

# The three `simulate` specifications of the benchmark, with its fixed bounds.
BENCH_SPECS = (
    ("delta 0.35; cars A B; snd A->B(d) . (ack B->A : 0.7 | nack B->A : 0.8)", (3, 1, 2)),
    ("delta 0.4; cars A B; a A->B(d) . b B->A : 0.6 | c B->A . d A->B : 0.5", (2, 1, 1, 1)),
    ("delta 0.5; cars A B; e0 A->B . e1 B->A . e2 A->B . e3 B->A . e4 A->B : 0.51",
     (4, 4, 5, 4, 2)),
)
MAX_STEPS = 100_000  # configurations per reference run


def _synthesize(text, bounds):
    full = parse_spec(text)
    by_event = dict(zip(events_of(full.protocol), bounds))
    return full, [synthesize_for_car(full.protocol, car, by_event) for car in full.cars]


def _cases():
    cases = []
    for text, bounds in BENCH_SPECS:
        full, csas = _synthesize(text, bounds)
        cases.extend((csas, pseq.events) for pseq in enumerate_sequences(full.protocol))
    return cases


CASES = _cases()


def reference_runs(csas, drop_prob, sigma, runs, seed):
    """(outcome, rho, final_states) per run, one configuration per step."""
    engine = UnreducedEngine(csas, sigma)
    rng = random.Random(str(seed))
    out = []
    for _ in range(runs):
        cfg, rho, outcome = engine.initial(), [], "failure"
        for _ in range(MAX_STEPS):
            if engine.is_success(cfg):
                outcome = "success"
                break
            shape = engine.expand(cfg)
            if shape[0] == "medium":
                dropped = drop_prob > 0.0 and rng.random() < drop_prob
                nxt, items = shape[2] if dropped else shape[1][0]
            elif shape[1]:
                nxt, items = shape[1][0]
            else:
                break  # stuck
            # A step from a broadcast tail delivers, drops or discards the broadcast.
            rho = (rho[:-1] if cfg[2][0] == "b" else rho) + [str(i) for i in items]
            if nxt is _DEAD:
                break
            cfg = nxt
        else:
            raise AssertionError(f"reference run longer than {MAX_STEPS} steps")
        finals = {m.owner: m.state_names[cfg[0][x][0]] for x, m in enumerate(engine.machines)}
        out.append((outcome, rho, finals))
    return out


def reference_probability(csas, drop_prob, sigma) -> Fraction:
    """The probability that a run of reference_runs succeeds, exactly: the
    first successor at every step that is no medium decision, and at a
    medium decision its first delivery with 1 - drop_prob and its drop with
    drop_prob, read as the decimal of the float."""
    engine = UnreducedEngine(csas, sigma)
    d = Fraction(repr(drop_prob))
    memo = {}

    def value(cfg):
        if cfg is _DEAD:
            return Fraction(0)
        if cfg not in memo:
            memo[cfg] = None  # under way: met again, it is a cycle
            shape = None if engine.is_success(cfg) else engine.expand(cfg)
            if shape is None:
                memo[cfg] = Fraction(1)
            elif shape[0] == "medium":
                memo[cfg] = (1 - d) * value(shape[1][0][0]) + d * value(shape[2][0])
            else:
                memo[cfg] = value(shape[1][0][0]) if shape[1] else Fraction(0)
        assert memo[cfg] is not None, "cycle"
        return memo[cfg]

    return value(engine.initial())


def assert_agrees(csas, drop_prob, sigma, runs, seed):
    expected = reference_runs(csas, drop_prob, sigma, runs, seed)
    traced = run_monte_carlo(csas, drop_prob, sigma, runs=runs, seed=seed, collect_traces=True)
    got = [(t["outcome"], t["rho"], t["final_states"]) for t in traced.traces]
    assert got == expected
    assert [t["run"] for t in traced.traces] == list(range(runs))
    successes = sum(outcome == "success" for outcome, _, _ in expected)
    assert traced.successes == successes
    plain = run_monte_carlo(csas, drop_prob, sigma, runs=runs, seed=seed)
    assert (plain.successes, plain.failures) == (successes, runs - successes)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(range(len(CASES))),
       drop_prob=st.sampled_from([0.0, 0.35, 0.5, 1.0]),
       seed=st.integers(-10**6, 10**6),
       runs=st.integers(1, 60))
def test_walk_matches_reference_on_bench_specs(case, drop_prob, seed, runs):
    csas, sigma = CASES[case]
    assert_agrees(csas, drop_prob, sigma, runs, seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(-10**6, 10**6), runs=st.integers(1, 60))
def test_walk_matches_reference_on_a_retry_loop(seed, runs):
    assert_agrees(medium_loop_csas(), 0.5, (GlobalEvent("e0", "A", "B"),), runs, seed)


@pytest.mark.parametrize("drop_prob", [0.0, 0.3, 1.0])
def test_walk_matches_reference_on_a_dead_deduction(drop_prob):
    sigma = (GlobalEvent("e0", "A", "B"), GlobalEvent("e1", "A", "B"))
    assert_agrees(dead_deduction_csas(), drop_prob, sigma, 5, 3)


@pytest.mark.parametrize("drop_prob", [0.0, 0.5, 1.0])
def test_walk_matches_reference_with_no_medium_decision(drop_prob):
    assert_agrees(handoff_sync_csas(), drop_prob, (GlobalEvent("e0", "A", "B"),), 5, 3)


NO_MEDIUM = (
    (handoff_sync_csas, (GlobalEvent("e0", "A", "B"),), _END_SUCCESS),
    (dead_deduction_csas, (GlobalEvent("e0", "A", "B"), GlobalEvent("e1", "A", "B")),
     _END_FAILURE),
)


@pytest.mark.parametrize("make, sigma, end", NO_MEDIUM)
@pytest.mark.parametrize("drop_prob", [0.0, 0.5, 1.0])
def test_untraced_runs_with_no_medium_decision_draw_nothing(monkeypatch, make, sigma, end,
                                                             drop_prob):
    from protoforge import semantics

    draws = []

    class Counted(semantics.random.Random):
        def random(self):
            draws.append(None)
            return super().random()

    monkeypatch.setattr(semantics.random, "Random", Counted)
    csas = make()
    assert _Tables(_Graph(csas, sigma, drop_prob)).root == end
    result = run_monte_carlo(csas, drop_prob, sigma, runs=1000, seed=7)
    assert result.successes == (1000 if end == _END_SUCCESS else 0)
    assert draws == []


def test_walk_matches_reference_on_random_dialogues():
    rng = random.Random(15)
    for _ in range(30):
        tree = random_dialogue(rng)
        bounds = {e: rng.randint(0, 3) for e in events_of(tree)}
        csas = [synthesize_for_car(tree, car, bounds) for car in ("A", "B")]
        for pseq in enumerate_sequences(tree):
            for drop_prob in (0.0, 0.35, 0.5, 1.0):
                assert_agrees(csas, drop_prob, pseq.events, rng.randint(1, 30),
                              rng.randint(-10**6, 10**6))


CHAIN8 = ("delta 0.6; cars A B; "
          + " . ".join(f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(8)) + " : 0.5",
          (11, 11, 12, 12, 12, 12, 9, 4))


@pytest.mark.parametrize("text, bounds", BENCH_SPECS + (CHAIN8,))
def test_tables_build_no_more_of_the_graph_than_the_exact_check(text, bounds):
    # The tables are built whole before the first run, over the same graph
    # as exact exploration, so they never need more configs than it does.
    full, csas = _synthesize(text, bounds)
    for pseq in enumerate_sequences(full.protocol):
        graph = _Graph(csas, pseq.events, full.delta)
        _Tables(graph)
        exact = explore_sync(csas, full.delta, pseq.events)
        assert len(graph.nodes) <= exact.configs_processed


HAND_WRITTEN = (
    (handoff_sync_csas, (GlobalEvent("e0", "A", "B"),)),
    (dead_deduction_csas, (GlobalEvent("e0", "A", "B"), GlobalEvent("e1", "A", "B"))),
    (two_choice_csas, (GlobalEvent("e0", "A", "B"),)),
    (handoff_guard_csas, (GlobalEvent("e0", "A", "B"),)),
    (choice_everywhere_csas, (GlobalEvent("e0", "A", "B"),)),
    (repeat_sender_csas, (GlobalEvent("e0", "A", "B"), GlobalEvent("e1", "A", "B"))),
)


@pytest.mark.parametrize("drop_prob", [0.0, 0.35, 0.5, 1.0])
def test_exact_check_matches_the_reference_probability(drop_prob):
    cases = [(make(), sigma) for make, sigma in HAND_WRITTEN] + CASES
    for csas, sigma in cases:
        assert explore_sync(csas, drop_prob, sigma).probability == \
            reference_probability(csas, drop_prob, sigma)


E0 = (GlobalEvent("e0", "A", "B"),)
STEP_CASES = [(make(), sigma) for make, sigma in HAND_WRITTEN + (
    (handoff_reception_csas, E0), (medium_loop_csas, E0))] + CASES


def reference_first(engine, cfg):
    """(config, items, dropped, more) from the reference's full successor list."""
    shape = engine.expand(cfg)
    if shape[0] == "medium":
        (nxt, items), dropped = shape[1][0], shape[2][0]
        return nxt, items, dropped, len(shape[1]) > 1
    if not shape[1]:
        return None, (), None, False
    nxt, items = shape[1][0]
    return nxt, items, None, len(shape[1]) > 1


def test_step_is_the_first_of_the_reference_successors():
    # Every config the reference reaches through any successor, first or not.
    met = Counter()
    for csas, sigma in STEP_CASES:
        engine = ReferenceEngine(csas, sigma)
        seen, todo = set(), [engine.initial()]
        while todo:
            cfg = todo.pop()
            if cfg is _DEAD or cfg in seen:
                continue
            seen.add(cfg)
            first = reference_first(engine, cfg)
            nxt, note, dropped, more = engine.step(cfg)
            items = () if note is None else _trace_items(note)
            assert (nxt, items, dropped, more) == first, cfg
            shape = engine.expand(cfg)
            succs = shape[1] + [shape[2]] if shape[0] == "medium" else shape[1]
            todo.extend(nxt for nxt, _ in succs)
            met.update({"config": 1, "medium": first[2] is not None, "stuck": first[0] is None,
                        "dead": first[0] is _DEAD, "more": first[3],
                        "hand-off": cfg[2][0] != "b" and first[0] is not None
                        and first[0][1] != cfg[1]})
    assert met["config"] > 700 and all(met[k] > 0 for k in
                                      ("medium", "stuck", "dead", "more", "hand-off")), met


def test_a_draw_equal_to_the_drop_probability_delivers():
    # A medium decision drops only when its draw is below the drop
    # probability, in a traced run as in the table walk: drawing exactly the
    # drop probability every time delivers every broadcast.
    for csas, sigma in CASES:
        graph = _Graph(csas, sigma, 0.35)
        assert _trace(graph, 0, lambda: 0.35)["outcome"] == "success"
        assert _Tables(graph).walk(1, lambda: 0.35) == 1


def reference_live(csa) -> list:
    """Per state, a 1/0 factor per counter, or None when every counter is
    live: live where a guard at the state reads it, or live at a successor."""
    live = {s: set() for s in csa.states}
    for (src, label), _ in csa.transitions.items():
        if hasattr(label, "cond"):
            live[src].add(label.cond.var)
    changed = True
    while changed:
        changed = False
        for (src, _), dst in csa.transitions.items():
            if not live[dst] <= live[src]:
                live[src] |= live[dst]
                changed = True
    return [None if live[s] == set(csa.vars) else tuple(int(v in live[s]) for v in csa.vars)
            for s in csa.states]


def test_counters_are_live_where_a_guard_reads_them_ahead():
    rng = random.Random(11)
    pairs = [csas for csas, _ in CASES]
    for tree in (random_dialogue(rng) for _ in range(20)):
        bounds = {e: rng.randint(0, 3) for e in events_of(tree)}
        pairs.append([synthesize_for_car(tree, car, bounds) for car in ("A", "B")])
    pairs += [timeout_loop_csas(), handoff_guard_csas(), choice_everywhere_csas()]
    partly = every = 0
    for csas in pairs:
        compiled = _Compiled(csas)
        for csa, machine in zip(compiled, compiled.machines):
            assert machine.live == reference_live(csa)
            partly += any(keep is not None for keep in machine.live)
            every += None in machine.live and bool(csa.vars)
    assert partly > 10 and every > 10
