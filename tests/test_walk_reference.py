"""Monte Carlo against a plain reference walk.

`run_monte_carlo` walks next-medium-node tables for untraced runs and steps
its engine for traced ones.  The reference here steps the raw execution
engine one configuration at a time, draws one number at every medium decision
and builds the deduced sequence as it goes, the way the global rules read.
All three must give the same outcome, deduced sequence and final states for
every run of every seed.
Building the tables must also explore no more configurations than the exact
check does.
"""

import random

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
from protoforge.semantics import _DEAD, _Engine, _Graph, _Tables
from protoforge.speclang import GlobalEvent, events_of
from conftest import dead_deduction_csas, medium_loop_csas, random_dialogue

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
    engine = _Engine(csas, sigma)
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
                step = shape[2] if dropped else shape[1][0]
            elif shape[1]:
                step = shape[1][0]
            else:
                break  # stuck
            rho = (rho if step.kind == "free" else rho[:-1]) + [str(i) for i in step.items]
            if step.cfg is _DEAD:
                break
            cfg = step.cfg
        else:
            raise AssertionError(f"reference run longer than {MAX_STEPS} steps")
        finals = {m.owner: m.state_names[cfg[0][x][0]] for x, m in enumerate(engine.machines)}
        out.append((outcome, rho, finals))
    return out


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
    # The tables are built whole before the first run; they follow one
    # successor of each free node, so they never need more configs than
    # exact exploration, which follows all of them.
    full, csas = _synthesize(text, bounds)
    for pseq in enumerate_sequences(full.protocol):
        graph = _Graph(csas, pseq.events, full.delta)
        _Tables(graph)
        exact = explore_sync(csas, full.delta, pseq.events)
        assert len(graph.nodes) <= exact.configs_processed
