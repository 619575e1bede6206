"""Cross-validation of the exploration engine, the solver, and determinism.

These tests rebuild results through independent routes: the exact
synchronization probability is recomputed by enumerating every distinct
deduced sequence via the public single-step interface, the solver's optimum is
recomputed by brute-force enumeration in (total, lexicographic) order, and CLI
determinism is re-checked across separate processes with different hash seeds.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

import protoforge
from protoforge import (
    GlobalEvent,
    Infeasible,
    check_correctness,
    enumerate_sequences,
    explore_sync,
    global_steps,
    initial_config,
    parse_spec,
    project,
    solve_opt,
    sync_prob,
    synthesize_all,
    synthesize_for_car,
)
from protoforge.semantics import BroadcastItem, EnvItem, RecvItem, SysItem, TimeoutItem
from protoforge.speclang import events_of
from conftest import EXAMPLE_TEXT, MIXED_TEXT, random_dialogue, reference_receiver, reference_sender


def _actors(rho):
    cars = set()
    for item in rho:
        if isinstance(item, (EnvItem, SysItem, TimeoutItem)):
            cars.add(item.car)
        elif isinstance(item, RecvItem):
            cars.add(item.msg.dst)
        elif isinstance(item, BroadcastItem):
            cars.add(item.msg.src)
    return cars


def sum_over_distinct_rhos(csas, delta, sigma, priority=None, limit=500_000):
    """Probability mass of sigma, summed over distinct complete deductions.

    Walks every deduction path separately (no configuration merging), keeps
    the final deduced sequences, and sums one probability per distinct
    sequence.  Exponential, so only usable for tiny retransmission bounds; its
    value must match the merged exploration exactly.  The first car of sigma
    holds the priority at the start unless priority names another.
    """
    finals = {c.owner: c.finals for c in csas}
    stack = [initial_config(csas, priority or sigma[0].src)]
    seen = {}
    steps = 0
    while stack:
        steps += 1
        assert steps < limit, "blowup: shrink the bounds"
        cfg = stack.pop()
        succs = global_steps(csas, delta, cfg, sigma)
        if succs:
            stack.extend(succs)
            continue
        proj = project(cfg.rho)
        if len(proj) != len(sigma):
            continue
        if any(not isinstance(got, GlobalEvent) or got != want
               for got, want in zip(proj, sigma)):
            continue
        if any(cfg.locals[car].state not in finals[car] for car in _actors(cfg.rho)):
            continue
        key = tuple(str(item) for item in cfg.rho)
        if key in seen:
            assert seen[key] == pytest.approx(cfg.prob, abs=1e-15)
        seen[key] = cfg.prob
    return sum(seen.values())


def test_distinct_deduction_sum_matches_exploration(example_spec):
    events = events_of(example_spec.protocol)
    for nvec in ((0, 0, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0)):
        bounds = dict(zip(events, nvec))
        csas = [synthesize_for_car(example_spec.protocol, c, bounds) for c in ("A", "B")]
        for pseq in enumerate_sequences(example_spec.protocol):
            for delta in (0.2, 0.5):
                brute = sum_over_distinct_rhos(csas, delta, pseq.events)
                merged = explore_sync(csas, delta, pseq.events).probability
                assert brute == pytest.approx(merged, abs=1e-12)


def test_initial_priority_is_irrelevant(example_spec):
    csas = [reference_sender(), reference_receiver()]
    snd_ack = enumerate_sequences(example_spec.protocol)[0].events
    merged = explore_sync(csas, 0.35, snd_ack).probability
    for car in ("A", "B"):
        assert sum_over_distinct_rhos(csas, 0.35, snd_ack, priority=car) == \
            pytest.approx(merged, abs=1e-12)


def test_distinct_deduction_sum_three_event_chain(chain3_spec):
    events = events_of(chain3_spec.protocol)
    (pseq,) = enumerate_sequences(chain3_spec.protocol)
    for nvec in ((0, 0, 0), (1, 1, 0), (0, 1, 1)):
        bounds = dict(zip(events, nvec))
        csas = [synthesize_for_car(chain3_spec.protocol, c, bounds) for c in ("A", "B")]
        brute = sum_over_distinct_rhos(csas, 0.3, pseq.events)
        merged = explore_sync(csas, 0.3, pseq.events).probability
        assert brute == pytest.approx(merged, abs=1e-12)


def compositions(total, parts):
    """Vectors of `parts` nonnegative integers summing to `total`, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_by_total(tree, delta, cap=None):
    """The first feasible vector in (total, lexicographic) order, with no bound
    above `cap`; without a cap the totals are unbounded, so the specification
    must be realizable."""
    events = events_of(tree)
    seqs = enumerate_sequences(tree)
    totals = itertools.count() if cap is None else range(cap * len(events) + 1)
    for total in totals:
        for vec in compositions(total, len(events)):
            if cap is not None and max(vec) > cap:
                continue
            if all(sync_prob([vec[events.index(e)] for e in pseq.events], delta) >= pseq.p
                   for pseq in seqs):
                return dict(zip(events, vec))
    return None


def test_solver_matches_brute_force_in_sum_then_lex_order():
    rng = random.Random(2024)
    checked = 0
    while checked < 25:
        tree = random_dialogue(rng, max_events=4)
        if len(events_of(tree)) > 4:
            continue
        delta = rng.uniform(0.05, 0.5)
        expected = brute_force_by_total(tree, delta, cap=4)
        solved = solve_opt(tree, delta, cap=4)
        if expected is None:
            assert isinstance(solved, Infeasible)
        else:
            assert not isinstance(solved, Infeasible)
            assert solved == expected, (
                f"solver {list(solved.values())} vs brute force "
                f"{list(expected.values())} at delta={delta}"
            )
            checked += 1


def _check_against_brute_force(tree, delta):
    # solve_opt at its default cap against the uncapped brute force, then at
    # small caps and one below the optimum's largest bound, where the answer
    # is Infeasible(proven=False) exactly when the all-cap vector fails.
    solved = solve_opt(tree, delta)
    if isinstance(solved, Infeasible):
        assert solved.proven, f"{solved} at delta={delta}"
        return False
    expected = brute_force_by_total(tree, delta)
    assert solved == expected, (
        f"solver {list(solved.values())} vs brute force "
        f"{list(expected.values())} at delta={delta}"
    )
    seqs = enumerate_sequences(tree)
    for cap in sorted({0, 1, 3, 5, max(solved.values()) - 1} - {-1}):
        capped = solve_opt(tree, delta, cap=cap)
        all_cap_feasible = all(
            sync_prob([cap] * len(pseq.events), delta) >= pseq.p for pseq in seqs
        )
        if not all_cap_feasible:
            assert capped == Infeasible(
                proven=False, reason=f"no feasible bounds with every bound <= {cap}")
        else:
            assert capped == brute_force_by_total(tree, delta, cap=cap), (
                f"cap={cap} delta={delta}")
    return True


def test_solver_matches_uncapped_brute_force_at_default_cap():
    # At the default cap the search is anchored at the galloped bound rather
    # than at the cap, unlike the cap=4 comparison above.
    rng = random.Random(4096)
    checked = 0
    while checked < 25:
        tree = random_dialogue(rng, max_events=4)
        if len(events_of(tree)) > 4:
            continue
        checked += _check_against_brute_force(tree, rng.uniform(0.05, 0.6))


@pytest.mark.parametrize("length", [3, 4])
@pytest.mark.parametrize("delta,p", [(0.5, 0.3), (0.5, 0.51), (0.6, 0.38), (0.6, 0.49), (0.6, 0.5)])
def test_solver_matches_uncapped_brute_force_on_chains(length, delta, p):
    # At delta 0.6 the 3-event optima for 0.38 and 0.5 are (5, 3, 1) and
    # (9, 7, 3): a bound above the galloped u (4 and 8), below k*u.
    events = " . ".join(
        f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(length))
    tree = parse_spec(f"delta {delta}; cars A B; {events} : {p}").protocol
    assert _check_against_brute_force(tree, delta)


def test_mixed_depth_dialogue_end_to_end():
    # Branches of different lengths share the prefix bound; the leaf of each
    # branch retries off a different stored message.
    full = parse_spec(MIXED_TEXT)
    result = synthesize_all(full)
    report = check_correctness(list(result.csas.values()), full.delta, full.protocol)
    assert report.ok and all(c.margin >= 0 for c in report.checks)

    events = events_of(full.protocol)
    for nvec in itertools.product(range(3), repeat=len(events)):
        bounds = dict(zip(events, nvec))
        csas = [synthesize_for_car(full.protocol, c, bounds) for c in ("A", "B")]
        for pseq in enumerate_sequences(full.protocol):
            exact = explore_sync(csas, 0.2, pseq.events).probability
            formula = sync_prob([bounds[e] for e in pseq.events], 0.2)
            assert abs(exact - formula) < 1e-9


def test_synthesis_is_correct_by_construction_on_random_dialogues():
    # The headline property: whenever bounds exist, the synthesized automata
    # meet every sequence requirement under the exact execution semantics.
    rng = random.Random(777)
    verified = 0
    while verified < 15:
        tree = random_dialogue(rng, max_events=6)
        delta = round(rng.uniform(0.05, 0.35), 3)
        cars = ("A", "B")
        solved = solve_opt(tree, delta, cap=32)
        if isinstance(solved, Infeasible):
            continue
        csas = [synthesize_for_car(tree, car, solved) for car in cars]
        report = check_correctness(csas, delta, tree)
        assert report.ok, (
            f"guarantee broken at delta={delta} bounds={list(solved.values())}"
        )
        assert all(c.margin >= 0 for c in report.checks)
        verified += 1


def test_tampered_automata_fail_verification(example_spec):
    # Re-synthesize the receiver with a depleted answer budget; the guarantee
    # for snd.ack must collapse and verification must notice.
    result = synthesize_all(example_spec)
    events = events_of(example_spec.protocol)
    weak = dict(result.bounds)
    weak[next(e for e in events if e.name == "ack")] = 0
    weak_b = synthesize_for_car(example_spec.protocol, "B", weak)
    report = check_correctness([result.csas["A"], weak_b], 0.35, example_spec.protocol)
    assert not report.ok
    bad = next(c for c in report.checks if [e.name for e in c.events] == ["snd", "ack"])
    assert bad.achieved < bad.required


def test_cli_determinism_across_processes(tmp_path):
    spec_path = tmp_path / "example.psl"
    spec_path.write_text(EXAMPLE_TEXT + "\n")
    # The children get a minimal environment, so variables such as
    # PROTOFORGE_BUDGET do not leak in, plus a PYTHONPATH led by the source
    # root of the protoforge imported here: they run the tree under test
    # whether or not the package is installed, and an installed copy never
    # shadows it.
    src_root = os.path.dirname(os.path.dirname(protoforge.__file__))
    pythonpath = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for tag, hashseed in (("one", "0"), ("two", "12345")):
        out_dir = tmp_path / tag
        code = subprocess.run(
            [sys.executable, "-m", "protoforge.cli", "synth",
             "--spec", str(spec_path), "--out", str(out_dir)],
            capture_output=True,
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        )
        assert code.returncode == 0, code.stderr.decode()
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
