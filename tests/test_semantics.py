import math
import random

import pytest

from protoforge import (
    BroadcastCond,
    Condition,
    Csa,
    DivergenceDetected,
    EnvEvent,
    GlobalConfig,
    LocalConfig,
    LocalEvent,
    Message,
    SysCond,
    TimeoutUpd,
    check_correctness,
    enumerate_sequences,
    explore_sync,
    global_steps,
    initial_config,
    parse_spec,
    project,
    run_monte_carlo,
    sync_prob,
    synthesize_for_car,
)
from protoforge.semantics import BroadcastItem, EnvItem, RecvItem, SysItem, TimeoutItem
from protoforge.speclang import GlobalEvent, events_of
from conftest import (
    dead_deduction_csas,
    medium_loop_csas,
    no_exit_loop_csas,
    reference_receiver,
    reference_sender,
    timeout_loop_csas,
    trap_loop_csas,
)

# Exact synchronization probability of snd.ack with bounds (3, 1) at drop
# probability 0.35, pinned by the exhaustive deduction below and equal to the
# closed form.
R_SND_ACK = 0.781780796875


@pytest.fixture(scope="module")
def reference_csas():
    return [reference_sender(), reference_receiver()]


@pytest.fixture(scope="module")
def snd_ack(example_spec):
    return enumerate_sequences(example_spec.protocol)[0].events


@pytest.fixture(scope="module")
def snd_nack(example_spec):
    return enumerate_sequences(example_spec.protocol)[1].events


# ---------------------------------------------------------------------------
# Local rules


def test_local_env_at_start(reference_csas, snd_ack):
    (step,) = global_steps(reference_csas, 0.35, initial_config(reference_csas, "A"), snd_ack)
    assert step.locals["A"].state == "s2"
    assert step.rho == (EnvItem("A", "snd", "B", "d"),)


def sender_at(reference_csas, state, nu1):
    # The sender in `state` with counter nu1 after the snd call, holding the
    # priority; the receiver has not moved.
    receiver = reference_csas[1]
    return GlobalConfig(
        rho=(EnvItem("A", "snd", "B", "d"),),
        locals={"A": LocalConfig(state, (("nu1", nu1),)), "B": LocalConfig.initial(receiver)},
        priority="A",
        prob=1.0,
    )


def test_local_broadcast_vs_fail_guard(reference_csas, snd_ack):
    (low,) = global_steps(reference_csas, 0.35, sender_at(reference_csas, "s2", 0), snd_ack)
    assert low.locals["A"].state == "s3"
    assert low.rho[-1] == BroadcastItem(Message("a", "A", "B", "d"))
    (high,) = global_steps(reference_csas, 0.35, sender_at(reference_csas, "s2", 4), snd_ack)
    assert high.locals["A"].state == "s4"
    assert high.rho[-1] == SysItem("A", "snd", "B", None, "fail")


def test_local_reception_needs_input():
    receiver = reference_receiver()
    idle = initial_config([receiver], "B")
    assert global_steps([receiver], 0.35, idle, ()) == []
    msg = Message("a", "A", "B", "d")
    pending = GlobalConfig((BroadcastItem(msg),), idle.locals, "B", 1.0)
    got = [g for g in global_steps([receiver], 0.35, pending, ()) if g.prob == 0.65]
    assert [g.locals["B"].state for g in got] == ["s2"]
    assert got[0].rho == (RecvItem(msg), SysItem("B", "snd", "A", "d"))


def test_local_timeout_update_increments_counter(reference_csas, snd_ack):
    (step,) = global_steps(reference_csas, 0.35, sender_at(reference_csas, "s3", 2), snd_ack)
    assert step.rho[-1] == TimeoutItem("A", "nu1")
    assert step.locals["A"].state == "s2"
    assert step.locals["A"].value("nu1") == 3


# ---------------------------------------------------------------------------
# Projection


def test_project_fuses_matching_pair():
    rho = (EnvItem("A", "snd", "B", "d"), RecvItem(Message("a", "A", "B", "d")),
           SysItem("B", "snd", "A", "d"))
    out = project(rho)
    assert len(out) == 1
    assert out[0].name == "snd" and out[0].src == "A" and out[0].dst == "B"


def test_project_empty():
    assert project(()) == []


def test_project_keeps_unfused_env():
    rho = (EnvItem("A", "snd", "B", "d"), TimeoutItem("A", "nu1"),
           SysItem("A", "ack", "B", None))
    out = project(rho)
    assert out == [EnvItem("A", "snd", "B", "d")]


def test_project_ignores_special_events():
    rho = (EnvItem("A", "snd", "B", None), SysItem("A", "snd", "B", None, "fail"))
    out = project(rho)
    assert out == [EnvItem("A", "snd", "B", None)]


# ---------------------------------------------------------------------------
# Global rules


def test_global_trans_drop_split(example_spec, reference_csas, snd_ack):
    cfg = initial_config(reference_csas, "A")
    (after_env,) = global_steps(reference_csas, 0.35, cfg, snd_ack)
    (after_bc,) = global_steps(reference_csas, 0.35, after_env, snd_ack)
    assert isinstance(after_bc.rho[-1], BroadcastItem)
    outs = global_steps(reference_csas, 0.35, after_bc, snd_ack)
    assert len(outs) == 2
    delivered = [g for g in outs if isinstance(g.rho[-1], SysItem)]
    dropped = [g for g in outs if g.rho == after_env.rho]
    assert len(delivered) == 1 and len(dropped) == 1
    assert math.isclose(delivered[0].prob, 0.65)
    assert math.isclose(dropped[0].prob, 0.35)
    # Both hand the priority to the destination.
    assert delivered[0].priority == "B" and dropped[0].priority == "B"


def test_global_handoff_after_drop(example_spec, reference_csas, snd_ack):
    cfg = initial_config(reference_csas, "A")
    (cfg,) = global_steps(reference_csas, 0.35, cfg, snd_ack)
    (cfg,) = global_steps(reference_csas, 0.35, cfg, snd_ack)
    outs = global_steps(reference_csas, 0.35, cfg, snd_ack)
    dropped = next(g for g in outs if g.prob == pytest.approx(0.35))
    # The receiver holds priority but is stuck, so the sender times out.
    (timeout,) = global_steps(reference_csas, 0.35, dropped, snd_ack)
    assert isinstance(timeout.rho[-1], TimeoutItem)
    assert timeout.priority == "A"
    assert timeout.locals["A"].value("nu1") == 1


def test_global_drop_pruned_at_zero(example_spec, reference_csas, snd_ack):
    cfg = initial_config(reference_csas, "A")
    (cfg,) = global_steps(reference_csas, 0.0, cfg, snd_ack)
    (cfg,) = global_steps(reference_csas, 0.0, cfg, snd_ack)
    outs = global_steps(reference_csas, 0.0, cfg, snd_ack)
    assert len(outs) == 1  # only the delivery survives


def test_immediate_moves_preempt_timeouts():
    # One CSA with both an unconditional system event and a timeout enabled:
    # only the immediate move may fire.
    csa = Csa(
        owner="A",
        states=("s0", "s1", "s2"),
        vars=("nu",),
        init="s0",
        finals=frozenset({"s1", "s2"}),
        transitions={
            ("s0", SysCond(LocalEvent("e", "B", None, "sys"), Condition("nu", "<=", 5))): "s1",
            ("s0", TimeoutUpd("nu")): "s2",
        },
    )
    outs = global_steps([csa], 0.1, initial_config([csa], "A"), ())
    assert [g.locals["A"].state for g in outs] == ["s1"]


def test_handoff_only_when_priority_holder_stuck():
    blocked = Csa("A", ("s0",), (), "s0", frozenset({"s0"}), {})
    mover = Csa(
        owner="B",
        states=("s0", "s1"),
        vars=(),
        init="s0",
        finals=frozenset({"s1"}),
        transitions={
            ("s0", SysCond(LocalEvent("e", "A", None, "sys"), Condition("nu", "<=", 0))): "s1",
        },
    )
    # mover uses an undeclared counter in its condition; give it one
    mover = Csa("B", ("s0", "s1"), ("nu",), "s0", frozenset({"s1"}), mover.transitions)
    outs = global_steps([blocked, mover], 0.1, initial_config([blocked, mover], "A"), ())
    assert [g.priority for g in outs] == ["B"]


# ---------------------------------------------------------------------------
# Exact probabilities


def test_sync_prob_matches_pinned_value(reference_csas, snd_ack):
    r = explore_sync(reference_csas, 0.35, snd_ack).probability
    assert abs(r - 0.781781) < 1e-6
    assert r == pytest.approx(R_SND_ACK, abs=1e-12)


def test_sync_prob_certain_without_drops(reference_csas, snd_ack, snd_nack):
    assert explore_sync(reference_csas, 0.0, snd_ack).probability == pytest.approx(1.0, abs=1e-12)
    assert explore_sync(reference_csas, 0.0, snd_nack).probability == pytest.approx(1.0, abs=1e-12)


def test_sync_prob_zero_when_everything_drops(reference_csas, snd_ack):
    assert explore_sync(reference_csas, 1.0, snd_ack).probability == 0.0


def test_probability_conservation(reference_csas, snd_ack):
    result = explore_sync(reference_csas, 0.35, snd_ack)
    assert not result.scheduler_branching
    assert result.conservation_error == 0


def test_formula_agreement_on_example(example_spec):
    import itertools

    events = events_of(example_spec.protocol)
    seqs = enumerate_sequences(example_spec.protocol)
    for nvec in itertools.product(range(3), repeat=3):
        bounds = dict(zip(events, nvec))
        csas = [synthesize_for_car(example_spec.protocol, c, bounds) for c in ("A", "B")]
        for d in (0.1, 0.25, 0.4):
            for pseq in seqs:
                exact = explore_sync(csas, d, pseq.events).probability
                formula = sync_prob([bounds[e] for e in pseq.events], d)
                assert abs(exact - formula) < 1e-9


def test_formula_agreement_three_event_chain(chain3_spec):
    events = events_of(chain3_spec.protocol)
    (pseq,) = enumerate_sequences(chain3_spec.protocol)
    for nvec in ((0, 0, 0), (2, 2, 2), (3, 1, 2), (1, 4, 0)):
        bounds = dict(zip(events, nvec))
        csas = [synthesize_for_car(chain3_spec.protocol, c, bounds) for c in ("A", "B")]
        for d in (0.1, 0.25, 0.4):
            exact = explore_sync(csas, d, pseq.events).probability
            assert abs(exact - sync_prob(list(nvec), d)) < 1e-9


def test_broadcast_to_deaf_receiver_is_discarded_without_cost():
    # The destination has no matching reception enabled, so the message is
    # removed from the sequence with the probability untouched and the
    # priority handed to the destination.
    ev = GlobalEvent("e1", "S", "R")
    sender = Csa(
        owner="S",
        states=("s0", "s1", "s2"),
        vars=("nu",),
        init="s0",
        finals=frozenset({"s2"}),
        transitions={
            ("s0", EnvEvent(LocalEvent("e1", "R", None, "env"))): "s1",
            ("s1", BroadcastCond(Message("m", "S", "R"), Condition("nu", "<=", 0))): "s2",
        },
    )
    deaf = Csa("R", ("r0",), (), "r0", frozenset({"r0"}), {})
    sigma = (ev,)
    cfg = initial_config([sender, deaf], "S")
    (cfg,) = global_steps([sender, deaf], 0.4, cfg, sigma)
    (cfg,) = global_steps([sender, deaf], 0.4, cfg, sigma)
    assert isinstance(cfg.rho[-1], BroadcastItem)
    (after,) = global_steps([sender, deaf], 0.4, cfg, sigma)
    assert after.prob == cfg.prob  # no probability cost
    assert after.rho == cfg.rho[:-1]  # the broadcast is discarded
    assert after.priority == "R"
    assert global_steps([sender, deaf], 0.4, after, sigma) == []  # stuck


def test_uninvolved_car_does_not_block_success(snd_ack):
    # A third car's CSA never takes part, so it is exempt from the final-state
    # requirement (its single state is final anyway) and the probability is
    # unchanged.
    full = parse_spec(
        "delta 0.35; cars A B C; snd A->B(d) . (ack B->A : 0.7 | nack B->A : 0.8)"
    )
    bounds = {e: {"snd": 3, "ack": 1, "nack": 2}[e.name] for e in events_of(full.protocol)}
    csas = [synthesize_for_car(full.protocol, c, bounds) for c in ("A", "B", "C")]
    assert len(csas[2].states) == 1
    assert explore_sync(csas, 0.35, snd_ack).probability == pytest.approx(R_SND_ACK, abs=1e-12)


def test_divergence_budget(reference_csas, snd_ack):
    with pytest.raises(DivergenceDetected):
        explore_sync(reference_csas, 0.35, snd_ack, budget=3)


def test_budget_env_override(monkeypatch, reference_csas, snd_ack):
    monkeypatch.setenv("PROTOFORGE_BUDGET", "2")
    with pytest.raises(DivergenceDetected):
        explore_sync(reference_csas, 0.35, snd_ack)


def test_explore_work_stays_small_on_a_six_event_chain():
    # Counts distinct configs rather than time, so it holds on any machine.
    # Without zeroing the counters no guard reads again there are 893,619.
    names = ["e0 A->B", "e1 B->A", "e2 A->B", "e3 B->A", "e4 A->B", "e5 B->A"]
    spec = parse_spec("delta 0.6; cars A B; " + " . ".join(names) + " : 0.3")
    bounds = {e: 8 for e in events_of(spec.protocol)}
    csas = [synthesize_for_car(spec.protocol, c, bounds) for c in ("A", "B")]
    (pseq,) = enumerate_sequences(spec.protocol)
    result = explore_sync(csas, 0.6, pseq.events)
    assert result.configs_processed <= 2_000
    assert result.probability == pytest.approx(sync_prob([8] * 6, 0.6), abs=1e-12)
    assert result.conservation_error == 0


# ---------------------------------------------------------------------------
# Cycles


E0 = (GlobalEvent("e0", "A", "B"),)


def test_timeout_self_loop_is_reported_as_a_cycle(monkeypatch):
    # At the default budget: the loop revisits one config, which the graph
    # reports at once instead of counting configs up to the budget.
    monkeypatch.delenv("PROTOFORGE_BUDGET", raising=False)
    csas = timeout_loop_csas()
    with pytest.raises(DivergenceDetected, match="cycle"):
        explore_sync(csas, 0.35, E0)
    with pytest.raises(DivergenceDetected, match="cycle"):
        run_monte_carlo(csas, 0.35, E0, runs=3, seed=1)


def test_retry_loop_through_the_medium():
    csas = medium_loop_csas()
    # Exact exploration cannot sum around the loop ...
    with pytest.raises(DivergenceDetected, match="cycle"):
        explore_sync(csas, 0.5, E0)
    # ... which has no probability at drop probability 0 ...
    assert explore_sync(csas, 0.0, E0).probability == 1.0
    # ... while sampled runs leave it as soon as a copy is delivered.
    result = run_monte_carlo(csas, 0.5, E0, runs=200, seed=4, collect_traces=True)
    assert result.successes == 200
    for trace in result.traces:
        retries = trace["rho"].count("A: T.O.(nu)")
        assert trace["rho"] == (["A: env e0->B"] + ["A: T.O.(nu)"] * retries
                                + ["B: ?a_A->B", "B: sys e0<-A"])
    assert any("A: T.O.(nu)" in trace["rho"] for trace in result.traces)
    # When every copy is lost the walk can only go round.
    with pytest.raises(DivergenceDetected, match="cycle"):
        run_monte_carlo(csas, 1.0, E0, runs=1, seed=4)


def test_second_call_while_one_is_pending_kills_the_deduction():
    # The e1 call comes before B has synchronized e0: the only deduction dies
    # after the root and its one successor.
    csas = dead_deduction_csas()
    sigma = E0 + (GlobalEvent("e1", "A", "B"),)
    result = explore_sync(csas, 0.3, sigma)
    assert (result.probability, result.configs_processed) == (0, 2)
    (trace,) = run_monte_carlo(csas, 0.3, sigma, runs=1, seed=0, collect_traces=True).traces
    assert trace["outcome"] == "failure"
    assert trace["rho"] == ["A: env e0->B", "A: env e1->B"]


@pytest.mark.parametrize("drop_prob", [0.0, 0.5, 0.9, 1.0])
def test_medium_loop_without_exit_is_reported_as_a_cycle(drop_prob):
    # Every outcome of the medium leads back into the loop, so no run ends:
    # exact exploration and sampled runs both report the cycle.
    csas = no_exit_loop_csas()
    sigma = E0 + (GlobalEvent("e1", "B", "A"),)
    with pytest.raises(DivergenceDetected, match="cycle"):
        explore_sync(csas, drop_prob, sigma)
    for traced in (False, True):
        with pytest.raises(DivergenceDetected, match="cycle"):
            run_monte_carlo(csas, drop_prob, sigma, runs=1, seed=0, collect_traces=traced)


@pytest.mark.parametrize("drop_prob", [0.01, 0.5])
@pytest.mark.parametrize("runs", [1, 10, 1000])
def test_loop_behind_a_drop_is_reported_whatever_the_sample(drop_prob, runs):
    # Only a lost first copy leads into the loop, so at drop probability 0.01
    # a few runs rarely enter it; the verdict must not depend on how many.
    csas = trap_loop_csas()
    for traced in (False, True):
        with pytest.raises(DivergenceDetected, match="no random medium outcome leaves its loop"):
            run_monte_carlo(csas, drop_prob, E0, runs=runs, seed=0, collect_traces=traced)


# ---------------------------------------------------------------------------
# Correctness


def test_correctness_at_design_point(example_spec, reference_csas):
    report = check_correctness(reference_csas, 0.35, example_spec.protocol)
    assert report.ok
    assert all(c.margin >= 0 for c in report.checks)


def test_correctness_fails_beyond_design_point(example_spec, reference_csas):
    report = check_correctness(reference_csas, 0.6, example_spec.protocol)
    assert not report.ok


def test_correctness_trivial_lossless(example_spec):
    csas = [
        synthesize_for_car(example_spec.protocol, c,
                           {e: 0 for e in events_of(example_spec.protocol)})
        for c in ("A", "B")
    ]
    assert check_correctness(csas, 0.0, example_spec.protocol).ok


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_lossless(reference_csas, snd_ack):
    result = run_monte_carlo(reference_csas, 0.0, snd_ack, runs=100, seed=3)
    assert result.successes == 100 and result.failures == 0


def test_monte_carlo_needs_a_run(reference_csas, snd_ack):
    with pytest.raises(ValueError, match="at least 1"):
        run_monte_carlo(reference_csas, 0.35, snd_ack, runs=0, seed=3)


def test_monte_carlo_three_sigma(reference_csas, snd_ack):
    runs = 20000
    result = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=runs, seed=11)
    band = 3 * math.sqrt(R_SND_ACK * (1 - R_SND_ACK) / runs)
    assert abs(result.empirical_rate - R_SND_ACK) < band


def test_monte_carlo_seed_determinism(reference_csas, snd_ack):
    one = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=60, seed=9, collect_traces=True)
    two = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=60, seed=9, collect_traces=True)
    assert one.traces == two.traces
    assert one.successes == two.successes
    other = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=60, seed=10, collect_traces=True)
    assert other.traces != one.traces


def test_monte_carlo_runs_are_prefix_stable(reference_csas, snd_ack):
    # Run k draws after runs 0..k-1, so more runs only append.
    short = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=30, seed=9, collect_traces=True)
    long = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=60, seed=9, collect_traces=True)
    assert short.traces == long.traces[:30]
    assert short.successes == sum(t["outcome"] == "success" for t in long.traces[:30])


def test_monte_carlo_seed_sign_matters(reference_csas, snd_ack):
    # random.Random(-5) and random.Random(5) give one stream; the seed's
    # decimal text tells them apart.
    plus = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=60, seed=5, collect_traces=True)
    minus = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=60, seed=-5, collect_traces=True)
    assert plus.traces != minus.traces


def test_monte_carlo_builds_one_generator_per_call(monkeypatch, reference_csas, snd_ack):
    from protoforge import semantics

    built = []

    class Counted(semantics.random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(semantics.random, "Random", Counted)
    run_monte_carlo(reference_csas, 0.35, snd_ack, runs=500, seed=9, collect_traces=True)
    run_monte_carlo(reference_csas, 0.35, snd_ack, runs=500, seed=10)
    assert built == [("9",), ("10",)]


def test_monte_carlo_trace_schema(reference_csas, snd_ack):
    result = run_monte_carlo(reference_csas, 0.35, snd_ack, runs=5, seed=0,
                             collect_traces=True)
    for k, trace in enumerate(result.traces):
        assert trace["run"] == k
        assert trace["outcome"] in ("success", "failure")
        assert isinstance(trace["rho"], list)
        assert set(trace["final_states"]) == {"A", "B"}


def test_no_global_event_fused_across_interleaved_sys(example_spec, reference_csas, snd_ack):
    # Walk random executions and confirm that whenever a system event fuses
    # with its environment partner, no other plain system event sits between
    # them in the deduced sequence.
    rng = random.Random(6060)
    for _ in range(60):
        cfg = initial_config(reference_csas, "A")
        while True:
            outs = global_steps(reference_csas, 0.35, cfg, snd_ack)
            if not outs:
                break
            if len(outs) == 2:
                total = sum(g.prob for g in outs)
                cfg = outs[0] if rng.random() < outs[0].prob / total else outs[1]
            else:
                cfg = outs[0]
        pending = None
        for item in cfg.rho:
            if isinstance(item, EnvItem):
                pending = ("clean", item)
            elif isinstance(item, SysItem) and item.special is None and pending:
                state, env = pending
                fused = (env.name == item.name and env.car == item.peer
                         and env.peer == item.car and env.data == item.data)
                if fused:
                    assert state == "clean"
                    pending = None
                else:
                    pending = ("tainted", env)
