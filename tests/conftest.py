import importlib
import pkgutil
import random
import sys

import pytest

import protoforge

from protoforge import (
    BroadcastCond,
    Condition,
    Csa,
    EnvEvent,
    FullSpec,
    GlobalEvent,
    Leaf,
    LocalEvent,
    Message,
    Or,
    RecvSys,
    RecvUpd,
    Seq,
    SysCond,
    TimeoutSys,
    TimeoutUpd,
    parse_spec,
    synthesize_all,
)

EXAMPLE_TEXT = "delta 0.35; cars A B; snd A->B(d) . (ack B->A : 0.7 | nack B->A : 0.8)"
MIXED_TEXT = "delta 0.2; cars A B; a A->B(d) . (b B->A : 0.6 | c B->A . d A->B : 0.5)"
CHAIN3_TEXT = "delta 0.3; cars A B; e1 A->B(d) . e2 B->A . e3 A->B : 0.5"


def memo_tables() -> dict:
    """Every functools cache at module level in protoforge, by qualified name,
    found as bench/run.py's clear_memo_tables finds them."""
    for info in pkgutil.iter_modules(protoforge.__path__):
        if info.name != "__main__":
            importlib.import_module(f"protoforge.{info.name}")
    tables = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "protoforge" or name.startswith("protoforge.")):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                tables.setdefault(f"{value.__module__}.{value.__qualname__}", value)
    return tables


def criterion(number, title):
    def mark(fn):
        fn._criterion = (number, title)
        return fn
    return mark


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    tagged = getattr(item.function, "_criterion", None)
    if tagged is not None and report.when == "call":
        number, title = tagged
        verdict = "PASS" if report.passed else "FAIL"
        item.config.pluginmanager.get_plugin("terminalreporter").write_line(
            f"criterion {number:2d} [{verdict}] {title}"
        )


@pytest.fixture(scope="session")
def example_spec() -> FullSpec:
    return parse_spec(EXAMPLE_TEXT)


@pytest.fixture(scope="session")
def example_synthesis(example_spec):
    return synthesize_all(example_spec)


@pytest.fixture(scope="session")
def chain3_spec() -> FullSpec:
    return parse_spec(CHAIN3_TEXT)


def random_tree(rng: random.Random, cars=("A", "B", "C")):
    """A random specification tree; valid but not necessarily well-posed."""
    counter = [0]

    def fresh_event():
        counter[0] += 1
        src, dst = rng.sample(cars, 2)
        data = rng.choice([None, "d", "x"])
        return GlobalEvent(f"e{counter[0]}", src, dst, data)

    def build(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            return Leaf(fresh_event(), round(rng.random(), 3))
        if roll < 0.75:
            return Seq(fresh_event(), build(depth - 1))
        return Or(build(depth - 1), build(depth - 1))

    return build(rng.randint(1, 4))


def reference_sender(n_snd=3, n_ack=1, n_nack=2) -> Csa:
    """Hand-built reference automaton for the example sender."""
    a = Message("a", "A", "B", "d")
    b = Message("b", "B", "A")
    c = Message("c", "B", "A")
    return Csa(
        owner="A",
        states=("s1", "s2", "s3", "s4", "s5", "s6"),
        vars=("nu1",),
        init="s1",
        finals=frozenset({"s5", "s6"}),
        transitions={
            ("s1", EnvEvent(LocalEvent("snd", "B", "d", "env"))): "s2",
            ("s2", BroadcastCond(a, Condition("nu1", "<=", n_snd))): "s3",
            ("s2", SysCond(LocalEvent("snd", "B", None, "sys", "fail"),
                           Condition("nu1", ">", n_snd))): "s4",
            ("s3", TimeoutUpd("nu1")): "s2",
            ("s3", RecvSys(b, LocalEvent("ack", "B", None, "sys"))): "s5",
            ("s3", RecvSys(c, LocalEvent("nack", "B", None, "sys"))): "s6",
        },
    )


def reference_receiver(n_snd=3, n_ack=1, n_nack=2) -> Csa:
    """Hand-built reference automaton for the example receiver."""
    a = Message("a", "A", "B", "d")
    b = Message("b", "B", "A")
    c = Message("c", "B", "A")
    return Csa(
        owner="B",
        states=("s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10"),
        vars=("nu2", "nu3"),
        init="s1",
        finals=frozenset({"s6", "s10"}),
        transitions={
            ("s1", RecvSys(a, LocalEvent("snd", "A", "d", "sys"))): "s2",
            ("s2", EnvEvent(LocalEvent("ack", "A", None, "env"))): "s3",
            ("s2", EnvEvent(LocalEvent("nack", "A", None, "env"))): "s7",
            ("s3", BroadcastCond(b, Condition("nu2", "<=", n_ack))): "s5",
            ("s3", SysCond(LocalEvent("ack", "A", None, "sys", "fail"),
                           Condition("nu2", ">", n_ack))): "s4",
            ("s5", RecvUpd(a, "nu2")): "s3",
            ("s5", TimeoutSys(LocalEvent("ack", "A", None, "sys", "success"))): "s6",
            ("s7", BroadcastCond(c, Condition("nu3", "<=", n_nack))): "s9",
            ("s7", SysCond(LocalEvent("nack", "A", None, "sys", "fail"),
                           Condition("nu3", ">", n_nack))): "s8",
            ("s9", RecvUpd(a, "nu3")): "s7",
            ("s9", TimeoutSys(LocalEvent("nack", "A", None, "sys", "success"))): "s10",
        },
    )


def timeout_loop_csas() -> list:
    """Hand-written CSAs whose deductions loop: after the e0 call, A times out
    for ever through a guard-free counter update back to the same state."""
    looper = Csa(
        owner="A",
        states=("s0", "s1"),
        vars=("nu",),
        init="s0",
        finals=frozenset({"s1"}),
        transitions={
            ("s0", EnvEvent(LocalEvent("e0", "B", None, "env"))): "s1",
            ("s1", TimeoutUpd("nu")): "s1",
        },
    )
    return [looper, Csa("B", ("r0",), (), "r0", frozenset({"r0"}), {})]


def dead_deduction_csas() -> list:
    """Hand-written CSAs whose only deduction dies: A takes the e0 and e1
    calls back to back, and a second call while the first is still pending
    kills the deduction."""
    caller = Csa(
        owner="A",
        states=("s0", "s1", "s2"),
        vars=(),
        init="s0",
        finals=frozenset({"s2"}),
        transitions={
            ("s0", EnvEvent(LocalEvent("e0", "B", None, "env"))): "s1",
            ("s1", EnvEvent(LocalEvent("e1", "B", None, "env"))): "s2",
        },
    )
    return [caller, Csa("B", ("r0",), (), "r0", frozenset({"r0"}), {})]


def medium_loop_csas() -> list:
    """Hand-written CSAs that retry through the medium without a bound: A
    rebroadcasts after every lost copy, with a counter no guard reads."""
    a = Message("a", "A", "B")
    sender = Csa(
        owner="A",
        states=("s0", "s1", "s2"),
        vars=("mu", "nu"),
        init="s0",
        finals=frozenset({"s2"}),
        transitions={
            ("s0", EnvEvent(LocalEvent("e0", "B", None, "env"))): "s1",
            ("s1", BroadcastCond(a, Condition("mu", "<=", 0))): "s2",
            ("s2", TimeoutUpd("nu")): "s1",
        },
    )
    receiver = Csa(
        owner="B",
        states=("r0", "r1"),
        vars=(),
        init="r0",
        finals=frozenset({"r1"}),
        transitions={("r0", RecvSys(a, LocalEvent("e0", "A", None, "sys"))): "r1"},
    )
    return [sender, receiver]


def no_exit_loop_csas() -> list:
    """Hand-written CSAs whose medium loop has no exit: A rebroadcasts after
    every copy, and B counts deliveries without ever answering, so no medium
    outcome ends a run."""
    a = Message("a", "A", "B")
    sender = Csa(
        owner="A",
        states=("s0", "s1", "s2"),
        vars=("mu", "nu"),
        init="s0",
        finals=frozenset({"s2"}),
        transitions={
            ("s0", EnvEvent(LocalEvent("e0", "B", None, "env"))): "s1",
            ("s1", BroadcastCond(a, Condition("mu", "<=", 0))): "s2",
            ("s2", TimeoutUpd("nu")): "s1",
        },
    )
    receiver = Csa(
        owner="B",
        states=("r0",),
        vars=("k",),
        init="r0",
        finals=frozenset({"r0"}),
        transitions={("r0", RecvUpd(a, "k")): "r0"},
    )
    return [sender, receiver]


def trap_loop_csas() -> list:
    """Hand-written CSAs with a medium loop that only a lost copy leads into:
    a delivered first copy of a ends the run, while after a drop A sends b
    for ever and B counts every copy of b without answering."""
    a, b = Message("a", "A", "B"), Message("b", "A", "B")
    sender = Csa(
        owner="A",
        states=("s0", "s1", "s2", "s3", "s4"),
        vars=("mu", "nu"),
        init="s0",
        finals=frozenset({"s2"}),
        transitions={
            ("s0", EnvEvent(LocalEvent("e0", "B", None, "env"))): "s1",
            ("s1", BroadcastCond(a, Condition("mu", "<=", 0))): "s2",
            ("s2", TimeoutUpd("nu")): "s3",
            ("s3", BroadcastCond(b, Condition("mu", "<=", 0))): "s4",
            ("s4", TimeoutUpd("nu")): "s3",
        },
    )
    receiver = Csa(
        owner="B",
        states=("r0", "r1"),
        vars=("k",),
        init="r0",
        finals=frozenset({"r1"}),
        transitions={
            ("r0", RecvSys(a, LocalEvent("e0", "A", None, "sys"))): "r1",
            ("r0", RecvUpd(b, "k")): "r0",
            ("r1", RecvUpd(b, "k")): "r1",
        },
    )
    return [sender, receiver]


def random_dialogue(rng: random.Random, cars=("A", "B"), max_events=10):
    """A random well-posed specification: strict turn-taking, paths >= 2 events."""
    counter = [0]

    def fresh_event(src, dst):
        counter[0] += 1
        data = rng.choice([None, "d"])
        return GlobalEvent(f"e{counter[0]}", src, dst, data)

    def build(src, dst, remaining):
        crowded = counter[0] >= max_events
        if remaining <= 0 and (crowded or rng.random() < 0.6):
            return Leaf(fresh_event(src, dst), round(rng.uniform(0.0, 0.95), 3))
        if not crowded and rng.random() < 0.25:
            return Or(build(src, dst, remaining), build(src, dst, remaining))
        return Seq(fresh_event(src, dst), build(dst, src, remaining - 1))

    src, dst = cars[0], cars[1]
    return Seq(fresh_event(src, dst), build(dst, src, rng.randint(0, 2)))
