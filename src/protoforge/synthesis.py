"""Translate a well-posed protocol specification into one CSA per car.

Construction is a structural recursion over the specification tree, threading
a state-index counter (so output state names are deterministic) and the table
of most-recently-transmitted messages per direction, which supplies the
retransmission trigger for the final event of each path:

* disjunction: build both sub-CSAs and merge their initial states;
* chain event, car is the source: environment call, guarded broadcast with a
  timeout-update retry loop, and a fail exit once the counter passes its bound;
* chain event, car is the destination: reception synchronizing the event;
* last event, car is the source: guarded broadcast whose retry is triggered by
  re-receiving the peer's previous message, with a success upcall on timeout;
* last event, car is the destination: reception into a final state;
* car uninvolved: a single final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bounds import Infeasible, solve_opt
from .csa import (
    BroadcastCond,
    Condition,
    Csa,
    EnvEvent,
    LocalEvent,
    Message,
    RecvSys,
    RecvUpd,
    SysCond,
    TimeoutSys,
    TimeoutUpd,
    label_counter,
)
from .errors import MissingBound, NotWellPosed, Unrealizable
from .speclang import CarId, FullSpec, GlobalEvent, Leaf, Or, Seq, SpecNode, events_of, well_posed

BoundsVector = Mapping[GlobalEvent, int]


@dataclass(frozen=True)
class EventBindings:
    """Per-event names assigned during synthesis: one message and one counter."""

    message: Message
    counter: str


def event_bindings(spec: SpecNode) -> dict[GlobalEvent, EventBindings]:
    """Assign each distinct event a unique message id and counter name.

    Ids derive from the event name; a numeric suffix disambiguates reuse of
    the same name between different source/destination pairs.
    """
    bindings: dict[GlobalEvent, EventBindings] = {}
    taken: set[str] = set()
    for event in events_of(spec):
        stem = event.name
        if stem in taken:
            k = 2
            while f"{stem}_{k}" in taken:
                k += 1
            stem = f"{stem}_{k}"
        taken.add(stem)
        bindings[event] = EventBindings(
            message=Message(f"m_{stem}", event.src, event.dst, event.data),
            counter=f"nu_{stem}",
        )
    return bindings


def bounds_by_name(spec: SpecNode, bounds: BoundsVector) -> dict[str, int]:
    """Bounds keyed by the disambiguated event stems, for reports and files."""
    bindings = event_bindings(spec)
    return {bindings[e].message.id[len("m_"):]: bounds[e] for e in events_of(spec)}


@dataclass
class _Partial:
    states: set[int]
    init: int
    finals: set[int]
    trans: dict


def synthesize_for_car(spec: SpecNode, car: CarId, bounds: BoundsVector) -> Csa:
    """Build the CSA executing `car`'s share of the specification."""
    report = well_posed(spec)
    if not report.ok:
        raise NotWellPosed(report)
    events = events_of(spec)
    for event in events:
        if event not in bounds:
            raise MissingBound(f"no retransmission bound for event {event}")
    bindings = event_bindings(spec)

    def syn(node, i, latest):
        # latest maps a (src, dst) direction to the message most recently
        # transmitted along it on the current path.
        if isinstance(node, Or):
            m1, i1 = syn(node.left, i, latest)
            m2, i2 = syn(node.right, i1, latest)
            sub = lambda s: m1.init if s == m2.init else s
            merged = _Partial(
                states=m1.states | {sub(s) for s in m2.states},
                init=m1.init,
                finals=m1.finals | {sub(s) for s in m2.finals},
                trans=dict(m1.trans),
            )
            for (src, label), dst in m2.trans.items():
                merged.trans[(sub(src), label)] = sub(dst)
            return merged, i2

        event = node.event
        msg = bindings[event].message
        counter = bindings[event].counter
        n = bounds[event]
        retry = Condition(counter, "<=", n)
        exhausted = Condition(counter, ">", n)
        env = LocalEvent(event.name, peer=event.dst, data=event.data, kind="env")
        sys = LocalEvent(event.name, peer=event.src, data=event.data, kind="sys")
        fail = LocalEvent(event.name, peer=event.dst, kind="sys", special="fail")
        success = LocalEvent(event.name, peer=event.dst, kind="sys", special="success")

        if isinstance(node, Seq):
            latest = dict(latest)
            latest[(event.src, event.dst)] = msg
            if car == event.src:
                m, i2 = syn(node.rest, i + 3, latest)
                m.trans[(i, EnvEvent(env))] = i + 1
                m.trans[(i + 1, BroadcastCond(msg, retry))] = m.init
                m.trans[(i + 1, SysCond(fail, exhausted))] = i + 2
                m.trans[(m.init, TimeoutUpd(counter))] = i + 1
                return _Partial(m.states | {i, i + 1, i + 2}, i, m.finals, m.trans), i2
            if car == event.dst:
                m, i2 = syn(node.rest, i + 1, latest)
                m.trans[(i, RecvSys(msg, sys))] = m.init
                return _Partial(m.states | {i}, i, m.finals, m.trans), i2
            return syn(node.rest, i, latest)

        # Leaf: the last event of this path.
        if car == event.src:
            trigger = latest.get((event.dst, event.src))
            assert trigger is not None, "well-posedness guarantees a previous message to re-receive"
            trans = {
                (i, EnvEvent(env)): i + 1,
                (i + 1, BroadcastCond(msg, retry)): i + 2,
                (i + 1, SysCond(fail, exhausted)): i + 3,
                (i + 2, RecvUpd(trigger, counter)): i + 1,
                (i + 2, TimeoutSys(success)): i + 4,
            }
            return _Partial(set(range(i, i + 5)), i, {i + 4}, trans), i + 5
        if car == event.dst:
            trans = {(i, RecvSys(msg, sys)): i + 1}
            return _Partial({i, i + 1}, i, {i + 1}, trans), i + 2
        return _Partial({i}, i, {i}, {}), i + 1

    partial, _ = syn(spec, 0, {})
    name = {idx: f"s{idx}" for idx in sorted(partial.states)}
    used = {label_counter(label) for (_, label) in partial.trans}
    return Csa(
        owner=car,
        states=tuple(name[idx] for idx in sorted(partial.states)),
        vars=tuple(b.counter for e, b in bindings.items() if b.counter in used),
        init=name[partial.init],
        finals=frozenset(name[idx] for idx in partial.finals),
        transitions={
            (name[src], label): name[dst] for (src, label), dst in partial.trans.items()
        },
    )


@dataclass(frozen=True)
class SynthesisResult:
    csas: dict[CarId, Csa]
    bounds: dict[GlobalEvent, int]


def synthesize_all(full: FullSpec, cap: int = 512) -> SynthesisResult:
    """Check well-posedness, solve for minimal retransmission bounds, and
    synthesize a CSA for every car in the specification's car set."""
    solved = solve_opt(full.protocol, full.delta, cap=cap)
    if isinstance(solved, Infeasible):
        raise Unrealizable(str(solved))
    csas = {car: synthesize_for_car(full.protocol, car, solved) for car in full.cars}
    return SynthesisResult(csas=csas, bounds=dict(solved))
