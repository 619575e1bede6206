"""Translate a well-posed protocol specification into one CSA per car.

Construction is one structural recursion over the specification tree that
adds states and transitions to a single transition table per car.  It threads
the state each subtree starts at, a state-index counter (so output state names
are deterministic) and the table of most-recently-transmitted messages per
direction, which supplies the retransmission trigger for the final event of
each path:

* disjunction: both alternatives start at the disjunction's state (well-posed
  alternatives never begin with the same event, so they add distinct
  transitions there);
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

from .bounds import DEFAULT_CAP, Infeasible, solve_opt
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
from .speclang import CarId, FullSpec, GlobalEvent, Or, Seq, SpecNode, events_of, well_posed

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


def synthesize_for_car(spec: SpecNode, car: CarId, bounds: BoundsVector) -> Csa:
    """Build the CSA executing `car`'s share of the specification."""
    report = well_posed(spec)
    if not report.ok:
        raise NotWellPosed(report)
    for event in events_of(spec):
        if event not in bounds:
            raise MissingBound(f"no retransmission bound for event {event}")
    bindings = event_bindings(spec)
    finals: set[int] = set()
    trans: dict = {}  # (state, label) -> state; well-posedness keeps the keys distinct

    def syn(node, start, i, latest):
        # Add node's share to the tables from state `start` on (which is i
        # except right of a '|'), numbering its other states from i + 1, and
        # return the next free index.  latest maps a (src, dst) direction to
        # the message most recently transmitted along it on the current path.
        if isinstance(node, Or):
            # The right side starts where the left does, leaving its own index unused.
            return syn(node.right, start, syn(node.left, start, i, latest), latest)

        event = node.event
        msg, counter = bindings[event].message, bindings[event].counter
        chain = isinstance(node, Seq)
        if chain:
            latest = {**latest, (event.src, event.dst): msg}

        if car == event.src:
            n = bounds[event]
            trans[(start, EnvEvent(LocalEvent(event.name, peer=event.dst, data=event.data,
                                              kind="env")))] = i + 1
            fail = SysCond(LocalEvent(event.name, peer=event.dst, kind="sys", special="fail"),
                           Condition(counter, ">", n))
            send = BroadcastCond(msg, Condition(counter, "<=", n))
            if chain:
                trans[(i + 1, send)] = i + 3
                trans[(i + 1, fail)] = i + 2
                trans[(i + 3, TimeoutUpd(counter))] = i + 1
                return syn(node.rest, i + 3, i + 3, latest)
            # Leaf: the last event of this path, retried on the peer's previous message.
            trigger = latest.get((event.dst, event.src))
            assert trigger is not None, "well-posedness guarantees a previous message to re-receive"
            success = LocalEvent(event.name, peer=event.dst, kind="sys", special="success")
            trans[(i + 1, send)] = i + 2
            trans[(i + 1, fail)] = i + 3
            trans[(i + 2, RecvUpd(trigger, counter))] = i + 1
            trans[(i + 2, TimeoutSys(success))] = i + 4
            finals.add(i + 4)
            return i + 5
        if car == event.dst:
            trans[(start, RecvSys(msg, LocalEvent(event.name, peer=event.src, data=event.data,
                                                  kind="sys")))] = i + 1
            if chain:
                return syn(node.rest, i + 1, i + 1, latest)
            finals.add(i + 1)
            return i + 2
        if chain:
            return syn(node.rest, start, i, latest)
        finals.add(start)
        return i + 1

    try:
        syn(spec, 0, 0, {})
    finally:
        del syn  # it refers to itself: deleting it breaks that reference cycle
    states = sorted({0, *trans.values()})  # every state but s0 is entered by a transition
    used = {label_counter(label) for (_, label) in trans}
    return Csa(
        owner=car,
        states=tuple(f"s{idx}" for idx in states),
        vars=tuple(b.counter for e, b in bindings.items() if b.counter in used),
        init="s0",
        finals=frozenset(f"s{idx}" for idx in finals),
        transitions={(f"s{src}", label): f"s{dst}" for (src, label), dst in trans.items()},
    )


@dataclass(frozen=True)
class SynthesisResult:
    csas: dict[CarId, Csa]
    bounds: dict[GlobalEvent, int]


def synthesize_all(full: FullSpec, cap: int = DEFAULT_CAP) -> SynthesisResult:
    """Check well-posedness, solve for minimal retransmission bounds, and
    synthesize a CSA for every car in the specification's car set."""
    solved = solve_opt(full.protocol, full.delta, cap=cap)
    if isinstance(solved, Infeasible):
        raise Unrealizable(str(solved))
    csas = {car: synthesize_for_car(full.protocol, car, solved) for car in full.cars}
    return SynthesisResult(csas=csas, bounds=dict(solved))
