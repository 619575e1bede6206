"""Communication service automata: representation, validation, comparison, export.

A CSA is a finite state machine owned by one car.  Transition labels come in
seven kinds: an environment-triggered event, a conditional system-triggered
event, a timeout paired with a system-triggered event, a timeout paired with a
counter update, a conditional message broadcast, a reception paired with a
system-triggered event, and a reception paired with a counter update.
Structural states carry no counter values; valuations live in runtime
configurations (see the semantics module).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

CounterVar = str
StateId = str


@dataclass(frozen=True)
class Condition:
    """A comparison of one retransmission counter against a fixed bound."""

    var: CounterVar
    op: str  # "<=" or ">"
    bound: int

    def __post_init__(self):
        if self.op not in ("<=", ">"):
            raise ValueError(f"condition operator must be '<=' or '>', got {self.op!r}")
        if self.bound < 0:
            raise ValueError(f"condition bound must be nonnegative, got {self.bound}")

    def __str__(self):
        return f"{self.var}{self.op}{self.bound}"


@dataclass(frozen=True)
class Message:
    id: str
    src: str
    dst: str
    data: Optional[str] = None

    def __str__(self):
        payload = f"({self.data})" if self.data is not None else ""
        return f"{self.id}_{self.src}->{self.dst}{payload}"


@dataclass(frozen=True)
class LocalEvent:
    """An event as seen by one CSA: triggered by its ASC (env) or by itself (sys).

    fail/success events are system-triggered upcall markers with no
    environment-triggered counterpart; `special` tags them.
    """

    name: str
    peer: str
    data: Optional[str] = None
    kind: str = "env"  # "env" or "sys"
    special: Optional[str] = None  # None, "fail", or "success"

    def __post_init__(self):
        if self.kind not in ("env", "sys"):
            raise ValueError(f"local event kind must be 'env' or 'sys', got {self.kind!r}")
        if self.special not in (None, "fail", "success"):
            raise ValueError(f"unknown special tag {self.special!r}")
        if self.special is not None and self.kind != "sys":
            raise ValueError(f"{self.special} events are system-triggered")

    def __str__(self):
        payload = f"({self.data})" if self.data is not None else ""
        base = f"{self.special}_{self.name}" if self.special else self.name
        arrow = f"->{self.peer}" if self.kind == "env" else f"<-{self.peer}"
        return f"{base}{arrow}{payload}"


class TransitionLabel:
    """Base class for the seven label kinds."""

    __slots__ = ()


@dataclass(frozen=True)
class EnvEvent(TransitionLabel):
    event: LocalEvent


@dataclass(frozen=True)
class SysCond(TransitionLabel):
    event: LocalEvent
    cond: Condition


@dataclass(frozen=True)
class TimeoutSys(TransitionLabel):
    event: LocalEvent


@dataclass(frozen=True)
class TimeoutUpd(TransitionLabel):
    var: CounterVar


@dataclass(frozen=True)
class BroadcastCond(TransitionLabel):
    msg: Message
    cond: Condition


@dataclass(frozen=True)
class RecvSys(TransitionLabel):
    msg: Message
    event: LocalEvent


@dataclass(frozen=True)
class RecvUpd(TransitionLabel):
    msg: Message
    var: CounterVar


@dataclass
class Csa:
    """A communication service automaton. Treat as immutable after construction."""

    owner: str
    states: tuple[StateId, ...]
    vars: tuple[CounterVar, ...]
    init: StateId
    finals: frozenset[StateId]
    transitions: dict[tuple[StateId, TransitionLabel], StateId]


def ordered_transitions(csa: Csa) -> list:
    """The ((src, label), dst) pairs of csa, by source state and label text:
    the one order that files, drawings and the execution engine list them in."""
    return sorted(csa.transitions.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = field(default_factory=tuple)


def _label_vars(label: TransitionLabel) -> list[CounterVar]:
    if isinstance(label, (SysCond, BroadcastCond)):
        return [label.cond.var]
    if isinstance(label, (TimeoutUpd, RecvUpd)):
        return [label.var]
    return []


def _label_event(label: TransitionLabel) -> Optional[LocalEvent]:
    if isinstance(label, (EnvEvent, SysCond, TimeoutSys, RecvSys)):
        return label.event
    return None


def validate(csa: Csa) -> ValidationReport:
    """Report structural problems: dangling states, undeclared counters,
    events whose peer is the owner itself."""
    problems = []
    states = set(csa.states)
    declared = set(csa.vars)
    if csa.init not in states:
        problems.append(f"initial state {csa.init!r} is not declared")
    for f in sorted(csa.finals):
        if f not in states:
            problems.append(f"final state {f!r} is not declared")
    for (src, label), dst in csa.transitions.items():
        if src not in states:
            problems.append(f"transition source {src!r} is not a declared state")
        if dst not in states:
            problems.append(f"transition target {dst!r} is not a declared state")
        for var in _label_vars(label):
            if var not in declared:
                problems.append(f"transition at {src!r} uses undeclared counter {var!r}")
        event = _label_event(label)
        if event is not None and event.peer == csa.owner:
            problems.append(
                f"event {event.name!r} at {src!r} has the owner {csa.owner!r} as its peer"
            )
    return ValidationReport(ok=not problems, problems=tuple(problems))


# ---------------------------------------------------------------------------
# Isomorphism


def _label_shape(label: TransitionLabel):
    # Everything except state, counter, and message identities; used both as a
    # matching precondition and as a pruning signature.
    if isinstance(label, EnvEvent):
        return ("env", label.event)
    if isinstance(label, SysCond):
        return ("sys-cond", label.event, label.cond.op, label.cond.bound)
    if isinstance(label, TimeoutSys):
        return ("timeout-sys", label.event)
    if isinstance(label, TimeoutUpd):
        return ("timeout-upd",)
    if isinstance(label, BroadcastCond):
        return ("broadcast", label.msg.src, label.msg.dst, label.msg.data,
                label.cond.op, label.cond.bound)
    if isinstance(label, RecvSys):
        return ("recv-sys", label.msg.src, label.msg.dst, label.msg.data, label.event)
    if isinstance(label, RecvUpd):
        return ("recv-upd", label.msg.src, label.msg.dst, label.msg.data)
    raise TypeError(f"unknown label {label!r}")


def _label_ids(label: TransitionLabel):
    # (counter or None, message id or None) for the renaming bijections.
    var = (_label_vars(label) or [None])[0]
    msg = label.msg.id if isinstance(label, (BroadcastCond, RecvSys, RecvUpd)) else None
    return var, msg


def isomorphic(a: Csa, b: Csa) -> bool:
    """True when a bijection on states (plus consistent renamings of counters
    and message ids) maps a onto b, preserving init, finals, and transitions.

    Backtracking search with copy-on-extend maps; CSAs are small enough that
    the copies cost nothing.
    """
    if len(a.states) != len(b.states) or len(a.finals) != len(b.finals):
        return False
    if len(a.transitions) != len(b.transitions):
        return False

    out_a = {s: [] for s in a.states}
    out_b = {s: [] for s in b.states}
    for (src, label), dst in a.transitions.items():
        out_a[src].append((label, dst))
    for (src, label), dst in b.transitions.items():
        out_b[src].append((label, dst))

    def extend(mapping, x, y):
        # Injective extension; None signals conflict, the unchanged mapping
        # signals "nothing to bind".
        if x is None and y is None:
            return mapping
        if x is None or y is None:
            return None
        if x in mapping:
            return mapping if mapping[x] == y else None
        if y in mapping.values():
            return None
        new = dict(mapping)
        new[x] = y
        return new

    def solve(sm, vm, mm, todo):
        # todo holds mapped state pairs whose outgoing edges still need matching.
        if todo:
            (sa, sb), rest = todo[0], todo[1:]
            ea, eb = out_a[sa], out_b[sb]
            if len(ea) != len(eb):
                return False
            return match_edges(ea, list(eb), sm, vm, mm, rest)
        if len(sm) == len(a.states):
            return True
        # States unreachable from init must pair up as well.
        sa = next(s for s in a.states if s not in sm)
        mapped_b = set(sm.values())
        for sb in b.states:
            if sb in mapped_b or (sa in a.finals) != (sb in b.finals):
                continue
            new_sm = dict(sm)
            new_sm[sa] = sb
            if solve(new_sm, vm, mm, [(sa, sb)]):
                return True
        return False

    def match_edges(ea, pool, sm, vm, mm, todo):
        if not ea:
            return solve(sm, vm, mm, todo)
        (label_a, dst_a), rest = ea[0], ea[1:]
        shape_a = _label_shape(label_a)
        va, ma = _label_ids(label_a)
        for idx, (label_b, dst_b) in enumerate(pool):
            if _label_shape(label_b) != shape_a:
                continue
            vb, mb = _label_ids(label_b)
            new_vm = extend(vm, va, vb)
            if new_vm is None:
                continue
            new_mm = extend(mm, ma, mb)
            if new_mm is None:
                continue
            if dst_a in sm:
                if sm[dst_a] != dst_b:
                    continue
                new_sm, new_todo = sm, todo
            else:
                if dst_b in sm.values() or (dst_a in a.finals) != (dst_b in b.finals):
                    continue
                new_sm = dict(sm)
                new_sm[dst_a] = dst_b
                new_todo = todo + [(dst_a, dst_b)]
            if match_edges(rest, pool[:idx] + pool[idx + 1:], new_sm, new_vm, new_mm, new_todo):
                return True
        return False

    if (a.init in a.finals) != (b.init in b.finals):
        return False
    return solve({a.init: b.init}, {}, {}, [(a.init, b.init)])


# ---------------------------------------------------------------------------
# Serialization


def _event_to_json(event: LocalEvent) -> dict:
    out = {"name": event.name, "peer": event.peer, "kind": event.kind}
    if event.data is not None:
        out["data"] = event.data
    if event.special is not None:
        out["special"] = event.special
    return out


def _get(obj, key: str, typ: type, optional: bool = False):
    """obj[key] if obj is a JSON object holding a value of exactly type typ (so
    a boolean is not an integer), else ValueError; an optional key may be
    absent or null, giving None."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object holding {key!r}, got {type(obj).__name__}")
    value = obj.get(key)
    if value is None and optional:
        return None
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    if type(value) is not typ:
        raise ValueError(f"{key!r} must be of type {typ.__name__}, got {json.dumps(value)}")
    return value


def _event_from_json(obj: dict) -> LocalEvent:
    return LocalEvent(_get(obj, "name", str), _get(obj, "peer", str),
                      _get(obj, "data", str, optional=True), _get(obj, "kind", str),
                      _get(obj, "special", str, optional=True))


def _msg_to_json(msg: Message) -> dict:
    out = {"id": msg.id, "src": msg.src, "dst": msg.dst}
    if msg.data is not None:
        out["data"] = msg.data
    return out


def _msg_from_json(obj: dict) -> Message:
    return Message(_get(obj, "id", str), _get(obj, "src", str), _get(obj, "dst", str),
                   _get(obj, "data", str, optional=True))


def _cond_to_json(cond: Condition) -> dict:
    return {"var": cond.var, "op": cond.op, "bound": cond.bound}


def _cond_from_json(obj: dict) -> Condition:
    return Condition(_get(obj, "var", str), _get(obj, "op", str), _get(obj, "bound", int))


def _label_to_json(label: TransitionLabel) -> dict:
    if isinstance(label, EnvEvent):
        return {"kind": "env", "event": _event_to_json(label.event)}
    if isinstance(label, SysCond):
        return {"kind": "sys-cond", "event": _event_to_json(label.event),
                "cond": _cond_to_json(label.cond)}
    if isinstance(label, TimeoutSys):
        return {"kind": "timeout-sys", "event": _event_to_json(label.event)}
    if isinstance(label, TimeoutUpd):
        return {"kind": "timeout-upd", "var": label.var}
    if isinstance(label, BroadcastCond):
        return {"kind": "broadcast", "msg": _msg_to_json(label.msg),
                "cond": _cond_to_json(label.cond)}
    if isinstance(label, RecvSys):
        return {"kind": "recv-sys", "msg": _msg_to_json(label.msg),
                "event": _event_to_json(label.event)}
    if isinstance(label, RecvUpd):
        return {"kind": "recv-upd", "msg": _msg_to_json(label.msg), "var": label.var}
    raise TypeError(f"unknown label {label!r}")


def _label_from_json(obj: dict) -> TransitionLabel:
    kind = _get(obj, "kind", str)
    if kind == "env":
        return EnvEvent(_event_from_json(_get(obj, "event", dict)))
    if kind == "sys-cond":
        return SysCond(_event_from_json(_get(obj, "event", dict)),
                       _cond_from_json(_get(obj, "cond", dict)))
    if kind == "timeout-sys":
        return TimeoutSys(_event_from_json(_get(obj, "event", dict)))
    if kind == "timeout-upd":
        return TimeoutUpd(_get(obj, "var", str))
    if kind == "broadcast":
        return BroadcastCond(_msg_from_json(_get(obj, "msg", dict)),
                             _cond_from_json(_get(obj, "cond", dict)))
    if kind == "recv-sys":
        return RecvSys(_msg_from_json(_get(obj, "msg", dict)),
                       _event_from_json(_get(obj, "event", dict)))
    if kind == "recv-upd":
        return RecvUpd(_msg_from_json(_get(obj, "msg", dict)), _get(obj, "var", str))
    raise ValueError(f"unknown transition kind {kind!r}")


def export_json(csa: Csa) -> str:
    doc = {
        "owner": csa.owner,
        "states": [{"id": s, "final": s in csa.finals} for s in csa.states],
        "init": csa.init,
        "vars": list(csa.vars),
        "transitions": [
            {"from": src, "to": dst, "label": _label_to_json(label)}
            for (src, label), dst in ordered_transitions(csa)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def import_json(text: str) -> Csa:
    """Parse a CSA file written by export_json.

    Raises ValueError when the text is not JSON, when a key is missing or
    holds a value of the wrong type, or when `validate` reports problems.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("CSA file nests too deeply") from None
    states = _get(doc, "states", list)
    finals = frozenset(_get(s, "id", str) for s in states if _get(s, "final", bool))
    variables = _get(doc, "vars", list)
    if any(type(v) is not str for v in variables):
        raise ValueError(f"'vars' must be a list of strings, got {json.dumps(variables)}")
    transitions = {}
    for i, t in enumerate(_get(doc, "transitions", list)):
        try:
            key = (_get(t, "from", str), _label_from_json(_get(t, "label", dict)))
            transitions[key] = _get(t, "to", str)
        except ValueError as exc:
            raise ValueError(f"transition {i}: {exc}") from None
    csa = Csa(
        owner=_get(doc, "owner", str),
        states=tuple(_get(s, "id", str) for s in states),
        vars=tuple(variables),
        init=_get(doc, "init", str),
        finals=finals,
        transitions=transitions,
    )
    report = validate(csa)
    if not report.ok:
        raise ValueError(f"invalid CSA for {csa.owner!r}: " + "; ".join(report.problems))
    return csa


def label_text(label: TransitionLabel) -> str:
    """Compact single-line rendering used in DOT edges and trace logs."""
    if isinstance(label, EnvEvent):
        return f"env {label.event}"
    if isinstance(label, SysCond):
        return f"sys {label.event} [{label.cond}]"
    if isinstance(label, TimeoutSys):
        return f"T.O. / sys {label.event}"
    if isinstance(label, TimeoutUpd):
        return f"T.O. / {label.var}++"
    if isinstance(label, BroadcastCond):
        return f"!{label.msg} [{label.cond}]"
    if isinstance(label, RecvSys):
        return f"?{label.msg} / sys {label.event}"
    if isinstance(label, RecvUpd):
        return f"?{label.msg} / {label.var}++"
    raise TypeError(f"unknown label {label!r}")


def export_dot(csa: Csa) -> str:
    """Graphviz digraph: the initial state is doubly circled, finals dotted."""
    def q(s):
        return '"' + s.replace('"', '\\"') + '"'

    lines = [f"digraph {q(csa.owner)} {{", "  rankdir=TB;", "  node [shape=circle];"]
    for s in csa.states:
        attrs = []
        if s == csa.init:
            attrs.append("peripheries=2")
        if s in csa.finals:
            attrs.append("style=dotted")
        lines.append(f"  {q(s)}{' [' + ', '.join(attrs) + ']' if attrs else ''};")
    for (src, label), dst in ordered_transitions(csa):
        lines.append(f"  {q(src)} -> {q(dst)} [label={q(label_text(label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
