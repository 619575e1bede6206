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
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
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
    """Base class for the seven label kinds.  Each names its file `kind` tag and
    its DOT `text` (a %-template over its fields) in class attributes, which stay
    out of the repr that transitions are sorted by.  Its fields, in order
    (`__match_args__`), are its keys in the file."""

    __slots__ = ()


@dataclass(frozen=True)
class EnvEvent(TransitionLabel):
    kind = "env"
    text = "env %(event)s"
    event: LocalEvent


@dataclass(frozen=True)
class SysCond(TransitionLabel):
    kind = "sys-cond"
    text = "sys %(event)s [%(cond)s]"
    event: LocalEvent
    cond: Condition


@dataclass(frozen=True)
class TimeoutSys(TransitionLabel):
    kind = "timeout-sys"
    text = "T.O. / sys %(event)s"
    event: LocalEvent


@dataclass(frozen=True)
class TimeoutUpd(TransitionLabel):
    kind = "timeout-upd"
    text = "T.O. / %(var)s++"
    var: CounterVar


@dataclass(frozen=True)
class BroadcastCond(TransitionLabel):
    kind = "broadcast"
    text = "!%(msg)s [%(cond)s]"
    msg: Message
    cond: Condition


@dataclass(frozen=True)
class RecvSys(TransitionLabel):
    kind = "recv-sys"
    text = "?%(msg)s / sys %(event)s"
    msg: Message
    event: LocalEvent


@dataclass(frozen=True)
class RecvUpd(TransitionLabel):
    kind = "recv-upd"
    text = "?%(msg)s / %(var)s++"
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


def label_counter(label: TransitionLabel) -> Optional[CounterVar]:
    """The counter that label's guard reads or that it increments, or None."""
    cond = getattr(label, "cond", None)
    return cond.var if cond is not None else getattr(label, "var", None)


def _repeated(items: tuple) -> list:
    if len(set(items)) == len(items):
        return []
    return [x for x, n in Counter(items).items() if n > 1]


def validate(csa: Csa) -> ValidationReport:
    """Report structural problems: repeated or dangling states, repeated or
    undeclared counters, events whose peer is the owner itself."""
    problems = [f"state {s!r} is declared more than once" for s in _repeated(csa.states)]
    problems += [f"counter {v!r} is declared more than once" for v in _repeated(csa.vars)]
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
        var = label_counter(label)
        if var is not None and var not in declared:
            problems.append(f"transition at {src!r} uses undeclared counter {var!r}")
        event = getattr(label, "event", None)
        if event is not None and event.peer == csa.owner:
            problems.append(
                f"event {event.name!r} at {src!r} has the owner {csa.owner!r} as its peer"
            )
    return ValidationReport(ok=not problems, problems=tuple(problems))


# ---------------------------------------------------------------------------
# Isomorphism


def _label_shape(label: TransitionLabel) -> tuple:
    # Everything except state, counter, and message identities; used both as a
    # matching precondition and as a pruning signature.
    shape = (label.kind,)
    for name in label.__match_args__:
        shape += _PARTS[name].shape(getattr(label, name))
    return shape


def _label_ids(label: TransitionLabel) -> list:
    # The renamed identities of label, as renaming keys: ("m", message id)
    # and ("v", counter) where it has them.  Labels of one shape have the same.
    msg, var = getattr(label, "msg", None), label_counter(label)
    return ([] if msg is None else [("m", msg.id)]) + ([] if var is None else [("v", var)])


def isomorphic(a: Csa, b: Csa) -> bool:
    """True when a bijection on states (plus consistent renamings of counters
    and message ids) maps a onto b, preserving init, finals, and transitions.

    Backtracking search over one renaming, keyed ("s", state), ("v", counter)
    and ("m", message id), copied on extend; CSAs are small enough that the
    copies cost nothing.
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

    def extend(ren, pairs):
        # ren with every (x, y) pair bound, or None on a clash: x bound to
        # another y, y taken, or two states of different finality.
        new = dict(ren)
        for x, y in pairs:
            if x in new:
                if new[x] != y:
                    return None
            elif y in new.values() or x[0] == "s" and (x[1] in a.finals) != (y[1] in b.finals):
                return None
            else:
                new[x] = y
        return new

    def solve(ren, todo):
        # todo holds mapped state pairs whose outgoing edges still need matching.
        if todo:
            (sa, sb), rest = todo[0], todo[1:]
            ea, eb = out_a[sa], out_b[sb]
            return len(ea) == len(eb) and match_edges(ea, list(eb), ren, rest)
        # States unreachable from init must pair up as well.
        sa = next((s for s in a.states if ("s", s) not in ren), None)
        if sa is None:
            return True
        for sb in b.states:
            new = extend(ren, [(("s", sa), ("s", sb))])
            if new is not None and solve(new, [(sa, sb)]):
                return True
        return False

    def match_edges(ea, pool, ren, todo):
        if not ea:
            return solve(ren, todo)
        (label_a, dst_a), rest = ea[0], ea[1:]
        shape_a = _label_shape(label_a)
        ids_a = _label_ids(label_a) + [("s", dst_a)]
        for idx, (label_b, dst_b) in enumerate(pool):
            if _label_shape(label_b) != shape_a:
                continue
            new = extend(ren, zip(ids_a, _label_ids(label_b) + [("s", dst_b)]))
            if new is None:
                continue
            new_todo = todo if ("s", dst_a) in ren else todo + [(dst_a, dst_b)]
            if match_edges(rest, pool[:idx] + pool[idx + 1:], new, new_todo):
                return True
        return False

    ren = extend({}, [(("s", a.init), ("s", b.init))])
    return ren is not None and solve(ren, [(a.init, b.init)])


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
    if type(value) is typ or (value is None and optional):
        return value
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    raise ValueError(f"{key!r} must be of type {typ.__name__}, got {json.dumps(value)}")


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


# How a label field is read from and written to a CSA file (its key is the
# field name), and what of it isomorphism keeps: the part no renaming moves.
_Part = namedtuple("_Part", "typ load dump shape")
_PARTS = {
    "event": _Part(dict, _event_from_json, _event_to_json, lambda event: (event,)),
    "msg": _Part(dict, _msg_from_json, _msg_to_json, lambda msg: (msg.src, msg.dst, msg.data)),
    "cond": _Part(dict, _cond_from_json, _cond_to_json, lambda cond: (cond.op, cond.bound)),
    "var": _Part(str, str, str, lambda var: ()),
}
_BY_KIND = {cls.kind: cls for cls in (EnvEvent, SysCond, TimeoutSys, TimeoutUpd, BroadcastCond,
                                      RecvSys, RecvUpd)}


def _label_to_json(label: TransitionLabel) -> dict:
    out = {"kind": label.kind}
    for name in label.__match_args__:
        out[name] = _PARTS[name].dump(getattr(label, name))
    return out


def _label_from_json(obj: dict) -> TransitionLabel:
    kind = _get(obj, "kind", str)
    cls = _BY_KIND.get(kind)
    if cls is None:
        raise ValueError(f"unknown transition kind {kind!r}")
    return cls(*[_PARTS[key].load(_get(obj, key, _PARTS[key].typ)) for key in cls.__match_args__])


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
    return json_text(doc)


def _write(value, nl: str, out: list) -> None:
    # Append value's text to out; nl is the line break and indent of the
    # line that value starts on.
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(f"{sep}{_quote(key)}: ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(doc) -> str:
    """doc as `json.dumps(doc, indent=2) + "\\n"` writes it, byte for byte, for a
    document of dicts with string keys, lists, strings, booleans and ints.

    The stdlib runs its pure-Python encoder whenever it indents; this writer
    quotes strings with the C encoder instead.
    """
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _object(pairs: list) -> dict:
    # json's object hook: a repeated key would otherwise keep its last value.
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = _repeated(tuple(k for k, _ in pairs))[0]
        raise ValueError(f"key {key!r} is repeated in one object")
    return doc


def import_json(text: str) -> Csa:
    """Parse a CSA file written by export_json.

    Raises ValueError when the text is not JSON or repeats a key in an object,
    when a key is missing or holds a value of the wrong type, when two
    transitions share a source and a label, or when `validate` reports problems.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_object)
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
            dst = _get(t, "to", str)
        except ValueError as exc:
            raise ValueError(f"transition {i}: {exc}") from None
        transitions[key] = dst
        if len(transitions) == i:  # key was there already
            first = list(transitions).index(key)  # each entry before i added a key
            raise ValueError(f"transitions {first} and {i} both leave {key[0]!r} on "
                             f"{label_text(key[1])!r}")
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
    """Compact single-line rendering used in DOT edges and error messages."""
    return label.text % vars(label)


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
