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
from itertools import compress
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


# The sort text of a label is its dataclass repr, str(label), written out per
# kind: the generic repr, with its recursion guard, costs several times more.


def _event_repr(e) -> str:
    return (f"LocalEvent(name={e.name!r}, peer={e.peer!r}, data={e.data!r}, kind={e.kind!r}, "
            f"special={e.special!r})")


def _msg_repr(m) -> str:
    return f"Message(id={m.id!r}, src={m.src!r}, dst={m.dst!r}, data={m.data!r})"


def _cond_repr(c) -> str:
    return f"Condition(var={c.var!r}, op={c.op!r}, bound={c.bound!r})"


_SORT_TEXT = {
    EnvEvent: lambda lb: f"EnvEvent(event={_event_repr(lb.event)})",
    SysCond: lambda lb: f"SysCond(event={_event_repr(lb.event)}, cond={_cond_repr(lb.cond)})",
    TimeoutSys: lambda lb: f"TimeoutSys(event={_event_repr(lb.event)})",
    TimeoutUpd: lambda lb: f"TimeoutUpd(var={lb.var!r})",
    BroadcastCond: lambda lb: f"BroadcastCond(msg={_msg_repr(lb.msg)}, cond={_cond_repr(lb.cond)})",
    RecvSys: lambda lb: f"RecvSys(msg={_msg_repr(lb.msg)}, event={_event_repr(lb.event)})",
    RecvUpd: lambda lb: f"RecvUpd(msg={_msg_repr(lb.msg)}, var={lb.var!r})",
}


def _sort_text(label: TransitionLabel) -> str:
    """str(label), the text transitions are sorted by."""
    return _SORT_TEXT.get(type(label), str)(label)


@dataclass
class Csa:
    """A communication service automaton. Treat as immutable after construction.
    Its `transitions` are held by source state, then label text, whatever order
    they come in (a dict in that order is kept): the one order that files,
    drawings and the execution engine list them in."""

    owner: str
    states: tuple[StateId, ...]
    vars: tuple[CounterVar, ...]
    init: StateId
    finals: frozenset[StateId]
    transitions: dict[tuple[StateId, TransitionLabel], StateId]

    def __post_init__(self):
        pairs = list(self.transitions.items())
        if not _in_order(pairs):
            self.transitions = dict(sorted(
                pairs, key=lambda kv: (kv[0][0], _sort_text(kv[0][1]))))


def _in_order(pairs: list) -> bool:
    # Whether the ((src, label), dst) pairs are by source state, then label
    # text.  The sort text of a label of the seven kinds begins with its
    # class's name and "(", so two labels of two such kinds compare by their
    # class names.
    for ((a, x), _), ((b, y), _) in zip(pairs, pairs[1:]):
        if a != b:
            if a > b:
                return False
        elif type(x) is not type(y) and type(x) in _SORT_TEXT and type(y) in _SORT_TEXT:
            if type(x).__name__ > type(y).__name__:
                return False
        elif _sort_text(x) > _sort_text(y):
            return False
    return True


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = field(default_factory=tuple)


_VALID = ValidationReport(ok=True)


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
    if not csa.finals <= states:
        problems += [f"final state {f!r} is not declared" for f in sorted(csa.finals - states)]
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
    return ValidationReport(ok=False, problems=tuple(problems)) if problems else _VALID


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


# Reading a file.  A reader whose keys all hold values of the right types,
# which pass the value checks of the class's constructor, makes its frozen
# instance without calling __init__ (`_new` and its __dict__).  Otherwise it
# reads the keys again through _get, in order, and calls the constructor: the
# first problem in that order raises.

_new = object.__new__


def _event_from_json(obj: dict) -> LocalEvent:
    name, peer, data = obj.get("name"), obj.get("peer"), obj.get("data")
    kind, special = obj.get("kind"), obj.get("special")
    if (type(name) is str and type(peer) is str and (data is None or type(data) is str)
            and (special is None and (kind == "env" or kind == "sys")
                 or kind == "sys" and (special == "fail" or special == "success"))):
        event = _new(LocalEvent)
        event.__dict__.update(name=name, peer=peer, data=data, kind=kind, special=special)
        return event
    return LocalEvent(_get(obj, "name", str), _get(obj, "peer", str),
                      _get(obj, "data", str, optional=True), _get(obj, "kind", str),
                      _get(obj, "special", str, optional=True))


def _msg_to_json(msg: Message) -> dict:
    out = {"id": msg.id, "src": msg.src, "dst": msg.dst}
    if msg.data is not None:
        out["data"] = msg.data
    return out


def _msg_from_json(obj: dict) -> Message:
    id_, src, dst, data = obj.get("id"), obj.get("src"), obj.get("dst"), obj.get("data")
    if (type(id_) is str and type(src) is str and type(dst) is str
            and (data is None or type(data) is str)):
        msg = _new(Message)
        msg.__dict__.update(id=id_, src=src, dst=dst, data=data)
        return msg
    return Message(_get(obj, "id", str), _get(obj, "src", str), _get(obj, "dst", str),
                   _get(obj, "data", str, optional=True))


def _cond_to_json(cond: Condition) -> dict:
    return {"var": cond.var, "op": cond.op, "bound": cond.bound}


def _cond_from_json(obj: dict) -> Condition:
    var, op, bound = obj.get("var"), obj.get("op"), obj.get("bound")
    if type(var) is str and op in ("<=", ">") and type(bound) is int and bound >= 0:
        cond = _new(Condition)
        cond.__dict__.update(var=var, op=op, bound=bound)
        return cond
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
_FIELDS = {cls: tuple((name, _PARTS[name].typ, _PARTS[name].load) for name in cls.__match_args__)
           for cls in _BY_KIND.values()}


def _label_from_json(obj: dict) -> tuple:
    # (label, the number of keys of obj and of the objects it holds).
    kind = obj.get("kind")
    cls = _BY_KIND.get(kind) if type(kind) is str else None
    if cls is None:
        raise ValueError(f"unknown transition kind {_get(obj, 'kind', str)!r}")
    keys, fields = len(obj), {}
    for name, typ, load in _FIELDS[cls]:
        value = obj.get(name)
        if type(value) is not typ:
            value = _get(obj, name, typ)
        if typ is dict:
            keys += len(value)
        fields[name] = load(value)
    label = _new(cls)
    label.__dict__.update(fields)
    return label, keys


def _transition_from_json(obj) -> tuple:
    # (source, label, target, the number of keys of obj and of the objects it holds).
    if type(obj) is dict:
        src, label, dst = obj.get("from"), obj.get("label"), obj.get("to")
        if type(src) is str and type(label) is dict and type(dst) is str:
            label, keys = _label_from_json(label)
            return src, label, dst, len(obj) + keys
    src = _get(obj, "from", str)
    label, keys = _label_from_json(_get(obj, "label", dict))
    return src, label, _get(obj, "to", str), len(obj) + keys


def _lines(items: list, nl: str, brackets: str) -> str:
    # items' texts between brackets, one a line indented 2 more than nl, the
    # break and indent of the line the brackets open on: JSON's indent-2 layout.
    if not items:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def json_text(obj: dict, nl: str = "\n") -> str:
    """obj, a dict of strings, booleans and ints by string key, as
    `json.dumps(obj, indent=2)` writes it, byte for byte, opening on a line
    whose break and indent are nl.

    The stdlib runs its pure-Python encoder whenever it indents; this writer
    quotes strings with the C encoder instead.
    """
    items = []
    for key, value in obj.items():
        if isinstance(value, str):
            text = _quote(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, int):
            text = int.__repr__(value)
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        items.append(f"{_quote(key)}: {text}")
    return _lines(items, nl, "{}")


def export_json(csa: Csa) -> str:
    """csa's file: the bytes of `json.dumps(doc, indent=2)` and a newline, where
    doc holds its owner, states, init, vars and transitions (see the README).

    The document has a fixed shape, so it is written at fixed indents; only
    the label parts (`_PARTS[...].dump`) go through json_text.
    """
    nl2, nl4, nl6, nl8 = "\n  ", "\n    ", "\n      ", "\n        "
    finals = csa.finals
    states = [f'{{{nl6}"id": {_quote(s)},{nl6}"final": {"true" if s in finals else "false"}{nl4}}}'
              for s in csa.states]
    transitions = []
    for (src, label), dst in csa.transitions.items():
        text = (f'{{{nl6}"from": {_quote(src)},{nl6}"to": {_quote(dst)},'
                f'{nl6}"label": {{{nl8}"kind": {_quote(label.kind)}')
        for name in label.__match_args__:
            part = _PARTS[name].dump(getattr(label, name))
            text += f',{nl8}"{name}": ' + (_quote(part) if isinstance(part, str)
                                           else json_text(part, nl8))
        transitions.append(f"{text}{nl6}}}{nl4}}}")
    doc = [f'"owner": {_quote(csa.owner)}',
           '"states": ' + _lines(states, nl2, "[]"),
           f'"init": {_quote(csa.init)}',
           '"vars": ' + _lines([_quote(v) for v in csa.vars], nl2, "[]"),
           '"transitions": ' + _lines(transitions, nl2, "[]")]
    return _lines(doc, "\n", "{}") + "\n"


def _object(pairs: list) -> dict:
    # json's object hook: a repeated key would otherwise keep its last value.
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = _repeated(tuple(k for k, _ in pairs))[0]
        raise ValueError(f"key {key!r} is repeated in one object")
    return doc


def _parse(text: str):
    # The JSON document of text, every object's keys checked: ValueError at the
    # first repeated key, syntax error or overdeep nesting the parser meets.
    try:
        return json.loads(text, object_pairs_hook=_object)
    except RecursionError:
        raise ValueError("CSA file nests too deeply") from None


def _decode(doc) -> tuple:
    # (the Csa of a parsed document, the number of keys of the objects read),
    # or ValueError at the first problem, in the order the keys are read.
    states = _get(doc, "states", list)
    try:
        ids, flags = [s["id"] for s in states], [s["final"] for s in states]
    except (KeyError, TypeError):
        ids = flags = ()
    if len(ids) == len(states) and {*map(type, ids)} <= {str} and {*map(type, flags)} <= {bool}:
        finals = frozenset(compress(ids, flags))
    else:  # one of them raises here or where the ids are read below
        finals = frozenset(_get(s, "id", str) for s in states if _get(s, "final", bool))
        ids = None
    variables = _get(doc, "vars", list)
    if any(type(v) is not str for v in variables):
        raise ValueError(f"'vars' must be a list of strings, got {json.dumps(variables)}")
    transitions, keys = {}, len(doc)
    for i, t in enumerate(_get(doc, "transitions", list)):
        try:
            src, label, dst, n = _transition_from_json(t)
        except ValueError as exc:
            raise ValueError(f"transition {i}: {exc}") from None
        keys += n
        key = (src, label)
        transitions[key] = dst
        if len(transitions) == i:  # key was there already
            first = list(transitions).index(key)  # each entry before i added a key
            raise ValueError(f"transitions {first} and {i} both leave {src!r} on "
                             f"{label_text(label)!r}")
    csa = Csa(
        owner=_get(doc, "owner", str),
        states=tuple(_get(s, "id", str) for s in states) if ids is None else tuple(ids),
        vars=tuple(variables),
        init=_get(doc, "init", str),
        finals=finals,
        transitions=transitions,
    )
    report = validate(csa)
    if not report.ok:
        raise ValueError(f"invalid CSA for {csa.owner!r}: " + "; ".join(report.problems))
    return csa, keys + sum(map(len, states))


def import_json(text: str) -> Csa:
    """Parse a CSA file written by export_json.

    Raises ValueError when the text is not JSON or repeats a key in an object,
    when a key is missing or holds a value of the wrong type, when two
    transitions share a source and a label, or when `validate` reports problems.

    The text is parsed without checking keys and read at once.  Each ':' of
    a JSON text outside a string ends a key, so when the keys of the objects
    read are as many as the text's ':', the text holds no other key and no
    object repeats one.  Otherwise, and when reading fails, the text is
    parsed again with its keys checked, so that a repeated key is the first
    problem reported, as it is the first the checked parser meets.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        doc = _parse(text)  # raises the error the checked parse meets first
    try:
        csa, keys = _decode(doc)
    except ValueError:
        _parse(text)
        raise
    if keys != text.count(":" if isinstance(text, str) else b":"):
        _parse(text)
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
    for (src, label), dst in csa.transitions.items():
        lines.append(f"  {q(src)} -> {q(dst)} [label={q(label_text(label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
