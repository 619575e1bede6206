"""Protocol specification language: AST, parser, printer, and semantics.

A protocol specification is a tree over global events. Every leaf carries the
probability with which the event sequence leading to it must be synchronized.
The concrete syntax (.psl) is::

    spec    := "delta" FLOAT ";" "cars" IDENT+ ";" phi
    phi     := seq ( "|" phi )?
    seq     := "(" phi ")" | event ( ("." phi) | (":" FLOAT) )
    event   := IDENT IDENT "->" IDENT ( "(" IDENT ")" )?

Whitespace is insignificant and "#" starts a line comment.  Nesting is
limited to MAX_NESTING levels: the whole phi is one, and each "(", "." and "|"
opens one more.  That keeps the parser and the recursive tree walks within
Python's default recursion limit.  Example::

    delta 0.35; cars A B;
    snd A->B(d) . (ack B->A : 0.7 | nack B->A : 0.8)

Synthesis takes only well-posed specifications: two cars take turns on each
path, and no event begins two alternatives of one `|` (see `well_posed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import ProbabilityOutOfRange, SpecSyntaxError

CarId = str

MAX_NESTING = 100


@dataclass(frozen=True)
class GlobalEvent:
    """A named data transfer from one car to another."""

    name: str
    src: CarId
    dst: CarId
    data: Optional[str] = None

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"event {self.name!r}: source and destination are both {self.src!r}")

    def __str__(self):
        payload = f"({self.data})" if self.data is not None else ""
        return f"{self.name} {self.src}->{self.dst}{payload}"


class ProtocolSpec:
    """Base class for specification tree nodes (Leaf, Seq, Or)."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(ProtocolSpec):
    event: GlobalEvent
    p: float


@dataclass(frozen=True)
class Seq(ProtocolSpec):
    event: GlobalEvent
    rest: "SpecNode"


@dataclass(frozen=True)
class Or(ProtocolSpec):
    left: "SpecNode"
    right: "SpecNode"


SpecNode = Union[Leaf, Seq, Or]


@dataclass(frozen=True)
class PSequence:
    """A sequence of global events tagged with a probability."""

    events: tuple[GlobalEvent, ...]
    p: float

    def __post_init__(self):
        if not self.events:
            raise ValueError("a p-sequence must contain at least one event")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class FullSpec:
    """A protocol specification plus its environment assumption."""

    protocol: SpecNode
    delta: float
    cars: tuple[CarId, ...]

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"drop probability bound {self.delta} outside [0, 1]")
        missing = {c for e in events_of(self.protocol) for c in (e.src, e.dst)} - set(self.cars)
        if missing:
            raise ValueError(f"cars {sorted(missing)} appear in events but not in the car set")


def events_of(spec: SpecNode) -> list[GlobalEvent]:
    """All distinct events of the tree, in depth-first first-occurrence order."""
    seen: dict[GlobalEvent, None] = {}

    def walk(node):
        if isinstance(node, Leaf):
            seen.setdefault(node.event)
        elif isinstance(node, Seq):
            seen.setdefault(node.event)
            walk(node.rest)
        else:
            walk(node.left)
            walk(node.right)

    walk(spec)
    return list(seen)


# ---------------------------------------------------------------------------
# Parsing


@dataclass
class _Token:
    kind: str  # "ident", "number", or the punctuation itself
    text: str
    pos: int  # offset in the source text


def _where(text: str, pos: int) -> tuple[int, int]:
    # (line, column) of offset pos, both counted from 1.
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            yield _Token("->", "->", i)
            i += 2
            continue
        if ch in ";.:|()":
            yield _Token(ch, ch, i)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            yield _Token("number", text[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield _Token("ident", text[i:j], i)
            i = j
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", *_where(text, i))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.depth = 0  # phi calls under way
        self.path: list[tuple[str, str, str]] = []  # (name, src, dst) of the enclosing events
        self.cars: tuple[str, ...] = ()

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, message: str):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1].pos if self.tokens else 0
            raise SpecSyntaxError(message + " (at end of input)", *_where(self.text, last))
        raise SpecSyntaxError(f"{message}, found {tok.text!r}", *self.at(tok))

    def at(self, tok: _Token) -> tuple[int, int]:
        return _where(self.text, tok.pos)

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.error(f"expected {kind!r}")
        self.pos += 1
        return tok

    def take_float(self) -> float:
        tok = self.take("number")
        try:
            return float(tok.text)
        except ValueError:
            raise SpecSyntaxError(f"bad number {tok.text!r}", *self.at(tok)) from None

    def parse(self) -> FullSpec:
        kw = self.take("ident")
        if kw.text != "delta":
            self.error("expected 'delta'")
        delta = self.take_float()
        if not 0.0 <= delta <= 1.0:
            raise ProbabilityOutOfRange(f"delta {delta} outside [0, 1]")
        self.take(";")
        kw = self.take("ident")
        if kw.text != "cars":
            self.error("expected 'cars'")
        cars = []
        while self.peek() is not None and self.peek().kind == "ident":
            cars.append(self.take("ident").text)
        if not cars:
            self.error("expected at least one car name")
        if len(set(cars)) != len(cars):
            self.error("duplicate car name")
        self.cars = tuple(cars)
        self.take(";")
        phi = self.phi()
        if self.peek() is not None:
            self.error("trailing input after specification")
        return FullSpec(protocol=phi, delta=delta, cars=self.cars)

    def phi(self) -> SpecNode:
        if self.depth == MAX_NESTING:
            self.error(f"specification nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = self.seq()
        tok = self.peek()
        if tok is not None and tok.kind == "|":
            self.pos += 1
            node = Or(node, self.phi())
        self.depth -= 1
        return node

    def seq(self) -> SpecNode:
        tok = self.peek()
        if tok is not None and tok.kind == "(":
            self.pos += 1
            inner = self.phi()
            self.take(")")
            return inner
        event = self.event()  # tok is its name token
        # Synthesis assigns one message and one counter per (name, src, dst);
        # a repeat on a single root-to-leaf path would alias them.
        triple = (event.name, event.src, event.dst)
        if triple in self.path:
            raise SpecSyntaxError(f"event {event.name!r} {event.src}->{event.dst} repeats on one "
                                  "path; each (name, source, destination) may appear once per path",
                                  *self.at(tok))
        tok = self.peek()
        if tok is not None and tok.kind == ".":
            self.pos += 1
            self.path.append(triple)
            rest = self.phi()
            self.path.pop()
            return Seq(event, rest)
        if tok is not None and tok.kind == ":":
            self.pos += 1
            p = self.take_float()
            if not 0.0 <= p <= 1.0:
                line, column = self.at(tok)
                raise ProbabilityOutOfRange(f"{line}:{column}: probability {p} outside [0, 1]")
            return Leaf(event, p)
        self.error("expected '.' or ':' after event")

    def event(self) -> GlobalEvent:
        name = self.take("ident")
        src = self.take("ident")
        self.take("->")
        dst = self.take("ident")
        data = None
        tok = self.peek()
        if tok is not None and tok.kind == "(":
            self.pos += 1
            data = self.take("ident").text
            self.take(")")
        if src.text == dst.text:
            raise SpecSyntaxError(
                f"event {name.text!r} has identical source and destination {src.text!r}",
                *self.at(name),
            )
        for car in (src.text, dst.text):
            if car not in self.cars:
                raise SpecSyntaxError(
                    f"event {name.text!r} uses undeclared car {car!r}", *self.at(name)
                )
        return GlobalEvent(name.text, src.text, dst.text, data)


def parse_spec(text: str) -> FullSpec:
    """Parse .psl text into a FullSpec.

    Raises SpecSyntaxError with line/column on malformed input and
    ProbabilityOutOfRange for annotations outside [0, 1].
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing


def format_protocol(spec: SpecNode) -> str:
    if isinstance(spec, Leaf):
        return f"{spec.event} : {spec.p!r}"
    if isinstance(spec, Seq):
        return f"{spec.event} . {format_protocol(spec.rest)}"
    # A non-leaf left operand must be parenthesized: '.' and '|' both extend
    # to the end of the enclosing phi.
    left = format_protocol(spec.left)
    if not isinstance(spec.left, Leaf):
        left = f"({left})"
    return f"{left} | {format_protocol(spec.right)}"


def format_spec(full: FullSpec) -> str:
    cars = " ".join(full.cars)
    return f"delta {full.delta!r}; cars {cars}; {format_protocol(full.protocol)}"


# ---------------------------------------------------------------------------
# Semantics


def enumerate_sequences(spec: SpecNode) -> list[PSequence]:
    """The p-sequences that reach each leaf, deduplicated, in depth-first order.

    One entry per distinct (events, p) pair: the events are the edge labels
    from the root to a leaf and p is that leaf's annotation.
    """
    out: dict[PSequence, None] = {}

    def walk(node, prefix):
        if isinstance(node, Leaf):
            out.setdefault(PSequence(prefix + (node.event,), node.p))
        elif isinstance(node, Seq):
            walk(node.rest, prefix + (node.event,))
        else:
            walk(node.left, prefix)
            walk(node.right, prefix)

    walk(spec, ())
    return list(out)


def satisfies(pseq: PSequence, spec: SpecNode) -> bool:
    """The satisfaction relation between p-sequences and specifications.

    A single event satisfies a leaf when its probability meets the annotation;
    a sequence satisfies a chain when its head matches and the tail satisfies
    the rest; a disjunction is satisfied by either branch.
    """
    return _satisfies(pseq.events, pseq.p, spec)


def _satisfies(events, p, node) -> bool:
    if isinstance(node, Leaf):
        return len(events) == 1 and events[0] == node.event and p >= node.p
    if isinstance(node, Seq):
        return len(events) >= 1 and events[0] == node.event and _satisfies(events[1:], p, node.rest)
    return _satisfies(events, p, node.left) or _satisfies(events, p, node.right)


# ---------------------------------------------------------------------------
# Well-posedness


@dataclass(frozen=True)
class Violation:
    path: tuple[GlobalEvent, ...]
    message: str


@dataclass(frozen=True)
class WellPosednessReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)


def well_posed(spec: SpecNode) -> WellPosednessReport:
    """Check that every path is a strict two-party dialogue, and that no event
    begins two alternatives of one disjunction, nested ones included.

    Each root-to-leaf sequence must contain at least two events, and the two
    cars must take turns triggering: each event's source is the previous
    event's destination and vice versa.
    """
    violations = []

    def starts(node, path):
        # The events that begin node's alternatives; reports those two share.
        if isinstance(node, Seq):
            starts(node.rest, path + (node.event,))
        if not isinstance(node, Or):
            return {node.event: None}
        left, right = starts(node.left, path), starts(node.right, path)
        where = f"after path '{'.'.join(e.name for e in path)}'" if path else "at the root"
        violations.extend(Violation(path, f"alternatives {where} both begin with event '{e}'; "
                                          "write it once, before the '|'") for e in left if e in right)
        return {**left, **right}

    for pseq in enumerate_sequences(spec):
        events = pseq.events
        names = ".".join(e.name for e in events)
        if len(events) < 2:
            violations.append(Violation(
                events,
                f"path '{names}' has {len(events)} event(s); a dialogue needs "
                "at least two events",
            ))
        for k in range(len(events) - 1):
            cur, nxt = events[k], events[k + 1]
            if nxt.src != cur.dst or nxt.dst != cur.src:
                violations.append(Violation(
                    events,
                    f"path '{names}': events {k + 1} and {k + 2} do not take turns "
                    f"({cur.src}->{cur.dst} is followed by {nxt.src}->{nxt.dst}; the "
                    "two ASCs must take turns triggering)",
                ))
    starts(spec, ())
    return WellPosednessReport(ok=not violations, violations=tuple(violations))
