"""Benchmark inputs: protocol trees, their .psl text, and the seeded generators.

A tree is built from tuples so that the benchmark knows every path and event
without asking the package under test:

    ("leaf", event, p)    ("seq", event, child)    ("or", left, right)

with event = (name, src, dst, data) and p the requirement's decimal text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Spec:
    name: str
    delta: str  # decimal text, exact
    tree: tuple
    bounds: tuple = ()  # fixed bound vector in event order, for CSAs built in set-up

    @property
    def text(self) -> str:
        return f"delta {self.delta}; cars A B; {_render(self.tree)}\n"

    @property
    def events(self) -> list:
        seen: dict = {}

        def walk(node):
            if node[0] == "or":
                walk(node[1])
                walk(node[2])
            else:
                seen.setdefault(node[1][0])
                if node[0] == "seq":
                    walk(node[2])

        walk(self.tree)
        return list(seen)

    @property
    def paths(self) -> list:
        """(event names, p text) per leaf, in depth-first order."""
        out = []

        def walk(node, prefix):
            if node[0] == "or":
                walk(node[1], prefix)
                walk(node[2], prefix)
            elif node[0] == "seq":
                walk(node[2], prefix + (node[1][0],))
            else:
                out.append((prefix + (node[1][0],), node[2]))

        walk(self.tree, ())
        return out

    def constraints(self) -> list:
        """[(event indices, exact p)] per path."""
        index = {e: i for i, e in enumerate(self.events)}
        return [(tuple(index[e] for e in names), Fraction(p)) for names, p in self.paths]


def _render(node) -> str:
    kind = node[0]
    if kind == "or":
        left = _render(node[1])
        if node[1][0] != "leaf":
            left = f"({left})"
        return f"{left} | {_render(node[2])}"
    name, src, dst, data = node[1]
    ev = f"{name} {src}->{dst}" + (f"({data})" if data else "")
    if kind == "leaf":
        return f"{ev} : {node[2]}"
    return f"{ev} . {_render(node[2])}"


def _ev(name, turn, data=None):
    return (name, "A", "B", data) if turn % 2 == 0 else (name, "B", "A", data)


def chain(k: int, p: str) -> tuple:
    """Alternating two-car chain e0 A->B . e1 B->A . ... of k events."""
    node = ("leaf", _ev(f"e{k - 1}", k - 1), p)
    for i in range(k - 2, -1, -1):
        node = ("seq", _ev(f"e{i}", i), node)
    return node


EXAMPLE = Spec("example", "0.35", (
    "seq", ("snd", "A", "B", "d"),
    ("or", ("leaf", ("ack", "B", "A", None), "0.7"), ("leaf", ("nack", "B", "A", None), "0.8"))),
    bounds=(3, 1, 2))

MIXED_TREE = (
    "seq", ("a", "A", "B", "d"),
    ("or", ("leaf", ("b", "B", "A", None), "0.6"),
     ("seq", ("c", "B", "A", None), ("leaf", ("d", "A", "B", None), "0.5"))))

# Chain requirements: at delta 0.5 every achievable value is a dyadic rational
# and 0.51 = 51/100 is not; at delta 0.6 every value has a power of 5 as
# denominator and 0.49 = 49/100 does not. No bound vector meets either
# requirement with exact equality, so a float decision can only flip within
# rounding error of p.
CHAIN_P = {"0.5": "0.51", "0.6": "0.49"}

# Random dialogues use dyadic drop bounds (values m/2^N) and requirements whose
# last decimal digit is not 0 or 5 (denominator keeps a factor 5): again no
# exact ties, for any seed.
DIALOGUE_DELTAS = ("0.25", "0.375", "0.625")


def random_dialogue(rng: random.Random, name: str, delta: str, lengths) -> Spec:
    """A well-posed branching dialogue whose paths have the given lengths.

    Each event gets a random bound in 0..3; each leaf requires the
    exact probability its path reaches with those bounds, rounded down to four
    decimals whose last digit is not 0 or 5, so that the bounds are feasible.
    """
    counter = iter(range(1, 1000))

    def build_or(lens, turn):
        # Paths that end here are single leaves; longer ones share prefixes
        # in random groups.
        groups = [[1] for l in lens if l == 1]
        longer = [l for l in lens if l > 1]
        rng.shuffle(longer)
        while longer:
            take = rng.randint(1, len(longer))
            groups.append(longer[:take])
            longer = longer[take:]
        rng.shuffle(groups)
        branches = [build_branch(g, turn) for g in groups]
        node = branches[-1]
        for b in reversed(branches[:-1]):
            node = ("or", b, node)
        return node

    def build_branch(group, turn):
        ev = _ev(f"e{next(counter)}", turn, "d" if turn == 0 else None)
        if group == [1]:
            return ("leaf", ev, None)
        return ("seq", ev, build_or([l - 1 for l in group], turn + 1))

    tree = ("seq", _ev(f"e{next(counter)}", 0, "d"), build_or([l - 1 for l in lengths], 1))
    draft = Spec(name, delta, tree)
    bounds = tuple(rng.randint(0, 3) for _ in draft.events)
    index = {e: i for i, e in enumerate(draft.events)}
    d = Fraction(delta)

    def fill(node, prefix):
        if node[0] == "or":
            return ("or", fill(node[1], prefix), fill(node[2], prefix))
        if node[0] == "seq":
            return ("seq", node[1], fill(node[2], prefix + (node[1][0],)))
        names = prefix + (node[1][0],)
        value = oracle.sync_prob([bounds[index[e]] for e in names], d)
        m = int(value * 10000)
        while m % 5 == 0:
            m -= 1
        return ("leaf", node[1], oracle.decimal_text(Fraction(max(m, 1), 10000)))

    return Spec(name, delta, fill(tree, ()), bounds)


def dialogues(seed: int, tag: str) -> list:
    """Three seeded dialogues, one per dyadic drop bound, with path lengths 2, 2 and 3
    (five events whatever the seed)."""
    rng = random.Random(f"{tag}:{seed}")
    return [random_dialogue(rng, f"dialogue{i}", delta, (2, 2, 3))
            for i, delta in enumerate(DIALOGUE_DELTAS)]


def boundary_specs() -> list:
    """The 53 two-event boundary requirements, with the bounds in boundary.json."""
    rows = json.loads((HERE / "boundary.json").read_text())
    return [
        Spec(f"boundary-d{r['delta']}-p{r['p']}", r["delta"], chain(2, r["p"]), tuple(r["synth_bounds"]))
        for r in rows
    ]
