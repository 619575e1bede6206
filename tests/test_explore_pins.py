"""Exact results of `explore_sync` pinned on fixed specs and bounds.

Each row gives the exact probability and the number of distinct configs
explored for every sequence of a spec, on the CSAs synthesized at the given
bounds (in `events_of` order). The chains are the bound vectors of the bench
`verify` ladder (`VERIFY_CHAINS` in `bench/run.py`), followed by the example
and a three-leaf tree. A change to the engine's representation must leave
every row as it is.
"""

from fractions import Fraction

import pytest

from protoforge import enumerate_sequences, explore_sync, parse_spec, synthesize_for_car
from protoforge.speclang import events_of


def _chain(delta, p, n):
    names = [f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(n)]
    return f"delta {delta}; cars A B; " + " . ".join(names) + f" : {p}"


EXAMPLE = "delta 0.35; cars A B; snd A->B(d) . (ack B->A : 0.7 | nack B->A : 0.8)"
TREE = ("delta 0.4; cars A B; a A->B(d) . (b B->A : 0.6 | (c B->A . d A->B : 0.5)"
        " | e B->A . f A->B . g B->A : 0.4)")

# (spec, bounds, {sequence: (exact probability, configs processed)})
PINS = [
    (_chain("0.5", "0.51", 3), (3, 3, 2), {"e0.e1.e2": ("269/512", 156)}),
    (_chain("0.5", "0.51", 4), (4, 4, 3, 2), {"e0.e1.e2.e3": ("1071/2048", 288)}),
    (_chain("0.5", "0.51", 5), (4, 4, 5, 4, 2),
     {"e0.e1.e2.e3.e4": ("134837/262144", 447)}),
    (_chain("0.5", "0.51", 6), (5, 4, 5, 5, 4, 2),
     {"e0.e1.e2.e3.e4.e5": ("268209/524288", 623)}),
    (_chain("0.5", "0.51", 7), (5, 5, 5, 5, 5, 4, 3),
     {"e0.e1.e2.e3.e4.e5.e6": ("34484555/67108864", 815)}),
    (_chain("0.6", "0.49", 3), (8, 6, 3),
     {"e0.e1.e2": ("375535961552/762939453125", 477)}),
    (_chain("0.6", "0.49", 4), (9, 8, 8, 3),
     {"e0.e1.e2.e3": ("29212297823480896/59604644775390625", 903)}),
    (_chain("0.6", "0.49", 5), (10, 10, 9, 7, 3),
     {"e0.e1.e2.e3.e4": ("91343752692978190016/186264514923095703125", 1410)}),
    (EXAMPLE, (3, 1, 2),
     {"snd.ack": ("50033971/64000000", 80), "snd.nack": ("1038465623/1280000000", 88)}),
    (TREE, (2, 1, 1, 1, 2, 1, 1),
     {"a.b": ("2133/3125", 57), "a.c.d": ("42093/78125", 76), "a.e.f.g": ("186057/390625", 118)}),
]


IDS = [f"chain{len(vec)}-d{text[6:9]}" for text, vec, _ in PINS[:-2]] + ["example", "tree"]


@pytest.mark.parametrize("text, vec, pinned", PINS, ids=IDS)
def test_explore_sync_matches_pinned_results(text, vec, pinned):
    spec = parse_spec(text)
    bounds = dict(zip(events_of(spec.protocol), vec))
    csas = [synthesize_for_car(spec.protocol, car, bounds) for car in spec.cars]
    got = {}
    for pseq in enumerate_sequences(spec.protocol):
        result = explore_sync(csas, spec.delta, pseq.events)
        got[".".join(e.name for e in pseq.events)] = (result.probability, result.configs_processed)
        assert not result.scheduler_branching
    assert got == {seq: (Fraction(p), n) for seq, (p, n) in pinned.items()}
