import hashlib
import random

import pytest

from protoforge import (
    BroadcastCond,
    Leaf,
    MissingBound,
    NotWellPosed,
    Or,
    Seq,
    SysCond,
    event_bindings,
    export_dot,
    export_json,
    isomorphic,
    parse_spec,
    synthesize_all,
    synthesize_for_car,
    validate,
)
from protoforge.speclang import GlobalEvent, events_of
from conftest import reference_receiver, reference_sender, random_dialogue

BOUNDS_312 = None  # filled per test from events


def example_bounds(spec):
    by_name = {"snd": 3, "ack": 1, "nack": 2}
    return {e: by_name[e.name] for e in events_of(spec)}


def test_sender_matches_reference(example_spec):
    csa = synthesize_for_car(example_spec.protocol, "A", example_bounds(example_spec.protocol))
    assert len(csa.states) == 6
    assert len(csa.finals) == 2
    assert isomorphic(csa, reference_sender())


def test_receiver_matches_reference(example_spec):
    csa = synthesize_for_car(example_spec.protocol, "B", example_bounds(example_spec.protocol))
    assert len(csa.states) == 10
    assert len(csa.finals) == 2
    assert isomorphic(csa, reference_receiver())


def test_uninvolved_car_gets_trivial_automaton(example_spec):
    csa = synthesize_for_car(example_spec.protocol, "C", example_bounds(example_spec.protocol))
    assert len(csa.states) == 1
    assert csa.init in csa.finals
    assert not csa.transitions


def test_synthesis_is_deterministic(example_spec):
    bounds = example_bounds(example_spec.protocol)
    one = synthesize_for_car(example_spec.protocol, "B", bounds)
    two = synthesize_for_car(example_spec.protocol, "B", bounds)
    assert one == two


def expected_state_count(tree, car):
    # 3 per chain event sent, 1 per chain event received, 5 per final event
    # sent, 2 per final event received, 1 per uninvolved leaf, minus one per
    # disjunction (initial states merge).
    def walk(node):
        if isinstance(node, Or):
            return walk(node.left) + walk(node.right) - 1
        if isinstance(node, Seq):
            rest = walk(node.rest)
            if car == node.event.src:
                return rest + 3
            if car == node.event.dst:
                return rest + 1
            return rest
        if car == node.event.src:
            return 5
        if car == node.event.dst:
            return 2
        return 1

    return walk(tree)


def test_state_count_formula_random_dialogues():
    rng = random.Random(1234)
    for _ in range(50):
        tree = random_dialogue(rng)
        bounds = {e: rng.randint(0, 4) for e in events_of(tree)}
        for car in ("A", "B", "C"):
            csa = synthesize_for_car(tree, car, bounds)
            assert len(csa.states) == expected_state_count(tree, car)
            assert validate(csa).ok


def test_every_broadcast_has_fail_sibling():
    rng = random.Random(88)
    for _ in range(30):
        tree = random_dialogue(rng)
        bounds = {e: rng.randint(0, 4) for e in events_of(tree)}
        for car in ("A", "B"):
            csa = synthesize_for_car(tree, car, bounds)
            for (src, label), _ in csa.transitions.items():
                if not isinstance(label, BroadcastCond):
                    continue
                assert label.cond.op == "<="
                siblings = [l for (s, l) in csa.transitions if s == src
                            and isinstance(l, SysCond)]
                assert any(
                    l.event.special == "fail"
                    and l.cond.op == ">"
                    and l.cond.var == label.cond.var
                    and l.cond.bound == label.cond.bound
                    for l in siblings
                )


def test_synthesize_all_reproduces_reference_design(example_spec):
    result = synthesize_all(example_spec)
    assert {e.name: n for e, n in result.bounds.items()} == {"snd": 3, "ack": 1, "nack": 2}
    assert isomorphic(result.csas["A"], reference_sender())
    assert isomorphic(result.csas["B"], reference_receiver())
    for csa in result.csas.values():
        assert validate(csa).ok


def test_synthesize_all_lossless_medium_needs_no_retries():
    full = parse_spec("delta 0; cars A B; snd A->B(d) . (ack B->A : 0.7 | nack B->A : 0.8)")
    result = synthesize_all(full)
    assert all(n == 0 for n in result.bounds.values())
    assert isomorphic(result.csas["A"], reference_sender(0, 0, 0))


def test_synthesize_all_rejects_ill_posed():
    full = parse_spec("delta 0; cars A B; e A->B : 0.5")
    with pytest.raises(NotWellPosed):
        synthesize_all(full)


def test_synthesize_for_car_rejects_ill_posed():
    with pytest.raises(NotWellPosed):
        synthesize_for_car(Leaf(GlobalEvent("e", "A", "B"), 0.5), "A", {})


def test_missing_bound(example_spec):
    bounds = example_bounds(example_spec.protocol)
    bounds.pop(next(iter(bounds)))
    with pytest.raises(MissingBound):
        synthesize_for_car(example_spec.protocol, "A", bounds)


# SHA-256 of (export_json, export_dot) per car for two specifications with a
# disjunction nested inside another, one of them between two pairs of cars.
GOLDEN_NESTED = [
    ("delta 0.3; cars A B C; (a A->B . (b B->A : 0.5 | c B->A . d A->B : 0.4)) | "
     "e B->A . f A->B : 0.3", {
         "A": ("e7cd0c80924aa1723527363bd43b04f49d585b52b08700b7701b997ba9d35105",
               "92aece0257c0eb640379e5c979bd3c443b8821933e51bc270cec9593c16738b8"),
         "B": ("c1869c9e8269c34ce1bba09c1264d602d91ab941b3cfb421047a0efaa9f02efc",
               "799cf91533a6a195231b8e6eef29bc837bcd71cdc33596a93a5349471cde5b7a"),
         "C": ("51113b85e62e1f02aff2d5f0d2c15387704914a4a267949de5a4f1891ad7f4ff",
               "e97b8e189f06700948f7ea23431e361f7bfce1ba6343b34cd3a17a790b9f2240"),
     }),
    ("delta 0.3; cars A B C; (a A->C . (b C->A : 0.5 | c C->A . d A->C : 0.5)) | "
     "e B->C . f C->B : 0.5", {
         "A": ("b97e49088313b20958aedcf935e3e4c6c83eae915c888d9224cbb1ec7bbbb584",
               "afcc531f0d374b8cd9dc19ecc29f6d43c849e52031dcf2fdcc32d02568891bc6"),
         "B": ("0225a1281386c561f602beffa6ed7964b79adbb3e3f6cab946ff4787d72dc8be",
               "a5b8b206b290a4d0e82bcebd4b5fa97ebecad954c207b51c6691077db152da2d"),
         "C": ("f47e66a22969c43b7f9e1735840fb9234c9222577a9876dbc7c8256c9275c3a4",
               "87df91e03c9ba780bc6d7e96ad046e69ce503672fcc96dc3c578111dd00fc209"),
     }),
]


@pytest.mark.parametrize("text, digests", GOLDEN_NESTED, ids=["one-pair", "two-pairs"])
def test_synthesis_golden_files_with_nested_disjunctions(text, digests):
    csas = synthesize_all(parse_spec(text)).csas
    got = {car: tuple(hashlib.sha256(export(csa).encode()).hexdigest()
                      for export in (export_json, export_dot))
           for car, csa in csas.items()}
    assert got == digests


@pytest.mark.parametrize("text", [
    "delta 0.3; cars A B; (a A->B . b B->A : 0.5) | a A->B . c B->A : 0.6",
    "delta 0.3; cars A B; a A->B . ((b B->A . c A->B : 0.4) | b B->A . d A->B : 0.4)",
])
def test_alternatives_that_begin_alike_are_not_synthesized(text):
    # Both alternatives would need a transition on the same label from the
    # same state, and one of them would be lost.
    full = parse_spec(text)
    bounds = {e: 1 for e in events_of(full.protocol)}
    for car in full.cars:
        with pytest.raises(NotWellPosed, match="both begin with event"):
            synthesize_for_car(full.protocol, car, bounds)


def test_event_bindings_number_a_third_reuse_of_a_name():
    # The second e takes the suffix 2, so the third steps on to 3.
    protocol = parse_spec("delta 0.3; cars A B C; e A->B . e B->A . e A->C : 0.5").protocol
    bindings = event_bindings(protocol)
    got = [(bindings[e].counter, bindings[e].message.id) for e in events_of(protocol)]
    assert got == [("nu_e", "m_e"), ("nu_e_2", "m_e_2"), ("nu_e_3", "m_e_3")]
