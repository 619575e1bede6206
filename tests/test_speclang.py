import random

import pytest

from protoforge import (
    FullSpec,
    GlobalEvent,
    Leaf,
    Or,
    PSequence,
    ProbabilityOutOfRange,
    Seq,
    SpecSyntaxError,
    enumerate_sequences,
    format_protocol,
    format_spec,
    parse_spec,
    satisfies,
    well_posed,
)
from conftest import EXAMPLE_TEXT, random_tree

SND = GlobalEvent("snd", "A", "B", "d")
ACK = GlobalEvent("ack", "B", "A")
NACK = GlobalEvent("nack", "B", "A")


def test_parse_example_tree():
    full = parse_spec(EXAMPLE_TEXT)
    assert full.delta == 0.35
    assert full.cars == ("A", "B")
    assert full.protocol == Seq(SND, Or(Leaf(ACK, 0.7), Leaf(NACK, 0.8)))


def test_parse_smallest_spec():
    full = parse_spec("delta 0; cars A B; e A->B : 1.0")
    assert full.protocol == Leaf(GlobalEvent("e", "A", "B"), 1.0)
    assert full.delta == 0.0


def test_parse_probability_out_of_range():
    # A leaf is placed at its ':'.
    with pytest.raises(ProbabilityOutOfRange) as err:
        parse_spec("delta 0.1; cars A B; e A->B : 1.2")
    assert str(err.value) == "1:29: probability 1.2 outside [0, 1]"
    assert (err.value.line, err.value.column) == (1, 29)


def test_parse_delta_out_of_range():
    # The delta is placed at its number.
    with pytest.raises(ProbabilityOutOfRange) as err:
        parse_spec("delta 1.5; cars A B; e A->B : 0.5")
    assert str(err.value) == "1:7: delta 1.5 outside [0, 1]"
    assert (err.value.line, err.value.column) == (1, 7)


@pytest.mark.parametrize("call, message", [
    (lambda: GlobalEvent("e", "A", "A"), "event 'e': source and destination are both 'A'"),
    (lambda: PSequence((), 0.5), "a p-sequence must contain at least one event"),
    (lambda: PSequence((SND,), 1.5), "probability 1.5 outside [0, 1]"),
    (lambda: FullSpec(Leaf(SND, 0.5), -0.1, ("A", "B")),
     "drop probability bound -0.1 outside [0, 1]"),
    (lambda: FullSpec(Seq(SND, Leaf(GlobalEvent("f", "B", "C"), 0.5)), 0.1, ("A", "B")),
     "cars ['C'] appear in events but not in the car set"),
], ids=["event-to-itself", "empty-p-sequence", "p-sequence-above-1", "delta-below-0",
        "undeclared-car"])
def test_tree_constructor_checks(call, message):
    # The parser reports each of these at its position first, so only a
    # caller that builds the tree itself meets them.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_parse_rejects_self_loop_event():
    with pytest.raises(SpecSyntaxError):
        parse_spec("delta 0; cars A B; e A->A : 0.5")


def test_parse_rejects_unknown_car():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("delta 0; cars A B; e A->C : 0.5")
    assert "undeclared car" in str(err.value)


def test_parse_rejects_duplicate_triple_on_path():
    with pytest.raises(SpecSyntaxError):
        parse_spec("delta 0; cars A B; e A->B . e B->A . e A->B : 0.5")
    # The error points at the repeated event's name.
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("delta 0; cars A B;\n  e A->B . e B->A . e A->B : 0.5")
    assert (err.value.line, err.value.column) == (2, 21)
    # The same name with different endpoints is fine.
    parse_spec("delta 0; cars A B; e A->B . e B->A : 0.5")


def test_parse_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("delta 0.1; cars A B;\n  snd A->B(d) .")
    assert err.value.line == 2



@pytest.mark.parametrize("text, message", [
    ("", "1:1: expected 'delta' (at end of input)"),
    ("  # only a comment\n", "1:1: expected 'delta' (at end of input)"),
    ("delta 0.1; cars", "1:12: expected at least one car name (at end of input)"),
    ("delta 0.1; cars A B;\n  snd A->B(d) .", "2:15: expected 'ident' (at end of input)"),
    ("delta 0.1; cars A B; e A->B : 0.5 )", "1:35: trailing input after specification, found ')'"),
], ids=["empty", "comment", "no-cars", "dangling-dot", "trailing"])
def test_parse_error_at_end_points_at_the_last_token(text, message):
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text)
    assert str(err.value) == message

def chain_text(n):
    return " . ".join(f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(n))


def test_nesting_limit_counts_parentheses_and_chained_events():
    from protoforge.speclang import MAX_NESTING

    half = MAX_NESTING // 2
    at_limit = "(" * half + chain_text(MAX_NESTING - half) + " : 0.5" + ")" * half
    full = parse_spec("delta 0.3; cars A B; " + at_limit)
    # The tree walks recurse once per level and stay within the default limit.
    assert len(enumerate_sequences(full.protocol)[0].events) == MAX_NESTING - half
    assert well_posed(full.protocol).ok
    assert parse_spec(format_spec(full)) == full
    # One more parenthesis: the limit is passed at the chain's last event.
    deeper = "(" + at_limit + ")"
    with pytest.raises(SpecSyntaxError, match=f"nests deeper than {MAX_NESTING} levels") as exc:
        parse_spec("delta 0.3; cars A B;\n" + deeper)
    last = f"e{MAX_NESTING - half - 1} "
    assert (exc.value.line, exc.value.column) == (2, deeper.index(last) + 1)


def test_parse_comments_and_whitespace():
    text = "# header\ndelta 0.35; # inline\ncars A B;\nsnd A->B(d)\n  . (ack B->A : 0.7 | nack B->A : 0.8)\n"
    assert parse_spec(text) == parse_spec(EXAMPLE_TEXT)


def test_format_round_trip_example():
    full = parse_spec(EXAMPLE_TEXT)
    assert parse_spec(format_spec(full)) == full


def test_format_round_trip_random_trees():
    rng = random.Random(20250808)
    for _ in range(200):
        tree = random_tree(rng)
        text = f"delta 0.5; cars A B C; {format_protocol(tree)}"
        assert parse_spec(text).protocol == tree


def test_or_of_chain_round_trips():
    text = "delta 0; cars A B; (a A->B . b B->A : 0.5) | c A->B : 0.9"
    full = parse_spec(text)
    assert isinstance(full.protocol, Or)
    assert parse_spec(format_spec(full)) == full


def test_enumerate_sequences_example():
    full = parse_spec(EXAMPLE_TEXT)
    seqs = enumerate_sequences(full.protocol)
    assert set(seqs) == {
        PSequence((SND, ACK), 0.7),
        PSequence((SND, NACK), 0.8),
    }


def test_enumerate_single_leaf():
    assert enumerate_sequences(Leaf(SND, 0.5)) == [PSequence((SND,), 0.5)]


def test_enumerate_disjunction_is_set_union():
    a = GlobalEvent("a", "A", "B")
    tree = Or(Leaf(a, 0.1), Leaf(a, 0.2))
    assert set(enumerate_sequences(tree)) == {PSequence((a,), 0.1), PSequence((a,), 0.2)}
    # Identical leaves collapse.
    assert len(enumerate_sequences(Or(Leaf(a, 0.1), Leaf(a, 0.1)))) == 1


def test_enumerate_count_equals_distinct_leaves():
    rng = random.Random(7)
    for _ in range(100):
        tree = random_tree(rng)
        paths = set()

        def collect(node, prefix):
            if isinstance(node, Leaf):
                paths.add((prefix + (node.event,), node.p))
            elif isinstance(node, Seq):
                collect(node.rest, prefix + (node.event,))
            else:
                collect(node.left, prefix)
                collect(node.right, prefix)

        collect(tree, ())
        assert len(enumerate_sequences(tree)) == len(paths)


def test_satisfies_examples():
    full = parse_spec(EXAMPLE_TEXT)
    assert satisfies(PSequence((SND, ACK), 0.75), full.protocol)
    assert not satisfies(PSequence((SND, ACK), 0.65), full.protocol)
    assert not satisfies(PSequence((ACK, SND), 1.0), full.protocol)


def test_satisfies_rejects_extra_events():
    full = parse_spec(EXAMPLE_TEXT)
    other = GlobalEvent("zzz", "A", "B")
    assert not satisfies(PSequence((SND, ACK, other), 1.0), full.protocol)
    assert not satisfies(PSequence((SND,), 1.0), full.protocol)


def test_every_enumerated_sequence_satisfies():
    rng = random.Random(99)
    for _ in range(100):
        tree = random_tree(rng)
        for pseq in enumerate_sequences(tree):
            assert satisfies(pseq, tree)


def test_satisfaction_monotone_in_probability():
    rng = random.Random(4242)
    for _ in range(200):
        tree = random_tree(rng)
        for pseq in enumerate_sequences(tree):
            q = pseq.p + rng.random() * (1.0 - pseq.p)
            assert satisfies(PSequence(pseq.events, q), tree)


def test_well_posed_example():
    assert well_posed(parse_spec(EXAMPLE_TEXT).protocol).ok


def test_well_posed_rejects_single_event():
    report = well_posed(Leaf(GlobalEvent("e", "A", "B"), 0.5))
    assert not report.ok
    assert any("at least two events" in v.message for v in report.violations)


def test_well_posed_rejects_same_source_twice():
    tree = Seq(GlobalEvent("snd", "A", "B"), Leaf(GlobalEvent("ack", "A", "B"), 0.9))
    report = well_posed(tree)
    assert not report.ok
    assert any("take turns" in v.message for v in report.violations)


def test_well_posed_requires_strict_alternation_of_pairs():
    # Sources alternate but the dialogue drifts to a third car.
    tree = Seq(GlobalEvent("e1", "A", "B"), Leaf(GlobalEvent("e2", "B", "C"), 0.5))
    assert not well_posed(tree).ok


@pytest.mark.parametrize("body, message", [
    ("(a A->B . b B->A : 0.5) | a A->B . c B->A : 0.6",
     "alternatives at the root both begin with event 'a A->B'; write it once, before the '|'"),
    ("a A->B . ((b B->A . c A->B : 0.4) | b B->A . d A->B : 0.4)",
     "alternatives after path 'a' both begin with event 'b B->A'; write it once, before the '|'"),
    # A whole alternative repeated, under a different requirement.
    ("(e0 A->B . e1 B->A : 0.9) | e0 A->B . e1 B->A : 0.5",
     "alternatives at the root both begin with event 'e0 A->B'; write it once, before the '|'"),
    # Through nested disjunctions: a.b and a.c are two levels apart.
    ("((a A->B . b B->A : 0.5) | (c A->B . b B->A : 0.5)) | "
     "((d A->B . b B->A : 0.5) | (a A->B . c B->A : 0.3))",
     "alternatives at the root both begin with event 'a A->B'; write it once, before the '|'"),
    ("x A->B . (y B->A . ((u A->B . v B->A : 0.1) | (w A->B . v B->A : 0.2) | u A->B . z B->A : 0.3))",
     "alternatives after path 'x.y' both begin with event 'u A->B'; write it once, before the '|'"),
], ids=["at-the-root", "after-a", "repeated-alternative", "nested-at-the-root", "nested-after-x.y"])
def test_well_posed_rejects_alternatives_that_begin_alike(body, message):
    report = well_posed(parse_spec(f"delta 0.3; cars A B; {body}").protocol)
    assert [v.message for v in report.violations] == [message]


def test_well_posed_accepts_alternatives_that_begin_differently():
    # The factored form of the first rejected body above.
    assert well_posed(parse_spec("delta 0.3; cars A B; a A->B . (b B->A : 0.5 | c B->A : 0.6)")
                      .protocol).ok
    # The same name with other data is another event.
    assert well_posed(parse_spec("delta 0.3; cars A B; (a A->B(x) . b B->A : 0.5) | "
                                 "a A->B(y) . b B->A : 0.5").protocol).ok
