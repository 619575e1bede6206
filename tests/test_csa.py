import dataclasses
import json
import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protoforge import (
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
    export_dot,
    export_json,
    import_json,
    isomorphic,
    synthesize_for_car,
    validate,
)
from protoforge.csa import _PARTS, _sort_text, json_text
from protoforge.speclang import events_of
from conftest import reference_receiver, reference_sender, random_dialogue


def one_state(owner="C", final=True) -> Csa:
    return Csa(owner, ("s0",), (), "s0", frozenset({"s0"} if final else ()), {})


def rename(csa: Csa, state_prefix="q", var_prefix="v", msg_prefix="w") -> Csa:
    smap = {s: f"{state_prefix}{i}" for i, s in enumerate(csa.states)}
    vmap = {v: f"{var_prefix}{i}" for i, v in enumerate(csa.vars)}
    msgs = sorted({l.msg.id for (_, l) in csa.transitions
                   if hasattr(l, "msg")})
    mmap = {m: f"{msg_prefix}{i}" for i, m in enumerate(msgs)}

    def fix_msg(m: Message) -> Message:
        return Message(mmap[m.id], m.src, m.dst, m.data)

    def fix(label):
        if isinstance(label, BroadcastCond):
            return BroadcastCond(fix_msg(label.msg),
                                 Condition(vmap[label.cond.var], label.cond.op, label.cond.bound))
        if isinstance(label, SysCond):
            return SysCond(label.event,
                           Condition(vmap[label.cond.var], label.cond.op, label.cond.bound))
        if hasattr(label, "msg") and hasattr(label, "var"):
            return type(label)(fix_msg(label.msg), vmap[label.var])
        if hasattr(label, "msg"):
            return type(label)(fix_msg(label.msg), label.event)
        if hasattr(label, "var"):
            return type(label)(vmap[label.var])
        return label

    return Csa(
        owner=csa.owner,
        states=tuple(smap[s] for s in csa.states),
        vars=tuple(vmap[v] for v in csa.vars),
        init=smap[csa.init],
        finals=frozenset(smap[s] for s in csa.finals),
        transitions={(smap[src], fix(label)): smap[dst]
                     for (src, label), dst in csa.transitions.items()},
    )


def test_validate_reference_automata():
    assert validate(reference_sender()).ok
    assert validate(reference_receiver()).ok


def test_validate_dangling_state():
    csa = Csa("A", ("s0",), (), "s0", frozenset(),
              {("s0", EnvEvent(LocalEvent("e", "B", None, "env"))): "nowhere"})
    report = validate(csa)
    assert not report.ok
    assert any("nowhere" in p for p in report.problems)


def test_validate_undeclared_counter():
    csa = Csa("A", ("s0", "s1"), (), "s0", frozenset(),
              {("s0", BroadcastCond(Message("m", "A", "B"), Condition("ghost", "<=", 1))): "s1"})
    report = validate(csa)
    assert not report.ok
    assert any("ghost" in p for p in report.problems)


def test_validate_peer_equals_owner():
    csa = Csa("A", ("s0", "s1"), (), "s0", frozenset(),
              {("s0", EnvEvent(LocalEvent("e", "A", None, "env"))): "s1"})
    assert not validate(csa).ok


def test_validate_undeclared_final_state():
    report = validate(Csa("A", ("s0",), (), "s0", frozenset({"s0", "gone"}), {}))
    assert report.problems == ("final state 'gone' is not declared",)


def test_validate_undeclared_transition_source():
    csa = Csa("A", ("s0",), (), "s0", frozenset(),
              {("from", EnvEvent(LocalEvent("e", "B", None, "env"))): "s0"})
    assert validate(csa).problems == ("transition source 'from' is not a declared state",)


def test_validate_lists_transition_problems_in_the_one_order():
    # Whatever order a file lists them in, as import_json's message does.
    go = EnvEvent(LocalEvent("e", "B", None, "env"))
    text = export_json(Csa("A", ("s0", "s1"), (), "s0", frozenset(), {("s0", go): "s1"}))
    doc = json.loads(text)
    doc["transitions"] = [{"from": "s1", "to": "y", "label": doc["transitions"][0]["label"]},
                          {"from": "s0", "to": "x", "label": doc["transitions"][0]["label"]}]
    with pytest.raises(ValueError) as exc:
        import_json(json.dumps(doc))
    assert str(exc.value) == ("invalid CSA for 'A': transition target 'x' is not a declared "
                              "state; transition target 'y' is not a declared state")


@pytest.mark.parametrize("call, message", [
    (lambda: Condition("nu", "<", 1), "condition operator must be '<=' or '>', got '<'"),
    (lambda: Condition("nu", "<=", -1), "condition bound must be nonnegative, got -1"),
    (lambda: LocalEvent("e", "B", None, "upcall"),
     "local event kind must be 'env' or 'sys', got 'upcall'"),
    (lambda: LocalEvent("e", "B", None, "sys", "done"), "unknown special tag 'done'"),
    (lambda: LocalEvent("e", "B", None, "env", "fail"), "fail events are system-triggered"),
], ids=["condition-operator", "negative-bound", "event-kind", "special-tag",
        "env-with-special"])
def test_label_part_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_isomorphic_up_to_renaming():
    sender = reference_sender()
    assert isomorphic(sender, rename(sender))
    receiver = reference_receiver()
    assert isomorphic(receiver, rename(receiver))


def test_isomorphic_distinguishes_sender_receiver():
    assert not isomorphic(reference_sender(), reference_receiver())


def test_isomorphic_checks_finals():
    assert not isomorphic(one_state(final=True), one_state(final=False))
    assert isomorphic(one_state(final=True), one_state(final=True))


def with_unreachable(states, finals, edge) -> Csa:
    # Init s0 and states that nothing reaches, with one edge src -e-> dst.
    src, dst = edge
    return Csa("C", ("s0",) + states, (), "s0", frozenset(finals),
               {(src, EnvEvent(LocalEvent("e", "D", None, "env"))): dst})


def test_isomorphic_pairs_up_unreachable_states():
    a = with_unreachable(("u0", "u1"), {"s0", "u1"}, ("u0", "u1"))
    b = with_unreachable(("t1", "t0"), {"s0", "t1"}, ("t0", "t1"))
    assert isomorphic(a, b) and isomorphic(b, a)
    c = rename(a)
    assert isomorphic(a, c) and isomorphic(c, a)


def test_isomorphic_checks_finals_of_unreachable_states():
    # Same counts of states, finals and transitions, but the unreachable
    # edge leaves a final state in a and a non-final one in b, whose final
    # state is the isolated one.
    a = with_unreachable(("u0", "u1", "u2"), {"u0"}, ("u0", "u1"))
    b = with_unreachable(("t0", "t1", "t2"), {"t2"}, ("t0", "t1"))
    assert not isomorphic(a, b) and not isomorphic(b, a)


def two_states(*edges) -> Csa:
    # States s0 (init) and s1 (final), one src -name-> dst edge per triple.
    return Csa("C", ("s0", "s1"), (), "s0", frozenset({"s1"}),
               {(src, EnvEvent(LocalEvent(name, "D", None, "env"))): dst
                for src, name, dst in edges})


def test_isomorphic_checks_transition_counts():
    a = two_states(("s0", "e", "s1"))
    b = two_states(("s0", "e", "s1"), ("s1", "f", "s1"))
    assert isomorphic(a, b) is False and isomorphic(b, a) is False


def test_isomorphic_checks_targets_already_paired():
    # The f edges have the same shape, but a's goes back to s0 while b's
    # stays at s1, which is already paired with a's s1.
    a = two_states(("s0", "e", "s1"), ("s1", "f", "s0"))
    b = two_states(("s0", "e", "s1"), ("s1", "f", "s1"))
    assert isomorphic(a, b) is False and isomorphic(b, a) is False


def test_isomorphic_checks_bounds_in_conditions():
    assert not isomorphic(reference_sender(n_snd=3), reference_sender(n_snd=2))


def test_isomorphic_is_equivalence_relation():
    rng = random.Random(31337)
    for _ in range(20):
        tree = random_dialogue(rng)
        bounds = {e: rng.randint(0, 3) for e in events_of(tree)}
        car = rng.choice(["A", "B"])
        x = synthesize_for_car(tree, car, bounds)
        y = rename(x, "q", "v", "w")
        z = rename(y, "r", "u", "k")
        assert isomorphic(x, x)
        assert isomorphic(x, y) and isomorphic(y, x)
        assert isomorphic(y, z)
        assert isomorphic(x, z)


def test_non_isomorphic_random_pairs():
    rng = random.Random(77)
    for _ in range(10):
        tree = random_dialogue(rng)
        bounds = {e: 1 for e in events_of(tree)}
        a = synthesize_for_car(tree, "A", bounds)
        b = synthesize_for_car(tree, "B", bounds)
        if len(a.states) != len(b.states):
            assert not isomorphic(a, b)


def test_isomorphic_requires_backtracking_over_counter_bindings():
    # Two timeout edges with identical shapes force a choice of counter
    # pairing that only downstream bounds disambiguate.
    def machine(owner, v1, v2, states):
        s0, s1, s2, s3, s4 = states
        return Csa(
            owner=owner,
            states=tuple(states),
            vars=(v1, v2),
            init=s0,
            finals=frozenset({s3, s4}),
            transitions={
                (s0, TimeoutUpd(v1)): s1,
                (s0, TimeoutUpd(v2)): s2,
                (s1, SysCond(LocalEvent("e", "B", None, "sys"), Condition(v1, "<=", 1))): s3,
                (s2, SysCond(LocalEvent("f", "B", None, "sys"), Condition(v2, "<=", 2))): s4,
            },
        )

    x = machine("A", "p", "q", ["s0", "s1", "s2", "s3", "s4"])
    # Same structure with the counters declared in the opposite order, so a
    # greedy first pairing is wrong.
    y = machine("A", "k2", "k1", ["t0", "t1", "t2", "t3", "t4"])
    assert isomorphic(x, y)
    # Swapping the bounds breaks every pairing.
    z = Csa(
        owner="A",
        states=("u0", "u1", "u2", "u3", "u4"),
        vars=("m1", "m2"),
        init="u0",
        finals=frozenset({"u3", "u4"}),
        transitions={
            ("u0", TimeoutUpd("m1")): "u1",
            ("u0", TimeoutUpd("m2")): "u2",
            ("u1", SysCond(LocalEvent("e", "B", None, "sys"), Condition("m1", "<=", 2))): "u3",
            ("u2", SysCond(LocalEvent("f", "B", None, "sys"), Condition("m2", "<=", 2))): "u4",
        },
    )
    assert not isomorphic(x, z)


def test_json_round_trip_is_identity():
    for csa in (reference_sender(), reference_receiver(), one_state()):
        assert import_json(export_json(csa)) == csa


def test_json_round_trip_synthesized():
    rng = random.Random(5)
    for _ in range(10):
        tree = random_dialogue(rng)
        bounds = {e: rng.randint(0, 4) for e in events_of(tree)}
        csa = synthesize_for_car(tree, "A", bounds)
        assert import_json(export_json(csa)) == csa


@pytest.mark.parametrize("label, text, dot", [
    (EnvEvent(LocalEvent("snd", "B", "d", "env")),
     '{"kind": "env", "event": {"name": "snd", "peer": "B", "kind": "env", "data": "d"}}',
     "env snd->B(d)"),
    (SysCond(LocalEvent("snd", "B", None, "sys", "fail"), Condition("nu", ">", 2)),
     '{"kind": "sys-cond", "event": {"name": "snd", "peer": "B", "kind": "sys", '
     '"special": "fail"}, "cond": {"var": "nu", "op": ">", "bound": 2}}',
     "sys fail_snd<-B [nu>2]"),
    (TimeoutSys(LocalEvent("ack", "B", "d", "sys", "success")),
     '{"kind": "timeout-sys", "event": {"name": "ack", "peer": "B", "kind": "sys", '
     '"data": "d", "special": "success"}}',
     "T.O. / sys success_ack<-B(d)"),
    (TimeoutUpd("nu"), '{"kind": "timeout-upd", "var": "nu"}', "T.O. / nu++"),
    (BroadcastCond(Message("m", "A", "B", "d"), Condition("nu", "<=", 0)),
     '{"kind": "broadcast", "msg": {"id": "m", "src": "A", "dst": "B", "data": "d"}, '
     '"cond": {"var": "nu", "op": "<=", "bound": 0}}',
     "!m_A->B(d) [nu<=0]"),
    (RecvSys(Message("k", "B", "A"), LocalEvent("ack", "B", None, "sys")),
     '{"kind": "recv-sys", "msg": {"id": "k", "src": "B", "dst": "A"}, '
     '"event": {"name": "ack", "peer": "B", "kind": "sys"}}',
     "?k_B->A / sys ack<-B"),
    (RecvUpd(Message("k", "B", "A"), "nu"),
     '{"kind": "recv-upd", "msg": {"id": "k", "src": "B", "dst": "A"}, "var": "nu"}',
     "?k_B->A / nu++"),
], ids=["env", "sys-cond", "timeout-sys", "timeout-upd", "broadcast", "recv-sys", "recv-upd"])
def test_each_label_kind_has_one_file_and_dot_form(label, text, dot):
    csa = Csa("A", ("s0", "s1"), ("nu",), "s0", frozenset({"s1"}), {("s0", label): "s1"})
    doc = json.loads(export_json(csa))
    assert json.dumps(doc["transitions"][0]["label"]) == text
    assert f'  "s0" -> "s1" [label="{dot}"];' in export_dot(csa).splitlines()
    assert import_json(export_json(csa)) == csa

    def load_with(label_doc):
        doc["transitions"][0]["label"] = label_doc
        with pytest.raises(ValueError) as exc:
            import_json(json.dumps(doc))
        return str(exc.value)

    for key in list(json.loads(text))[1:]:
        label_doc = json.loads(text)
        del label_doc[key]
        assert load_with(label_doc) == f"transition 0: missing key {key!r}"
    assert load_with(dict(json.loads(text), kind="x")) == (
        "transition 0: unknown transition kind 'x'")


def reference_json(csa: Csa) -> str:
    # The file as the stdlib's indenting encoder writes export_json's document,
    # its transitions sorted here rather than read from the CSA's cached order.
    doc = {
        "owner": csa.owner,
        "states": [{"id": s, "final": s in csa.finals} for s in csa.states],
        "init": csa.init,
        "vars": list(csa.vars),
        "transitions": [
            {"from": src, "to": dst,
             "label": {"kind": label.kind, **{name: _PARTS[name].dump(getattr(label, name))
                                              for name in label.__match_args__}}}
            for (src, label), dst in sorted(csa.transitions.items(),
                                            key=lambda kv: (kv[0][0], str(kv[0][1])))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# Names mix arbitrary text with the characters a JSON writer must escape:
# quotes, backslashes, control characters and non-ASCII, astral included.
names = st.text(max_size=6) | st.text('"\\/\x00\x1f\x7f\n\té€\u2028\U0001f697ab', max_size=6)
optional_names = st.none() | names
local_events = (
    st.builds(LocalEvent, names, names, optional_names, st.sampled_from(["env", "sys"]))
    | st.builds(LocalEvent, names, names, optional_names, st.just("sys"),
                st.sampled_from(["fail", "success"])))
messages = st.builds(Message, names, names, names, optional_names)
conditions = st.builds(Condition, names, st.sampled_from(["<=", ">"]), st.integers(0, 2**70))
label_kinds = (
    st.builds(EnvEvent, local_events),
    st.builds(SysCond, local_events, conditions),
    st.builds(TimeoutSys, local_events),
    st.builds(TimeoutUpd, names),
    st.builds(BroadcastCond, messages, conditions),
    st.builds(RecvSys, messages, local_events),
    st.builds(RecvUpd, messages, names),
)
labels = st.one_of(*label_kinds)
csas = st.builds(
    Csa, names, st.lists(names, max_size=5).map(tuple), st.lists(names, max_size=3).map(tuple),
    names, st.frozensets(names, max_size=3),
    st.dictionaries(st.tuples(names, labels), names, max_size=6))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(csas)
@example(Csa("", (), (), "", frozenset(), {}))
def test_export_json_writes_what_the_stdlib_writes(csa):
    assert export_json(csa) == reference_json(csa)


@pytest.mark.parametrize("kind", range(len(label_kinds)))
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_sort_text_orders_labels_as_their_repr_does(kind, data):
    # Transitions are sorted by the sort text, written out per kind; files and
    # the engine's move order depend on that order being str(label)'s.
    batch = (data.draw(st.lists(label_kinds[kind], min_size=1, max_size=4))
             + data.draw(st.lists(labels, max_size=4)))
    assert [_sort_text(label) for label in batch] == [str(label) for label in batch]
    assert sorted(batch, key=_sort_text) == sorted(batch, key=str)


def test_sort_text_of_a_label_subclass_is_its_repr():
    @dataclass(frozen=True)
    class Tagged(TimeoutUpd):
        tag: int = 0

    label = Tagged("nu", 3)
    assert _sort_text(label) == str(label) == repr(label)


def canonical(transitions: dict) -> list:
    # The one order of a CSA's transitions: by source state, then str(label).
    return sorted(transitions.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(csas, st.randoms(use_true_random=False))
def test_transitions_are_held_in_one_order_whatever_order_they_come_in(csa, rnd):
    pairs = list(csa.transitions.items())
    rnd.shuffle(pairs)
    shuffled = dataclasses.replace(csa, transitions=dict(pairs))
    assert list(shuffled.transitions.items()) == canonical(csa.transitions)
    assert list(csa.transitions.items()) == canonical(csa.transitions)


def test_labels_of_other_classes_are_ordered_by_their_text():
    # A label class of its own whose text does not begin with its name: two
    # labels of two classes compare by class name only when both are of the
    # seven kinds.
    @dataclass(frozen=True)
    class Other(TimeoutUpd):
        shown: str = ""

        def __str__(self):
            return self.shown

    event = LocalEvent("go", "B")
    for first, second in ((Other("nu", "~ after every repr"), TimeoutUpd("nu")),
                          (EnvEvent(event), Other("nu", "! before every repr"))):
        csa = Csa("A", ("s0",), ("nu",), "s0", frozenset(),
                  {("s0", first): "s0", ("s0", second): "s0"})
        assert [label for _, label in csa.transitions] == [second, first]


flat_docs = st.dictionaries(names, st.booleans() | st.integers() | names, max_size=6)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(flat_docs)
@example({})
def test_json_text_writes_what_the_stdlib_writes(doc):
    assert json_text(doc) + "\n" == json.dumps(doc, indent=2) + "\n"


# Nested objects and lists are written by export_json around json_text, never by it.
@pytest.mark.parametrize("doc", [{"a": None}, {"a": 1.5}, {"a": (1, 2)}, {1: "a"}, {"a": {}},
                                 {"a": []}],
                         ids=["null", "float", "tuple", "int-key", "object", "list"])
def test_json_text_rejects_what_csa_files_never_hold(doc):
    with pytest.raises(TypeError):
        json_text(doc)


def test_dot_single_state():
    dot = export_dot(one_state())
    assert dot.count("->") == 0
    assert '"s0"' in dot
    assert "peripheries=2" in dot  # initial state is doubly circled
    assert "style=dotted" in dot


def test_dot_sender_counts():
    # 6 nodes and 6 labelled edges, confirmed against the synthesized sender.
    dot = export_dot(reference_sender())
    edges = [line for line in dot.splitlines() if "->" in line and "label=" in line]
    nodes = [line for line in dot.splitlines()
             if line.strip().startswith('"') and "->" not in line]
    assert len(edges) == 6
    assert len(nodes) == 6


def test_dot_deterministic():
    assert export_dot(reference_receiver()) == export_dot(reference_receiver())
