"""Property-based fuzzing of the two front ends: CSA files through `verify`
and `simulate`, and `.psl` descriptions through `check` and `synth`.

Every input must end in one of the documented exit codes (0/1/2/3) and never
in an exception; malformed input (exit 2) must leave stdout empty, and so
must an exhausted bound search (exit 3).
"""

import json
from decimal import Decimal

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protoforge.bounds import sync_prob
from protoforge.cli import main
from conftest import EXAMPLE_TEXT

KEYS = ("owner", "states", "id", "final", "init", "vars", "transitions", "from", "to",
        "label", "kind", "event", "name", "peer", "data", "special", "msg", "src", "dst",
        "cond", "var", "op", "bound")
WORDS = ("A", "B", "C", "s0", "s1", "s2", "nu", "m", "d", "snd", "ack", "<=", ">",
         "env", "sys", "fail", "success")

scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.sampled_from(WORDS)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=4),
    max_leaves=10,
)


def either(good):
    # Mostly well-formed pieces, so that many files get past the loader and
    # are explored; one piece in forty is arbitrary JSON.
    return st.integers(0, 39).flatmap(lambda k: json_values if k == 0 else good)


def rarely(common, rare):
    # One draw in eight from rare: here a list that repeats an entry (a state,
    # a counter, or a transition's source and label under another target),
    # which the loader must reject.
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else common)


def csa_doc(owner, other):
    state = st.sampled_from(("s0", "s1", "s2"))
    var = st.sampled_from(("nu", "mu"))
    car = st.sampled_from((other,) * 8 + (owner, "C"))
    event = either(st.fixed_dictionaries(
        {"name": st.sampled_from(("snd", "ack", "nack")), "peer": car,
         "kind": st.sampled_from(("env", "sys"))},
        optional={"data": st.sampled_from(("d", None)),
                  "special": st.sampled_from(("fail", "success"))},
    ))
    msg = either(st.fixed_dictionaries(
        {"id": st.sampled_from(("a", "b")), "src": car, "dst": car},
        optional={"data": st.just("d")},
    ))
    cond = either(st.fixed_dictionaries(
        {"var": var, "op": st.sampled_from(("<=", ">")), "bound": st.integers(0, 2)}))
    label = either(st.one_of(
        st.fixed_dictionaries({"kind": st.just("env"), "event": event}),
        st.fixed_dictionaries({"kind": st.just("sys-cond"), "event": event, "cond": cond}),
        st.fixed_dictionaries({"kind": st.just("timeout-sys"), "event": event}),
        st.fixed_dictionaries({"kind": st.just("timeout-upd"), "var": var}),
        st.fixed_dictionaries({"kind": st.just("broadcast"), "msg": msg, "cond": cond}),
        st.fixed_dictionaries({"kind": st.just("recv-sys"), "msg": msg, "event": event}),
        st.fixed_dictionaries({"kind": st.just("recv-upd"), "msg": msg, "var": var}),
    ))
    transition = st.fixed_dictionaries({"from": state, "to": state, "label": label})
    states = st.tuples(*(either(st.fixed_dictionaries({"id": st.just(s), "final": st.booleans()}))
                         for s in ("s0", "s1", "s2")))
    again = st.fixed_dictionaries({"id": state, "final": st.booleans()})
    twice = st.tuples(transition, state).map(lambda p: [p[0], dict(p[0], to=p[1])])
    return either(st.fixed_dictionaries({
        "owner": either(st.just(owner)),
        "states": either(rarely(states, st.tuples(states, again).map(lambda p: [*p[0], p[1]]))),
        "init": either(state),
        "vars": either(rarely(st.just(["nu", "mu"]), st.just(["nu", "mu", "nu"]))),
        "transitions": either(st.tuples(st.lists(either(transition), max_size=5),
                                        rarely(st.just([]), twice)).map(lambda p: p[0] + p[1])),
    }))


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=st.tuples(csa_doc("A", "B"), csa_doc("B", "A")))
def test_verify_on_arbitrary_csa_files_ends_in_an_exit_code(tmp_path, monkeypatch, capsys, docs):
    # A hand-written CSA may run without end; a small budget makes that exit 3.
    monkeypatch.setenv("PROTOFORGE_BUDGET", "2000")
    spec = tmp_path / "example.psl"
    spec.write_text(EXAMPLE_TEXT + "\n")
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"csa{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    for argv in (["verify"], ["simulate", "--runs", "5"],
                 ["simulate", "--runs", "5", "--traces", "--out", str(tmp_path / "traces")]):
        code = main([*argv, *paths, "--spec", str(spec)])
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert out == ""
        if argv == ["verify"] and code in (0, 1):
            achieved = [float(line.split("achieved ")[1].split(",")[0])
                        for line in out.splitlines() if "achieved " in line]
            assert achieved and all(0.0 <= a <= 1.0 for a in achieved)


# .psl text: mostly grammatical descriptions of up to six events, some nested
# in more parentheses than the parser accepts, well-posed chains at a drop
# bound near 1, and token soup or arbitrary text for the rest.  Requirements
# are drawn half the time near the supremum rho/(1 - delta*rho) of the drop
# bound, where the bound search runs longest.
def mostly(good, bad):
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(bad) if k == 0 else good)


psl_number = mostly(st.sampled_from(("0", "0.3", "0.5", "0.9", "1.0")), ("1.5", "0.3.3", "7"))
psl_delta = mostly(st.sampled_from(("0", "0.3", "0.5", "0.9", "1.0", "0.99", "0.999", "0.999999")),
                   ("1.5", "0.3.3", "7"))


def decimal_text(x):
    # The shortest decimal of x, without an exponent, as the grammar reads it.
    return format(Decimal(repr(x)), "f")


def near_sup(delta):
    # Requirements just below, at and just above the supremum at delta.
    rho = 1.0 - delta
    sup = rho / (1.0 - delta * rho)
    return st.sampled_from([decimal_text(min(1.0, sup * (1.0 - eps)))
                            for eps in (1e-2, 1e-6, 1e-12, 0.0)]
                           + [decimal_text(min(1.0, sup + 1e-12))])


def leaf_numbers(delta_text):
    try:
        delta = float(delta_text)
    except ValueError:
        return psl_number
    return st.one_of(psl_number, near_sup(delta)) if 0.0 <= delta <= 1.0 else psl_number


psl_event = st.builds(
    "{} {}{}".format,
    st.sampled_from(("e", "f", "g", "h", "snd", "ack")),
    mostly(st.sampled_from(("A->B", "B->A")), ("A->A", "B->C", "D->A")),
    mostly(st.sampled_from(("", "(d)")), ("()", "(d")),
)


def psl_phi(number):
    return st.recursive(
        st.builds("{} : {}".format, psl_event, number),
        lambda inner: st.one_of(
            st.builds("{} . {}".format, psl_event, inner),
            st.builds("({}) | {}".format, inner, inner),
            st.builds(lambda depth, phi: "(" * depth + phi + ")" * depth,
                      st.sampled_from((1, 2, 99, 150, 5000)), inner),
        ),
        max_leaves=6,
    )


def chain(delta, events, p):
    names = (f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(events))
    return f"delta {delta!r}; cars A B; " + " . ".join(names) + f" : {p}"


def near_one_chain(delta, events):
    # A well-posed chain that requires about its supremum or the value of
    # one all-n bound vector.
    exact = st.sampled_from((1, 8, 60, 300, 511)).map(
        lambda n: decimal_text(sync_prob([n] * events, delta)))
    return st.builds(chain, st.just(delta), st.just(events), st.one_of(near_sup(delta), exact))


psl_text = st.integers(0, 9).flatmap(lambda k: (
    st.text(max_size=40) if k == 0 else
    st.lists(st.sampled_from(("delta", "cars", "A", "B", ";", ".", ":", "|", "(", ")", "->",
                              "0.5", "e", "#")), max_size=30).map(" ".join) if k == 1 else
    st.sampled_from((0.9, 0.99, 0.999, 0.999999)).flatmap(
        lambda delta: st.integers(2, 5).flatmap(lambda n: near_one_chain(delta, n))) if k <= 5 else
    psl_delta.flatmap(lambda delta: st.builds(
        "delta {}; cars {}; {}".format, st.just(delta),
        mostly(st.just("A B"), ("A B C", "A", "A A")), psl_phi(leaf_numbers(delta))))
))


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=psl_text)
def test_check_on_arbitrary_psl_ends_in_an_exit_code(tmp_path, monkeypatch, capsys, text):
    # At the default cap a requirement near the supremum can take the bound
    # search through many candidate vectors; a small budget makes that exit 3.
    monkeypatch.setenv("PROTOFORGE_BUDGET", "100")
    spec = tmp_path / "fuzz.psl"
    spec.write_text(text, encoding="utf-8")
    for argv in (["check", "--cap", "2"], ["check"], ["synth", "--out", str(tmp_path / "out")]):
        code = main([*argv, "--spec", str(spec)])
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert out == ""
