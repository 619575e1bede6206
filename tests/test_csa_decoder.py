"""import_json against the reference decoder in `reference_decoder.py`.

Each test loads a text with both decoders and asserts the same outcome: an
equal `Csa`, or a `ValueError` with the same text.  The edited files are the
synthesized CSAs of the example, of a 3-event chain and of a 2-event chain
with bounds 0; every key of every object and every item of every list in
them is deleted, repeated, and replaced by another JSON value (each JSON
type, and values a constructor rejects).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings

import reference_decoder
from protoforge import (Condition, LocalEvent, Message, export_json, import_json, parse_spec,
                        synthesize_all, validate)
from protoforge import csa as csa_module
from conftest import CHAIN3_TEXT, EXAMPLE_TEXT
from test_csa import csas


class Obj(list):
    """A JSON object as its list of (key, value) pairs, so that a key can repeat."""


def parse_pairs(text: str):
    return json.loads(text, object_pairs_hook=Obj)


def dump(value) -> str:
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value)


def containers(value, path=()):
    """The path of every object and list in value: pair indices in objects,
    item indices in lists."""
    if isinstance(value, list):
        yield path
        for j, item in enumerate(value):
            yield from containers(item[1] if isinstance(value, Obj) else item, path + (j,))


def at(value, path):
    for step in path:
        value = value[step][1] if isinstance(value, Obj) else value[step]
    return value


# Every JSON type, and values that LocalEvent, Condition and the label kinds
# reject although their type is right.
REPLACEMENTS = ["x", "", "sys", "env", "fail", "<", ">", 0, 7, -1, True, False, None, 1.5, [],
                Obj(), Obj([("id", "s0")])]


def edits(text: str):
    """(what, edited text) for every key of every object of text, and every
    item of every list: deleted, repeated, or replaced.  Each edit is made in
    place and undone after its text is written."""
    doc = parse_pairs(text)
    for path in list(containers(doc)):
        container = at(doc, path)
        for j, entry in enumerate(list(container)):
            key, value = entry if isinstance(container, Obj) else (None, entry)
            del container[j]
            yield f"{path} {key!r} deleted", dump(doc)
            container.insert(j, entry)
            container.append(entry)
            yield f"{path} {key!r} repeated", dump(doc)
            container.pop()
            for new in REPLACEMENTS:
                if not (type(new) is type(value) and new == value):
                    container[j] = new if key is None else (key, new)
                    yield f"{path} {key!r} = {dump(new)}", dump(doc)
            container[j] = entry


def outcome(load, text):
    try:
        return load(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_outcome(text, what=""):
    got = outcome(import_json, text)
    assert got == outcome(reference_decoder.import_json, text), what
    if not isinstance(got, str):
        # The order the engine and the files use, whether or not the file
        # was already in it.
        assert got.ordered_transitions == dataclasses.replace(got).ordered_transitions, what
    return got


def synthesized_files():
    files = {}
    zero = "delta 0; cars A B; e0 A->B . e1 B->A : 1"  # bounds 0: guards nu<=0 and nu>0
    for name, text in (("example", EXAMPLE_TEXT), ("chain3", CHAIN3_TEXT), ("zero", zero)):
        result = synthesize_all(parse_spec(text))
        for car, csa in result.csas.items():
            files[f"{name}-{car}"] = export_json(csa)
    return files


FILES = synthesized_files()


@pytest.mark.parametrize("name", sorted(FILES))
def test_every_edit_of_a_key_meets_the_reference_outcome(name):
    text = FILES[name]
    loaded = assert_same_outcome(text)
    assert loaded == import_json(text) and not isinstance(loaded, str)
    errors, loads = set(), 0
    for what, edited in edits(text):
        got = assert_same_outcome(edited, what)
        if isinstance(got, str):
            errors.add(got)
        else:
            loads += 1
    # Each kind of problem occurs among the edits, and some edits load
    # (an optional key deleted or made null, a name changed).
    for part in ("is repeated in one object", "missing key", "must be of type",
                 "expected an object holding", "unknown transition kind",
                 "local event kind must be", "invalid CSA for"):
        assert any(part in e for e in errors), part
    if "example" not in name:
        assert any("condition bound must be nonnegative" in e for e in errors)
        assert any("condition operator must be" in e for e in errors)
    assert loads > 0


@pytest.mark.parametrize("text", [
    # a repeated key in an object no reader reads
    FILES["example-A"].replace('"owner": "A"', '"owner": "A", "note": {"k": 1, "k": 2}'),
    # a repeated key met before a syntax error, and after one
    FILES["example-A"].replace('"init": "s0"', '"init": "s0", "init": "s1"') + "x",
    "{" + FILES["example-A"][1:].replace('"init": "s0",', '"init": "s0" "x": 1,', 1)
    .replace('"owner": "A"', '"owner": "A", "owner": "A"'),
    # a repeated key before a missing one, and before a duplicate transition
    FILES["example-A"].replace('"init": "s0"', '"vars": []')
    .replace('"id": "s0"', '"id": "s0", "id": "s0"'),
    FILES["example-A"].replace('"kind": "env"\n', '"kind": "env", "kind": "env"\n', 1),
    # deep nesting, with and without a repeated key before it
    '{"owner": "A", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"a": 1, "a": 2, "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    # keys no reader reads, ':' inside names, explicit nulls, another layout
    FILES["example-A"].replace('"final": false', '"final": false, "x": [{"y": 1}]'),
    FILES["example-A"].replace('"s1"', '"s:1"').replace('"nu_snd"', '"nu:snd"'),
    FILES["example-B"].replace('"kind": "sys"', '"kind": "sys", "data": null, "special": null'),
    json.dumps(json.loads(FILES["example-B"])),
    json.dumps(json.loads(FILES["chain3-A"]), indent="\t", separators=(" ,", " : ")),
    # transitions out of order
    dump(Obj((k, v[::-1] if k == "transitions" else v)
             for k, v in parse_pairs(FILES["chain3-B"]))),
], ids=["unread-object", "before-syntax-error", "after-syntax-error", "before-missing-key",
        "before-duplicate-transition", "deep", "repeated-then-deep", "unread-keys", "colons",
        "nulls", "compact", "other-separators", "out-of-order"])
def test_texts_off_the_written_layout_meet_the_reference_outcome(text):
    assert_same_outcome(text)


def test_written_files_are_read_once_at_once(monkeypatch):
    # A file as export_json writes it passes every check at once: it is
    # parsed once, _get reads only the document's five keys, every event,
    # message and condition is made without its constructor (which runs only
    # to report a problem), and the file's order is kept without a sort.
    loaded = {name: import_json(text) for name, text in FILES.items()}
    get, reads = csa_module._get, []

    def counted_get(obj, key, *args, **kwargs):
        reads.append(key)
        return get(obj, key, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a written file was parsed again or built through a constructor")

    monkeypatch.setattr(csa_module, "_get", counted_get)
    monkeypatch.setattr(csa_module, "_parse", refuse)
    for cls in (LocalEvent, Message, Condition):
        monkeypatch.setattr(cls, "__init__", refuse)
    for name, text in FILES.items():
        reads.clear()
        csa = import_json(text)
        assert csa == loaded[name] and "ordered_transitions" in vars(csa)
        assert sorted(reads) == ["init", "owner", "states", "transitions", "vars"]


def test_bytes_load_as_their_text_does():
    for text in FILES.values():
        assert import_json(text.encode()) == import_json(text)
        assert import_json(text.encode("utf-16")) == import_json(text)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(csas)
def test_written_files_meet_the_reference_outcome(csa):
    got = assert_same_outcome(export_json(csa))
    if validate(csa).ok:  # else a final state outside the states is not in the file
        assert got == csa and got.ordered_transitions == csa.ordered_transitions
