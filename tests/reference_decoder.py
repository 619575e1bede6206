"""A reference CSA file decoder, for tests: `csa.import_json` as it read files
key by key through one checked getter, `_get`.

It parses with a hook that rejects a repeated key in any object, reads every
key with its type checked in a fixed order, and builds each event, message,
condition and label through its constructor.  Tests assert that
`import_json` gives the same `Csa` as `import_json` here, or raises a
`ValueError` with the same text.
"""

import json

from protoforge.csa import (
    _BY_KIND,
    Condition,
    Csa,
    LocalEvent,
    Message,
    TransitionLabel,
    _repeated,
    label_text,
    validate,
)


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


def _msg_from_json(obj: dict) -> Message:
    return Message(_get(obj, "id", str), _get(obj, "src", str), _get(obj, "dst", str),
                   _get(obj, "data", str, optional=True))


def _cond_from_json(obj: dict) -> Condition:
    return Condition(_get(obj, "var", str), _get(obj, "op", str), _get(obj, "bound", int))


_LOAD = {"event": (dict, _event_from_json), "msg": (dict, _msg_from_json),
         "cond": (dict, _cond_from_json), "var": (str, str)}


def _label_from_json(obj: dict) -> TransitionLabel:
    kind = _get(obj, "kind", str)
    cls = _BY_KIND.get(kind)
    if cls is None:
        raise ValueError(f"unknown transition kind {kind!r}")
    return cls(*[_LOAD[key][1](_get(obj, key, _LOAD[key][0])) for key in cls.__match_args__])


def _object(pairs: list) -> dict:
    # json's object hook: a repeated key would otherwise keep its last value.
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = _repeated(tuple(k for k, _ in pairs))[0]
        raise ValueError(f"key {key!r} is repeated in one object")
    return doc


def import_json(text: str) -> Csa:
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
