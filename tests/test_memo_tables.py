import pytest

from protoforge import bounds, parse_spec, solve_opt
from conftest import EXAMPLE_TEXT, MIXED_TEXT, memo_tables


def _chain(k, delta, p):
    events = " . ".join(f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(k))
    return f"delta {delta}; cars A B; {events} : {p}"


def test_every_memo_table_is_bounded():
    # A long-chain solve visits about a million bound vectors; a table
    # without a maxsize would keep every one of them.
    tables = memo_tables()
    assert {"protoforge.bounds._levels", "protoforge.bounds._sync_prob"} <= set(tables)
    unbounded = sorted(name for name, table in tables.items()
                       if table.cache_parameters()["maxsize"] is None)
    assert unbounded == []
    # The bounds module documents each of its two tables at 2^16 entries.
    solver = ("protoforge.bounds._levels", "protoforge.bounds._sync_prob")
    assert [tables[name].cache_parameters()["maxsize"] for name in solver] == [1 << 16] * 2


@pytest.mark.parametrize("text", [EXAMPLE_TEXT, MIXED_TEXT] + [
    _chain(k, delta, p) for k in (3, 4, 5) for delta, p in (("0.5", "0.51"), ("0.6", "0.49"))
], ids=["example", "mixed"] + [f"chain{k}-{d}" for k in (3, 4, 5) for d in ("0.5", "0.6")])
def test_solve_opt_is_the_same_cold_warm_and_after_each_clear(text):
    full = parse_spec(text)
    tables = memo_tables()
    for table in tables.values():
        table.cache_clear()
    cold = solve_opt(full.protocol, full.delta)
    assert isinstance(cold, dict)
    assert solve_opt(full.protocol, full.delta) == cold
    for name, table in tables.items():
        table.cache_clear()
        assert solve_opt(full.protocol, full.delta) == cold, name


@pytest.mark.parametrize("text", [_chain(4, "0.6", "0.49"), MIXED_TEXT], ids=["chain4", "mixed"])
def test_pair_memo_holds_only_two_event_sequences(text, monkeypatch):
    # _levels memoises every longer sequence already: a second copy in
    # _sync_prob would hold one entry per candidate vector of a long chain.
    # Each entry of _sync_prob is a pair that the closed form was called on.
    full = parse_spec(text)
    for table in memo_tables().values():
        table.cache_clear()
    pairs = set()
    closed_form = bounds.sync_prob_two

    def recorded(n1, n2, d):
        pairs.add((n1, n2, d))
        return closed_form(n1, n2, d)

    monkeypatch.setattr(bounds, "sync_prob_two", recorded)
    solve_opt(full.protocol, full.delta)
    assert bounds._levels.cache_info().currsize > 0
    assert bounds._sync_prob.cache_info().currsize == len(pairs)


@pytest.mark.parametrize("text, answer, table, stats", [
    (EXAMPLE_TEXT, (3, 1, 2), "_sync_prob", (18, 16)),
    (_chain(2, "0.6", "0.5"), (6, 2), "_sync_prob", (1, 14)),
    (_chain(3, "0.6", "0.5"), (9, 7, 3), "_levels", (40, 66)),
    (_chain(4, "0.6", "0.5"), (10, 9, 8, 3), "_levels", (167, 179)),
    (_chain(5, "0.6", "0.5"), (10, 10, 10, 9, 4), "_levels", (1543, 987)),
    (_chain(5, "0.5", "0.5"), (4, 4, 4, 4, 2), "_levels", (324, 328)),
    (_chain(6, "0.5", "0.5"), (4, 5, 5, 5, 4, 2), "_levels", (2858, 2082)),
    (_chain(5, "0.7", "0.342"), (13, 13, 13, 10, 2), "_levels", (4395, 2081)),
], ids=["example", "chain2-0.6", "chain3-0.6", "chain4-0.6", "chain5-0.6", "chain5-0.5",
        "chain6-0.5", "chain5-0.7"])
def test_cold_solve_does_pinned_work(text, answer, table, stats):
    # The memo hits and misses of a cold solve count the distinct bound
    # vectors it evaluates and how often it comes back to them: a change to
    # the search order or to its pruning moves them even when the answer
    # stays the same.
    full = parse_spec(text)
    for memo in memo_tables().values():
        memo.cache_clear()
    assert tuple(solve_opt(full.protocol, full.delta).values()) == answer
    info = getattr(bounds, table).cache_info()
    assert (info.hits, info.misses) == stats
