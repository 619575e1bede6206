import pytest

from protoforge import parse_spec, solve_opt
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
