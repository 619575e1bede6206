import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protoforge import (
    Infeasible,
    InvalidParams,
    MediumParams,
    NotWellPosed,
    drop_prob,
    feasibility_sweep,
    medium,
    parse_spec,
    solve_opt,
    sweep_csv,
)
from conftest import MIXED_TEXT, memo_tables, random_dialogue

# The CLI's default grid (1000 points) and a 16-point grid for a tree whose
# two sequences have different lengths.
DEFAULT_GRID = (
    list(range(2, 12)), [100.0 * k for k in range(1, 11)], [float(k) for k in range(1, 11)]
)
MIXED_GRID = ([2, 5, 8, 11], [100.0, 1000.0], [1.0, 10.0])


def test_two_cars_baseline():
    # r = 0, so delta = 1 / (1 + a).
    assert drop_prob(MediumParams(2, 500, 5)) == pytest.approx(0.2, abs=1e-12)


def test_zero_rate_makes_delta_constant():
    # With two cars no other car loads the medium: r = 0 whatever d_max and
    # tau_min are.
    for dm in (0, 10, 500, 1000):
        for tau in (0.5, 1, 7):
            assert MediumParams(2, dm, tau).rate == 0
            assert drop_prob(MediumParams(2, dm, tau)) == pytest.approx(0.2)


def test_delta_increases_toward_one():
    prev = 0.0
    for n in (2, 4, 8, 16):
        d = drop_prob(MediumParams(n, 1000, 1))
        assert prev < d < 1.0
        prev = d
    assert prev > 0.999


def test_delta_monotone_in_each_parameter():
    base = MediumParams(5, 400, 4)
    assert drop_prob(MediumParams(6, 400, 4)) > drop_prob(base)
    assert drop_prob(MediumParams(5, 500, 4)) > drop_prob(base)
    assert drop_prob(MediumParams(5, 400, 5)) < drop_prob(base)


def test_invalid_params():
    with pytest.raises(InvalidParams):
        MediumParams(1, 100, 1)
    with pytest.raises(InvalidParams):
        MediumParams(3, -1, 1)
    with pytest.raises(InvalidParams):
        MediumParams(3, 100, 0)


def test_single_point_sweep_realizable(example_spec):
    # At N=2 the drop bound is 0.2 and the published requirements are easy.
    rows = feasibility_sweep(example_spec.protocol, [2], [500.0], [5.0])
    assert len(rows) == 1
    row = rows[0]
    assert row.delta == pytest.approx(0.2)
    assert row.realizable
    assert row.sum_bounds is not None and row.sum_bounds > 0


def test_sweep_zero_requirements_always_realizable():
    spec = parse_spec("delta 0; cars A B; snd A->B(d) . ack B->A : 0")
    rows = feasibility_sweep(spec.protocol, [2, 50, 5000], [1000.0], [1.0])
    assert all(row.realizable and row.sum_bounds == 0 for row in rows)


def test_sweep_rejects_ill_posed():
    spec = parse_spec("delta 0; cars A B; e A->B : 0.5")
    with pytest.raises(NotWellPosed):
        feasibility_sweep(spec.protocol, [2], [1.0], [1.0])


def hard_spec():
    return parse_spec(
        "delta 0.35; cars A B; snd A->B(d) . (ack B->A : 0.9 | nack B->A : 0.9)"
    ).protocol


def test_sweep_flips_at_most_once_per_axis():
    spec = hard_spec()
    ns = [2, 3, 4, 5, 6, 7]
    dmaxes = [50.0, 100.0, 150.0, 200.0]
    taus = [1.0, 2.0, 3.0]
    rows = feasibility_sweep(spec, ns, dmaxes, taus)
    table = {(r.n_cars, r.d_max, r.tau_min): r.realizable for r in rows}
    seen_true = seen_false = False
    for dm in dmaxes:
        for tau in taus:
            line = [table[(n, dm, tau)] for n in ns]
            assert line == sorted(line, reverse=True)  # True..True False..False
            seen_true |= any(line)
            seen_false |= not all(line)
    for n in ns:
        for tau in taus:
            line = [table[(n, dm, tau)] for dm in dmaxes]
            assert line == sorted(line, reverse=True)
        for dm in dmaxes:
            line = [table[(n, dm, tau)] for tau in taus]
            assert line == sorted(line)  # realizability grows with slower load
    assert seen_true and seen_false  # the grid actually straddles the boundary


def test_csv_shape(example_spec):
    rows = feasibility_sweep(hard_spec(), [2, 40], [500.0], [1.0])
    csv = sweep_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "N,d_max,tau_min,r,delta,realizable,sum_bounds"
    assert len(lines) == 3
    assert lines[1].startswith("2,")
    feasible_cells = lines[1].split(",")
    assert feasible_cells[5] == "true"
    assert feasible_cells[6] != ""
    infeasible_cells = lines[2].split(",")
    assert infeasible_cells[5] == "false"
    assert infeasible_cells[6] == ""


def test_sweep_solves_each_distinct_delta_once(example_spec, monkeypatch):
    deltas = []
    solve = medium._solve

    def counted(events, constraints, delta, cap):
        deltas.append(delta)
        return solve(events, constraints, delta, cap)

    monkeypatch.setattr(medium, "_solve", counted)
    rows = feasibility_sweep(example_spec.protocol, *DEFAULT_GRID)
    assert len(rows) == 1000
    # 199 distinct deltas with 11 distinct answers: the bisection solves 34
    # of them, none twice.
    assert len({row.delta for row in rows}) == 199
    assert len(deltas) == len(set(deltas)) == 34


@pytest.mark.parametrize("text, grid", [(None, DEFAULT_GRID), (MIXED_TEXT, MIXED_GRID)],
                         ids=["example-default", "mixed-16"])
def test_sweep_rows_match_a_solve_per_point(example_spec, text, grid):
    spec = example_spec.protocol if text is None else parse_spec(text).protocol
    rows = feasibility_sweep(spec, *grid)
    assert [(row.n_cars, row.d_max, row.tau_min) for row in rows] == list(itertools.product(*grid))
    for row in rows:
        params = MediumParams(row.n_cars, row.d_max, row.tau_min)
        assert (row.rate, row.delta) == (params.rate, drop_prob(params))
        solved = solve_opt(spec, row.delta)
        ok = not isinstance(solved, Infeasible)
        assert (row.realizable, row.sum_bounds) == (ok, sum(solved.values()) if ok else None)


def test_sweep_reads_iterator_axes_once(example_spec):
    grid = ([2, 3], [100.0, 200.0], [1.0, 2.0])
    rows = feasibility_sweep(example_spec.protocol, *(iter(axis) for axis in grid))
    assert len(rows) == 8
    assert rows == feasibility_sweep(example_spec.protocol, *grid)


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["n", "dmax", "tau"])
def test_sweep_returns_no_rows_for_an_empty_axis(example_spec, axis):
    # No point, so nothing to validate: the other axes may hold invalid values.
    grid = [[1, 2], [-1.0, 100.0], [0.0, 1.0]]
    grid[axis] = []
    assert feasibility_sweep(example_spec.protocol, *grid) == []


def _first_point_error(grid):
    # What MediumParams raises at the first invalid point, in grid order.
    for point in itertools.product(*grid):
        try:
            MediumParams(*point)
        except InvalidParams as exc:
            return str(exc)
    return None


AXES = ([2, 3, 4], [0.0, 100.0, 200.0], [1.0, 2.0, 3.0])
REJECTED = (1, -1.0, 0.0)  # one value per axis outside its domain


@pytest.mark.parametrize("grid", [
    tuple([REJECTED[a] if (a, i) == (axis, pos) else v for i, v in enumerate(AXES[a])]
          for a in range(3))
    for axis in range(3) for pos in range(3)
] + [
    # Invalid values on several axes, in no order: the error names the first
    # invalid point in grid order, as checking every point would.
    ([3, 1, 0], [100.0, -5.0], [2.0, 0.0, -1.0]),
    ([3, 1], [100.0, -5.0], [2.0, 4.0]),
    ([3, 1], [-5.0, 100.0], [2.0, -1.0]),
    ([0, 3], [-5.0, 100.0], [-1.0, 2.0]),
    ([5, 2, 1], [10.0], [3.0, 1.0, 0.5]),
])
def test_sweep_rejects_an_invalid_value_anywhere_before_any_solve(example_spec, monkeypatch, grid):
    expected = _first_point_error(grid)
    assert expected is not None
    solves = []
    monkeypatch.setattr(medium, "_solve", lambda *args: solves.append(args))
    with pytest.raises(InvalidParams) as info:
        feasibility_sweep(example_spec.protocol, *grid)
    assert str(info.value) == expected
    assert solves == []


def test_default_grid_sweep_computes_each_closed_form_once(example_spec, monkeypatch):
    # Counts work rather than time.  With the solver's memo tables cold, the
    # sweep computes the two-event closed form once per distinct (n1, n2,
    # delta) at the 34 deltas it solves; a solve at each of the 199 distinct
    # deltas computed it 974 times.
    from protoforge import bounds

    for table in memo_tables().values():
        table.cache_clear()
    closed_form = bounds.sync_prob_two
    calls = []

    def counted(n1, n2, d):
        calls.append((n1, n2, d))
        return closed_form(n1, n2, d)

    monkeypatch.setattr(bounds, "sync_prob_two", counted)
    feasibility_sweep(example_spec.protocol, *DEFAULT_GRID)
    assert len(calls) == len(set(calls)) == 396


def _solved_per_delta(spec, grid, cap=medium.DEFAULT_CAP):
    # One solve per distinct delta, in grid order: the sweep's rows without
    # the bisection.
    events, constraints = medium._constraints(spec)
    outcome_at = {}
    rows = []
    for n, dm, tau in itertools.product(*grid):
        rate = medium._rate(n, dm, tau)
        delta = medium._logistic(rate)
        if delta not in outcome_at:
            solved = medium._solve(events, constraints, delta, cap)
            ok = not isinstance(solved, Infeasible)
            outcome_at[delta] = (ok, sum(solved.values()) if ok else None)
        rows.append(medium.SweepRow(n, dm, tau, rate, delta, *outcome_at[delta]))
    return rows


NAN_SPEC = "delta 0.3; cars A B; e0 A->B . e1 B->A : 0.1"


def _with_nan_at(index):
    dmaxes = [100.0 * k for k in range(12)]
    dmaxes.insert(index, math.nan)
    return [3], dmaxes, [1.0]


@pytest.mark.parametrize("grid", [_with_nan_at(index) for index in (0, 1, 2, 3, 12)] + [
    ([2, 3], [100.0, math.inf], [1.0]),  # N = 2 and d_max = inf give rate 0 * inf
    ([3, 2], [math.inf], [1.0]),
    ([3], [100.0], [1.0, math.nan]),
    ([math.nan, 3], [100.0], [1.0]),
], ids=[f"nan-dmax-{index}" for index in (0, 1, 2, 3, 12)]
   + ["n2-inf", "n2-inf-last", "nan-tau", "nan-n"])
def test_sweep_rejects_a_nan_delta_wherever_it_sorts(grid):
    # MediumParams accepts these points, and their NaN delta has no place in
    # the sorted order of deltas; the sweep raises what a solve there raises.
    with pytest.raises(ValueError) as info:
        feasibility_sweep(parse_spec(NAN_SPEC).protocol, *grid)
    assert str(info.value) == "drop probability nan outside [0, 1]"


def test_sweep_rejects_a_nan_delta_among_equal_answers():
    # Every finite delta here gives (True, 0), so a NaN delta that a sorted
    # order placed between two of them would take that answer unsolved.
    # Where a NaN lands in a set of floats follows its id, so the sweep runs
    # ten times, each with a new NaN delta.
    spec = parse_spec("delta 0.3; cars A B; e0 A->B . e1 B->A : 0").protocol
    dmaxes = [float(k) for k in range(200)]
    for index in range(0, 200, 20):
        with pytest.raises(ValueError) as info:
            feasibility_sweep(spec, [3], dmaxes[:index] + [math.nan] + dmaxes[index:], [1.0])
        assert str(info.value) == "drop probability nan outside [0, 1]"


def test_infinite_load_is_an_unrealizable_row():
    # d_max = inf with N > 2 gives rate inf and delta exactly 1.
    spec, grid = parse_spec(NAN_SPEC).protocol, ([3], [0.0, 100.0, math.inf], [1.0])
    rows = feasibility_sweep(spec, *grid)
    assert [(row.rate, row.realizable) for row in rows] == [
        (0.0, True), (100.0, True), (math.inf, False)]
    assert rows[-1].delta == 1.0
    assert rows == _solved_per_delta(spec, grid)


@pytest.mark.parametrize("grid", [
    ([3], [0.0, 100.0, math.nan], [1.0]),
    ([2], [math.inf], [1.0]),
    ([3], [0.0, 100.0], [1.0]),
], ids=["nan-later", "nan-only", "valid"])
def test_a_negative_cap_raises_before_anything_else(grid):
    with pytest.raises(ValueError) as info:
        feasibility_sweep(parse_spec(NAN_SPEC).protocol, *grid, cap=-1)
    assert str(info.value) == "cap must be nonnegative"


def test_a_negative_cap_over_no_points_returns_no_rows():
    assert feasibility_sweep(parse_spec(NAN_SPEC).protocol, [3], [], [1.0], cap=-1) == []


def _chain_text(k, p):
    events = " . ".join(f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(k))
    return f"delta 0.5; cars A B; {events} : {p}"


specs = st.one_of(
    st.builds(lambda k, p: parse_spec(_chain_text(k, p)).protocol,
              st.integers(2, 4), st.sampled_from(["0", "0.05", "0.3", "0.49", "0.6", "0.75",
                                                  "0.79", "0.95"])),
    st.builds(lambda seed: random_dialogue(random.Random(seed), max_events=5),
              st.integers(0, 10**6)),
)
axes = st.tuples(
    st.lists(st.integers(2, 12), min_size=1, max_size=4),
    st.lists(st.sampled_from([0.0, 50.0, 100.0, 250.0, 400.0, 1000.0]), min_size=1, max_size=4),
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 5.0]), min_size=1, max_size=3),
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(spec=specs, grid=axes)
@example(spec=parse_spec(_chain_text(2, "0.3")).protocol, grid=([5], [100.0], [1.0]))  # one point
@example(spec=parse_spec(_chain_text(3, "0.95")).protocol,  # unrealizable everywhere
         grid=([2, 6, 11], [100.0, 1000.0], [1.0, 2.0]))
@example(spec=parse_spec(_chain_text(2, "0.05")).protocol,  # realizable everywhere
         grid=([2, 6, 11], [100.0, 1000.0], [1.0, 2.0]))
@example(spec=parse_spec(_chain_text(4, "0.6")).protocol,  # repeated rates
         grid=([2, 2, 3, 4], [100.0, 200.0, 100.0], [1.0, 2.0]))
def test_sweep_rows_equal_a_solve_per_distinct_delta(spec, grid):
    assert feasibility_sweep(spec, *grid) == _solved_per_delta(spec, grid)


@pytest.mark.parametrize("cap, solves", [(0, 2), (1, 12)])
def test_sweep_solves_no_delta_twice_at_any_cap(example_spec, monkeypatch, cap, solves):
    deltas = []
    solve = medium._solve

    def counted(events, constraints, delta, cap):
        deltas.append(delta)
        return solve(events, constraints, delta, cap)

    monkeypatch.setattr(medium, "_solve", counted)
    rows = feasibility_sweep(example_spec.protocol, *DEFAULT_GRID, cap=cap)
    assert len(deltas) == len(set(deltas)) == solves
    monkeypatch.setattr(medium, "_solve", solve)
    assert rows == _solved_per_delta(example_spec.protocol, DEFAULT_GRID, cap)
