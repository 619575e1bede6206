"""Map physical scenario parameters to a drop-probability bound and sweep
realizability over parameter grids.

The worst-case data rate on the shared medium is r = (N - 2) * d_max / tau_min
(the two communicating cars are excluded from the N sharing it), and the drop
probability follows one logistic curve with fixed constants, SIGMOID_SCALE a
and SIGMOID_RATE b: delta(r) = 1 / (1 + a * exp(-b * r)), which grows from
1/(1 + a) = 0.2 at r = 0 toward 1 under load.

`feasibility_sweep` reads each axis once into a list and validates the axes,
not the points: every `MediumParams` check bounds one field from below, so
len(N) + len(d_max) + len(tau_min) parameter sets find the grid's first
invalid point, and they are all checked before the first solve.  Rows are
NamedTuples.

delta depends only on r, and many grid points share an r: the default
1000-point grid of the CLI has 199 distinct deltas and 11 distinct answers.
The sweep solves only where the answer can change.  A larger drop probability
lowers every sequence's synchronization probability, so as delta rises the
least total of the bounds never falls, and once no bounds within the cap meet
the requirements, none do at any larger delta.  Two solves that agree on
(realizable, sum_bounds) therefore give that answer to every delta between
them.  The sweep solves the least and the greatest distinct delta and bisects
each range whose ends differ: 34 solves on the example's default grid.  The
solver decides `value >= p` in floats, and at an exactly attainable
requirement it can return a non-minimal total; a row filled in between two
solves is then exactly as trustworthy as the two solves that bracket it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .bounds import DEFAULT_CAP, Infeasible, _constraints, _solve
from .errors import InvalidParams
from .speclang import SpecNode

SIGMOID_SCALE = 4.0
SIGMOID_RATE = 0.002


@dataclass(frozen=True)
class MediumParams:
    n_cars: int
    d_max: float
    tau_min: float

    def __post_init__(self):
        if self.n_cars < 2:
            raise InvalidParams(f"need at least two cars, got {self.n_cars}")
        if self.d_max < 0:
            raise InvalidParams(f"data length must be nonnegative, got {self.d_max}")
        if self.tau_min <= 0:
            raise InvalidParams(f"minimum delay must be positive, got {self.tau_min}")

    @property
    def rate(self) -> float:
        return _rate(self.n_cars, self.d_max, self.tau_min)


def _rate(n_cars, d_max, tau_min) -> float:
    return (n_cars - 2) * d_max / tau_min


def _logistic(rate) -> float:
    return 1.0 / (1.0 + SIGMOID_SCALE * math.exp(-SIGMOID_RATE * rate))


def drop_prob(params: MediumParams) -> float:
    """Drop probability 1 / (1 + a * exp(-b * r)); always strictly inside (0, 1)."""
    return _logistic(params.rate)


class SweepRow(NamedTuple):
    n_cars: int
    d_max: float
    tau_min: float
    rate: float
    delta: float
    realizable: bool
    sum_bounds: Optional[int]


def feasibility_sweep(
    spec: SpecNode,
    grid_n: Iterable[int],
    grid_dmax: Iterable[float],
    grid_tau: Iterable[float],
    cap: int = DEFAULT_CAP,
) -> list[SweepRow]:
    """Realizability of the specification at every grid point, in grid order."""
    grid_n, grid_dmax, grid_tau = list(grid_n), list(grid_dmax), list(grid_tau)
    events, constraints = _constraints(spec)
    if grid_n and grid_dmax and grid_tau:
        _check_axes(grid_n, grid_dmax, grid_tau)
    points = []
    for n in grid_n:
        for dm in grid_dmax:
            for tau in grid_tau:
                rate = _rate(n, dm, tau)
                delta = _logistic(rate)
                # A NaN delta (d_max = inf at N = 2, or a NaN axis value) has
                # no place in the sorted order, and a negative cap fails at
                # the first point: a solve here raises what one solve per
                # point raised.
                if math.isnan(delta) or (cap < 0 and not points):
                    _solve(events, constraints, delta, cap)
                points.append((n, dm, tau, rate, delta))
    outcome_at = _outcomes(events, constraints, sorted({point[4] for point in points}), cap)
    return [SweepRow(*point, *outcome_at[point[4]]) for point in points]


def _outcomes(events: list, constraints: list, deltas: list, cap: int) -> dict:
    """(realizable, sum_bounds) at each of the ascending distinct deltas."""
    outcomes: list = [None] * len(deltas)

    def solve(i):
        solved = _solve(events, constraints, deltas[i], cap)
        ok = not isinstance(solved, Infeasible)
        outcomes[i] = (ok, sum(solved.values()) if ok else None)

    if deltas:
        last = len(deltas) - 1
        solve(0)
        if last:
            solve(last)
        ranges = [(0, last)]
        while ranges:
            lo, hi = ranges.pop()
            if hi - lo < 2:  # no delta strictly inside
                continue
            if outcomes[lo] == outcomes[hi]:
                outcomes[lo + 1:hi] = [outcomes[lo]] * (hi - lo - 1)
            else:
                mid = (lo + hi) // 2
                solve(mid)
                ranges += [(lo, mid), (mid, hi)]
    return dict(zip(deltas, outcomes))


def _check_axes(grid_n: list, grid_dmax: list, grid_tau: list):
    # Raises what MediumParams raises at the first invalid point in grid
    # order.  Each of its checks bounds one field, so with the first N and
    # d_max valid that point is (N[0], d_max[0], the first invalid tau), else
    # (N[0], the first invalid d_max, tau[0]), else (the first invalid N,
    # d_max[0], tau[0]); the first tau tried is the grid's first point.
    n0, dm0, tau0 = grid_n[0], grid_dmax[0], grid_tau[0]
    for tau in grid_tau:
        MediumParams(n0, dm0, tau)
    for dm in grid_dmax:
        MediumParams(n0, dm, tau0)
    for n in grid_n:
        MediumParams(n, dm0, tau0)


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    lines = ["N,d_max,tau_min,r,delta,realizable,sum_bounds"]
    for row in rows:
        lines.append(
            f"{row.n_cars},{row.d_max!r},{row.tau_min!r},{row.rate!r},{row.delta!r},"
            f"{'true' if row.realizable else 'false'},"
            f"{'' if row.sum_bounds is None else row.sum_bounds}"
        )
    return "\n".join(lines) + "\n"
