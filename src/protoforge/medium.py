"""Map physical scenario parameters to a drop-probability bound and sweep
realizability over parameter grids.

The worst-case data rate on the shared medium is r = (N - 2) * d_max / tau_min
(the two communicating cars are excluded from the N sharing it), and the drop
probability follows the logistic curve delta(r) = 1 / (1 + a * exp(-b * r)),
which grows from 1/(1 + a) at r = 0 toward 1 under load.

`feasibility_sweep` solves the bounds once per distinct delta: delta depends
only on r, and many grid points share an r (the default 1000-point grid of
the CLI has 199 distinct deltas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .bounds import BoundsResult, Infeasible, _constraints, _solve
from .errors import InvalidParams
from .speclang import SpecNode

SIGMOID_SCALE = 4.0
SIGMOID_RATE = 0.002


@dataclass(frozen=True)
class MediumParams:
    n_cars: int
    d_max: float
    tau_min: float
    a: float = SIGMOID_SCALE
    b: float = SIGMOID_RATE

    def __post_init__(self):
        if self.n_cars < 2:
            raise InvalidParams(f"need at least two cars, got {self.n_cars}")
        if self.d_max < 0:
            raise InvalidParams(f"data length must be nonnegative, got {self.d_max}")
        if self.tau_min <= 0:
            raise InvalidParams(f"minimum delay must be positive, got {self.tau_min}")
        if self.a <= 0:
            raise InvalidParams(f"sigmoid scale must be positive, got {self.a}")
        if self.b < 0:
            raise InvalidParams(f"sigmoid rate must be nonnegative, got {self.b}")

    @property
    def rate(self) -> float:
        return (self.n_cars - 2) * self.d_max / self.tau_min


def drop_prob(params: MediumParams) -> float:
    """Drop probability 1 / (1 + a * exp(-b * r)); always strictly inside (0, 1)."""
    return 1.0 / (1.0 + params.a * math.exp(-params.b * params.rate))


@dataclass(frozen=True)
class SweepRow:
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
    cap: int = 512,
) -> list[SweepRow]:
    """Realizability of the specification at every grid point, in grid order."""
    events, constraints = _constraints(spec)
    # `_solve` is a pure function of delta once the constraints and the cap
    # are fixed, so grid points with equal deltas share one solve.
    solved_at: dict[float, BoundsResult] = {}
    rows = []
    for n in grid_n:
        for dm in grid_dmax:
            for tau in grid_tau:
                params = MediumParams(n, dm, tau)
                delta = drop_prob(params)
                solved = solved_at.get(delta)
                if solved is None:
                    solved = solved_at[delta] = _solve(events, constraints, delta, cap)
                ok = not isinstance(solved, Infeasible)
                rows.append(SweepRow(
                    n_cars=n,
                    d_max=dm,
                    tau_min=tau,
                    rate=params.rate,
                    delta=delta,
                    realizable=ok,
                    sum_bounds=sum(solved.values()) if ok else None,
                ))
    return rows


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    lines = ["N,d_max,tau_min,r,delta,realizable,sum_bounds"]
    for row in rows:
        lines.append(
            f"{row.n_cars},{row.d_max!r},{row.tau_min!r},{row.rate!r},{row.delta!r},"
            f"{'true' if row.realizable else 'false'},"
            f"{'' if row.sum_bounds is None else row.sum_bounds}"
        )
    return "\n".join(lines) + "\n"
