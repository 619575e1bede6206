"""Joint execution of CSAs over a lossy medium.

Local rules move a single CSA: an environment-triggered event, a conditional
system-triggered event, a timeout with either a system event or a counter
update, a conditional broadcast, and a reception with either a system event or
a counter update.  Global rules interleave the CSAs and model the medium: a
trailing broadcast is either delivered (probability 1 - drop_prob, the
destination consumes the reception), dropped (probability drop_prob), or
discarded without probability cost when the destination cannot receive it.
When no broadcast is pending, the priority holder moves; timeouts fire only
when it has no immediate move, and only when it has neither may another CSA
take over.

Environment-triggered choices are resolved by the target sequence sigma: the
ordered calls the ASCs make to generate it.  Exploration therefore computes
the probability that the CSAs synchronize sigma given that exactly those calls
are made; env transitions outside sigma are never taken (for synthesized CSAs
they can only start zero-contribution branches, and no synthesized state mixes
env transitions with timeouts or receptions, so rule selection is unaffected).

All these rules are implemented once, in `_Engine`; exact exploration, Monte
Carlo sampling, traced runs and `global_steps` only drive it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .csa import (
    BroadcastCond,
    Csa,
    EnvEvent,
    LocalEvent,
    Message,
    RecvSys,
    RecvUpd,
    StateId,
    SysCond,
    TimeoutSys,
    TimeoutUpd,
)
from .errors import DivergenceDetected
from .speclang import GlobalEvent, PSequence, SpecNode, enumerate_sequences, satisfies

DEFAULT_BUDGET = 10_000_000


def exploration_budget(default: int = DEFAULT_BUDGET) -> int:
    env = os.environ.get("PROTOFORGE_BUDGET")
    return int(env) if env else default


# ---------------------------------------------------------------------------
# Trace items (elements of the deduced sequence rho)


@dataclass(frozen=True)
class EnvItem:
    car: str
    name: str
    peer: str
    data: Optional[str] = None

    def __str__(self):
        payload = f"({self.data})" if self.data is not None else ""
        return f"{self.car}: env {self.name}->{self.peer}{payload}"


@dataclass(frozen=True)
class SysItem:
    car: str
    name: str
    peer: str
    data: Optional[str] = None
    special: Optional[str] = None

    def __str__(self):
        payload = f"({self.data})" if self.data is not None else ""
        base = f"{self.special}_{self.name}" if self.special else self.name
        return f"{self.car}: sys {base}<-{self.peer}{payload}"


@dataclass(frozen=True)
class TimeoutItem:
    car: str
    tag: str

    def __str__(self):
        return f"{self.car}: T.O.({self.tag})"


@dataclass(frozen=True)
class BroadcastItem:
    msg: Message

    def __str__(self):
        return f"{self.msg.src}: !{self.msg}"


@dataclass(frozen=True)
class RecvItem:
    msg: Message

    def __str__(self):
        return f"{self.msg.dst}: ?{self.msg}"


RhoItem = Union[EnvItem, SysItem, TimeoutItem, BroadcastItem, RecvItem]


def project(rho: Sequence[RhoItem]) -> list:
    """Project a deduced sequence onto global events.

    Environment-triggered events are appended as they come; a system-triggered
    event fuses with a matching environment-triggered event at the tail of the
    projection into one global event; everything else is dropped.  Unfused
    environment events remain in the output, so a fully synchronized trace
    projects to global events only.
    """
    out: list = []
    for item in rho:
        if isinstance(item, EnvItem):
            out.append(item)
        elif isinstance(item, SysItem) and item.special is None and out:
            tail = out[-1]
            if (
                isinstance(tail, EnvItem)
                and tail.name == item.name
                and tail.car == item.peer
                and tail.peer == item.car
                and tail.data == item.data
            ):
                out[-1] = GlobalEvent(item.name, src=tail.car, dst=tail.peer, data=item.data)
    return out


# ---------------------------------------------------------------------------
# Public configuration types


@dataclass(frozen=True)
class LocalConfig:
    state: StateId
    valuation: tuple[tuple[str, int], ...]  # (counter, value) pairs, in CSA var order

    @staticmethod
    def initial(csa: Csa) -> "LocalConfig":
        return LocalConfig(csa.init, tuple((v, 0) for v in csa.vars))

    def value(self, var: str) -> int:
        return dict(self.valuation)[var]


@dataclass
class GlobalConfig:
    rho: tuple[RhoItem, ...]
    locals: dict[str, LocalConfig]
    priority: str
    prob: float


# ---------------------------------------------------------------------------
# Compiled engine

# Engine configs are plain tuples:
#   (locals, priority, tail, done, pending, parts)
# locals: per car, (state index, counter values); tail: _TAIL_OTHER, a
# reception ("r", msg), or a broadcast ("b", msg, restored tail); done/pending
# track how much of the target sequence has been synchronized; parts is a
# bitmask of cars that have taken part.

_TAIL_OTHER = ("o",)
_DEAD = "dead"


class _Machine:
    __slots__ = ("owner", "state_names", "state_idx", "vars", "var_idx", "init",
                 "finals", "env", "econd", "timeouts", "recv")

    def __init__(self, csa: Csa):
        self.owner = csa.owner
        self.state_names = list(csa.states)
        self.state_idx = {s: i for i, s in enumerate(csa.states)}
        self.vars = list(csa.vars)
        self.var_idx = {v: i for i, v in enumerate(csa.vars)}
        self.init = self.state_idx[csa.init]
        self.finals = frozenset(self.state_idx[s] for s in csa.finals)
        n = len(csa.states)
        self.env = [[] for _ in range(n)]       # (name, peer, data, dst)
        self.econd = [[] for _ in range(n)]     # ("sys", ev, vi, op, bound, dst) | ("bc", msg, vi, op, bound, dst)
        self.timeouts = [[] for _ in range(n)]  # ("tsys", ev, dst) | ("tupd", vi, dst)
        self.recv = [{} for _ in range(n)]      # msg -> [("rsys", ev, dst) | ("rupd", vi, dst)]
        for (src, label), dst in sorted(csa.transitions.items(),
                                        key=lambda kv: (kv[0][0], str(kv[0][1]))):
            s, d = self.state_idx[src], self.state_idx[dst]
            if isinstance(label, EnvEvent):
                e = label.event
                self.env[s].append((e.name, e.peer, e.data, d))
            elif isinstance(label, SysCond):
                c = label.cond
                self.econd[s].append(("sys", label.event, self.var_idx[c.var], c.op, c.bound, d))
            elif isinstance(label, BroadcastCond):
                c = label.cond
                self.econd[s].append(("bc", label.msg, self.var_idx[c.var], c.op, c.bound, d))
            elif isinstance(label, TimeoutSys):
                self.timeouts[s].append(("tsys", label.event, d))
            elif isinstance(label, TimeoutUpd):
                self.timeouts[s].append(("tupd", self.var_idx[label.var], d))
            elif isinstance(label, RecvSys):
                self.recv[s].setdefault(label.msg, []).append(("rsys", label.event, d))
            elif isinstance(label, RecvUpd):
                self.recv[s].setdefault(label.msg, []).append(("rupd", self.var_idx[label.var], d))


@dataclass(frozen=True)
class _Succ:
    kind: str  # "deliver", "drop", "nacc", "free"
    cfg: object  # engine config tuple or _DEAD
    items: tuple


class _Engine:
    def __init__(self, csas: Sequence[Csa], sigma: Sequence[GlobalEvent]):
        ordered = sorted(csas, key=lambda c: c.owner)
        if len({c.owner for c in ordered}) != len(ordered):
            raise ValueError("two CSAs share an owner")
        self.machines = [_Machine(c) for c in ordered]
        self.cars = [m.owner for m in self.machines]
        self.car_idx = {c: i for i, c in enumerate(self.cars)}
        self.sigma = tuple(sigma)
        for ev in self.sigma:
            if ev.src not in self.car_idx or ev.dst not in self.car_idx:
                raise ValueError(f"event {ev} references a car with no CSA")

    def initial(self, priority: Optional[str] = None):
        if priority is None:
            priority = self.sigma[0].src if self.sigma else self.cars[0]
        locals_ = tuple((m.init, (0,) * len(m.vars)) for m in self.machines)
        return (locals_, self.car_idx[priority], _TAIL_OTHER, 0, 0, 0)

    # -- local step enumeration on engine configs ---------------------------

    def _env_enabled(self, x, name, peer, data, done, pending):
        fired = done + pending
        if fired >= len(self.sigma):
            return False
        want = self.sigma[fired]
        return want.name == name and want.src == self.cars[x] and want.dst == peer \
            and want.data == data

    def _e_steps(self, cfg, x, want_items):
        locals_, pr, tail, done, pending, parts = cfg
        state, vals = locals_[x]
        m = self.machines[x]
        out = []
        for name, peer, data, dst in m.env[state]:
            if not self._env_enabled(x, name, peer, data, done, pending):
                continue
            if pending:
                out.append(_Succ("free", _DEAD,
                                 (EnvItem(m.owner, name, peer, data),) if want_items else ()))
                continue
            nl = self._set_local(locals_, x, dst, vals)
            items = (EnvItem(m.owner, name, peer, data),) if want_items else ()
            out.append(_Succ("free", (nl, x, _TAIL_OTHER, done, 1, parts | (1 << x)), items))
        for entry in m.econd[state]:
            kind, payload, vi, op, bound, dst = entry
            v = vals[vi]
            if not (v <= bound if op == "<=" else v > bound):
                continue
            if kind == "sys":
                e = payload
                nd, np = self._sys_proj(e, m.owner, done, pending)
                nl = self._set_local(locals_, x, dst, vals)
                items = (SysItem(m.owner, e.name, e.peer, e.data, e.special),) if want_items else ()
                out.append(_Succ("free", (nl, x, _TAIL_OTHER, nd, np, parts | (1 << x)), items))
            else:
                msg = payload
                nl = self._set_local(locals_, x, dst, vals)
                items = (BroadcastItem(msg),) if want_items else ()
                out.append(_Succ("free", (nl, x, ("b", msg, tail), done, pending,
                                          parts | (1 << x)), items))
        return out

    def _t_steps(self, cfg, x, want_items):
        locals_, pr, tail, done, pending, parts = cfg
        state, vals = locals_[x]
        m = self.machines[x]
        out = []
        for entry in m.timeouts[state]:
            if entry[0] == "tsys":
                _, e, dst = entry
                nd, np = self._sys_proj(e, m.owner, done, pending)
                nl = self._set_local(locals_, x, dst, vals)
                items = ((TimeoutItem(m.owner, e.name),
                          SysItem(m.owner, e.name, e.peer, e.data, e.special))
                         if want_items else ())
                out.append(_Succ("free", (nl, x, _TAIL_OTHER, nd, np, parts | (1 << x)), items))
            else:
                _, vi, dst = entry
                nv = vals[:vi] + (vals[vi] + 1,) + vals[vi + 1:]
                nl = self._set_local(locals_, x, dst, nv)
                items = (TimeoutItem(m.owner, m.vars[vi]),) if want_items else ()
                out.append(_Succ("free", (nl, x, _TAIL_OTHER, done, pending,
                                          parts | (1 << x)), items))
        return out

    def _r_steps(self, cfg, x, msg, want_items):
        # Reception steps of x against message msg at the tail.
        locals_, pr, tail, done, pending, parts = cfg
        state, vals = locals_[x]
        m = self.machines[x]
        out = []
        for entry in m.recv[state].get(msg, ()):
            if entry[0] == "rsys":
                _, e, dst = entry
                nd, np = self._sys_proj(e, m.owner, done, pending)
                nl = self._set_local(locals_, x, dst, vals)
                items = (SysItem(m.owner, e.name, e.peer, e.data, e.special),) if want_items else ()
                out.append(_Succ("free", (nl, x, _TAIL_OTHER, nd, np, parts | (1 << x)), items))
            else:
                _, vi, dst = entry
                nv = vals[:vi] + (vals[vi] + 1,) + vals[vi + 1:]
                nl = self._set_local(locals_, x, dst, nv)
                out.append(_Succ("free", (nl, x, ("r", msg), done, pending,
                                          parts | (1 << x)), ()))
        return out

    def _sys_proj(self, e: LocalEvent, car, done, pending):
        # A plain system event matching the pending environment event fuses
        # into the next global event of the target sequence.
        if pending and e.special is None:
            want = self.sigma[done]
            if (want.name == e.name and want.dst == car and want.src == e.peer
                    and want.data == e.data):
                return done + 1, 0
        return done, pending

    @staticmethod
    def _set_local(locals_, x, state, vals):
        return locals_[:x] + ((state, vals),) + locals_[x + 1:]

    # -- global step enumeration --------------------------------------------

    def expand(self, cfg, want_items=False):
        """Successor list per the global rules.

        Returns ("medium", delivered, dropped) for a pending broadcast with a
        ready receiver, or ("free", successors) otherwise; an empty successor
        list means the configuration is stuck.
        """
        locals_, pr, tail, done, pending, parts = cfg
        if tail[0] == "b":
            msg, restore = tail[1], tail[2]
            z = self.car_idx.get(msg.dst)
            received = []
            if z is not None:
                for s in self._r_steps(cfg, z, msg, want_items):
                    items = ((RecvItem(msg),) + s.items) if want_items else ()
                    received.append(_Succ("deliver", s.cfg, items))
            if received:
                dropped = _Succ("drop", (locals_, z, restore, done, pending, parts), ())
                return ("medium", received, dropped)
            nacc_pr = z if z is not None else pr
            return ("free", [_Succ("nacc", (locals_, nacc_pr, restore, done, pending, parts), ())])

        succs = self._e_steps(cfg, pr, want_items)
        if succs:
            return ("free", succs)
        succs = self._t_steps(cfg, pr, want_items)
        if succs:
            return ("free", succs)
        # Hand-off: any CSA may act, by any rule; the actor takes the priority.
        out = []
        for x in range(len(self.machines)):
            out.extend(self._e_steps(cfg, x, want_items))
            out.extend(self._t_steps(cfg, x, want_items))
            if tail[0] == "r":
                out.extend(self._r_steps(cfg, x, tail[1], want_items))
        return ("free", out)

    def is_success(self, cfg) -> bool:
        locals_, pr, tail, done, pending, parts = cfg
        if done != len(self.sigma) or pending:
            return False
        for x, m in enumerate(self.machines):
            if parts & (1 << x) and locals_[x][0] not in m.finals:
                return False
        return True


# ---------------------------------------------------------------------------
# Exact exploration


@dataclass
class ExplorationResult:
    probability: float
    configs_processed: int
    scheduler_branching: bool
    # |success + failure - 1| once the frontier is empty; meaningful only
    # without scheduler branching, where each deduction carries its own mass.
    conservation_error: float


def explore_sync(
    csas: Sequence[Csa],
    drop_prob: float,
    sigma: Sequence[GlobalEvent],
    budget: Optional[int] = None,
    start_priority: Optional[str] = None,
) -> ExplorationResult:
    """Sum the probabilities of all deductions that synchronize sigma.

    Walks the global deduction graph breadth-wise, merging probability mass
    per configuration; a configuration in which every participating CSA rests
    in a final state and the projection equals sigma absorbs its mass as
    success.  Zero-probability branches are pruned.
    """
    if budget is None:
        budget = exploration_budget()
    engine = _Engine(csas, sigma)
    deliver_p = 1.0 - drop_prob
    frontier: dict = {engine.initial(start_priority): 1.0}
    success = 0.0
    failure = 0.0
    processed = 0
    branching = False
    while frontier:
        processed += 1
        if processed > budget:
            raise DivergenceDetected(
                f"exploration exceeded {budget} configurations; "
                "set PROTOFORGE_BUDGET to raise the limit"
            )
        cfg, mass = frontier.popitem()
        if engine.is_success(cfg):
            success += mass
            continue
        shape = engine.expand(cfg)
        if shape[0] == "medium":
            _, received, dropped = shape
            if len(received) > 1:
                branching = True
            if deliver_p > 0.0:
                for s in received:
                    frontier[s.cfg] = frontier.get(s.cfg, 0.0) + mass * deliver_p
            if drop_prob > 0.0:
                frontier[dropped.cfg] = frontier.get(dropped.cfg, 0.0) + mass * drop_prob
        else:
            succs = shape[1]
            if not succs:
                failure += mass
                continue
            if len(succs) > 1:
                branching = True
            for s in succs:
                if s.cfg is _DEAD:
                    failure += mass
                else:
                    frontier[s.cfg] = frontier.get(s.cfg, 0.0) + mass
    return ExplorationResult(success, processed, branching, abs(success + failure - 1.0))


# ---------------------------------------------------------------------------
# Correctness


@dataclass(frozen=True)
class SequenceCheck:
    events: tuple[GlobalEvent, ...]
    required: float
    achieved: float
    satisfied: bool

    @property
    def margin(self) -> float:
        return self.achieved - self.required


@dataclass(frozen=True)
class CorrectnessReport:
    ok: bool
    checks: tuple[SequenceCheck, ...]


def check_correctness(
    csas: Sequence[Csa],
    drop_prob: float,
    spec: SpecNode,
    budget: Optional[int] = None,
) -> CorrectnessReport:
    """Verify that every sequence of the specification is synchronized at
    least as likely as required."""
    checks = []
    for pseq in enumerate_sequences(spec):
        achieved = explore_sync(csas, drop_prob, pseq.events, budget=budget).probability
        bounded = min(max(achieved, 0.0), 1.0)
        ok = satisfies(PSequence(pseq.events, bounded), spec)
        checks.append(SequenceCheck(pseq.events, pseq.p, achieved, ok))
    return CorrectnessReport(ok=all(c.satisfied for c in checks), checks=tuple(checks))


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass
class MonteCarloResult:
    runs: int
    successes: int
    failures: int
    empirical_rate: float
    traces: Optional[list] = field(default=None)


def run_monte_carlo(
    csas: Sequence[Csa],
    drop_prob: float,
    sigma: Sequence[GlobalEvent],
    runs: int,
    seed: int,
    collect_traces: bool = False,
    budget: Optional[int] = None,
) -> MonteCarloResult:
    """Sample executions of the global semantics with Bernoulli medium outcomes.

    Deterministic for a given seed: run k draws from its own stream seeded by
    (seed, k).  Ties between enabled non-medium rules are resolved in a fixed
    order (synthesized CSAs never have any).
    """
    import random

    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if budget is None:
        budget = exploration_budget()
    engine = _Engine(csas, sigma)

    # Between medium resolutions the walk is deterministic, so the reachable
    # graph collapses to a binary DAG over configurations; memoize it.
    memo: dict = {}

    def advance(cfg):
        steps = 0
        trail = []
        while True:
            known = memo.get(cfg)
            if known is not None:
                break
            steps += 1
            if steps > budget:
                raise DivergenceDetected("simulation exceeded the configuration budget")
            if engine.is_success(cfg):
                known = ("end", "success")
                break
            shape = engine.expand(cfg)
            if shape[0] == "medium":
                _, received, dropped = shape
                known = ("medium", received[0].cfg, dropped.cfg)
                break
            succs = shape[1]
            if not succs:
                known = ("end", "failure")
                break
            nxt = succs[0].cfg
            if nxt is _DEAD:
                known = ("end", "failure")
                break
            trail.append(cfg)
            cfg = nxt
        for c in trail:
            memo.setdefault(c, ("goto", cfg))
        memo[cfg] = known
        return known

    def resolve(cfg):
        node = advance(cfg)
        while node[0] == "goto":
            node = advance(node[1])
        return node

    successes = 0
    traces = [] if collect_traces else None
    for k in range(runs):
        rng = random.Random(f"{seed}:{k}")
        if collect_traces:
            outcome, rho, finals = _sample_traced(engine, drop_prob, rng, budget)
            traces.append({
                "run": k,
                "outcome": outcome,
                "rho": [str(item) for item in rho],
                "final_states": finals,
            })
            successes += outcome == "success"
            continue
        cfg = engine.initial()
        while True:
            node = resolve(cfg)
            if node[0] == "end":
                successes += node[1] == "success"
                break
            dropped = drop_prob > 0.0 and rng.random() < drop_prob
            cfg = node[2] if dropped else node[1]
    failures = runs - successes
    return MonteCarloResult(runs, successes, failures, successes / runs, traces)


def _sample_traced(engine: _Engine, drop_prob: float, rng, budget: int):
    cfg = engine.initial()
    rho: list = []
    steps = 0
    while True:
        steps += 1
        if steps > budget:
            raise DivergenceDetected("simulation exceeded the configuration budget")
        if engine.is_success(cfg):
            return "success", rho, _final_states(engine, cfg)
        shape = engine.expand(cfg, want_items=True)
        if shape[0] == "medium":
            _, received, dropped = shape
            if drop_prob > 0.0 and rng.random() < drop_prob:
                rho.pop()  # the broadcast is lost
                cfg = dropped.cfg
            else:
                succ = received[0]
                rho.pop()
                rho.extend(succ.items)
                cfg = succ.cfg
            continue
        succs = shape[1]
        if not succs:
            return "failure", rho, _final_states(engine, cfg)
        succ = succs[0]
        if succ.cfg is _DEAD:
            rho.extend(succ.items)
            return "failure", rho, _final_states(engine, cfg)
        if succ.kind == "nacc":
            rho.pop()
        else:
            rho.extend(succ.items)
        cfg = succ.cfg
    # unreachable


def _final_states(engine: _Engine, cfg):
    locals_ = cfg[0]
    return {m.owner: m.state_names[locals_[x][0]] for x, m in enumerate(engine.machines)}


# ---------------------------------------------------------------------------
# Public single-step wrappers


def global_steps(
    csas: Sequence[Csa],
    drop_prob: float,
    gcfg: GlobalConfig,
    sigma: Sequence[GlobalEvent],
) -> list[GlobalConfig]:
    """All one-step successors of a global configuration under the global rules."""
    engine = _Engine(csas, sigma)
    locals_ = tuple(
        (engine.machines[x].state_idx[gcfg.locals[car].state],
         tuple(v for _, v in gcfg.locals[car].valuation))
        for x, car in enumerate(engine.cars)
    )
    tail = _TAIL_OTHER
    if gcfg.rho:
        last = gcfg.rho[-1]
        if isinstance(last, BroadcastItem):
            restore = _TAIL_OTHER
            if len(gcfg.rho) > 1 and isinstance(gcfg.rho[-2], RecvItem):
                restore = ("r", gcfg.rho[-2].msg)
            tail = ("b", last.msg, restore)
        elif isinstance(last, RecvItem):
            tail = ("r", last.msg)
    fired = sum(isinstance(item, EnvItem) for item in gcfg.rho)
    cfg = (locals_, engine.car_idx[gcfg.priority], tail, fired, 0, 0)

    shape = engine.expand(cfg, want_items=True)
    if shape[0] == "medium":
        _, received, dropped = shape
        succs = [(s, (1.0 - drop_prob)) for s in received] + [(dropped, drop_prob)]
    else:
        succs = [(s, 1.0) for s in shape[1]]

    out = []
    for s, factor in succs:
        prob = gcfg.prob * factor
        if prob == 0.0:
            continue
        if s.cfg is _DEAD:
            continue
        if s.kind == "deliver":
            rho = gcfg.rho[:-1] + s.items
        elif s.kind in ("drop", "nacc"):
            rho = gcfg.rho[:-1]
        else:
            rho = gcfg.rho + s.items
        nl, px, *_ = s.cfg
        out.append(GlobalConfig(
            rho=rho,
            locals={
                car: LocalConfig(
                    engine.machines[x].state_names[nl[x][0]],
                    tuple(zip(engine.machines[x].vars, nl[x][1])),
                )
                for x, car in enumerate(engine.cars)
            },
            priority=engine.cars[px],
            prob=prob,
        ))
    return out


def initial_config(csas: Sequence[Csa], priority: str) -> GlobalConfig:
    return GlobalConfig(
        rho=(),
        locals={c.owner: LocalConfig.initial(c) for c in csas},
        priority=priority,
        prob=1.0,
    )
