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

All these rules are implemented once, in `_Engine`.  `_Graph` builds from it
one lazily compiled deduction graph per (CSAs, sigma), with dead counters
zeroed and runs of single successors collapsed.  `explore_sync` evaluates it
backward in exact decimals, and `run_monte_carlo` walks int-indexed tables of
its next medium nodes, built whole and checked to end.  A traced run steps the
engine itself from the initial config, drawing at each medium config as the
tables do, and builds rho as it goes.  `global_steps` steps the engine alone.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

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
    ordered_transitions,
)
from .errors import DivergenceDetected
from .speclang import GlobalEvent, SpecNode, enumerate_sequences

DEFAULT_BUDGET = 10_000_000  # distinct configs; PROTOFORGE_BUDGET overrides it


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
            if isinstance(tail, EnvItem) and (tail.name, tail.car, tail.peer, tail.data) == \
                    (item.name, item.peer, item.car, item.data):
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
#
# Every rule but the environment-triggered one compiles to a move
#   (sys event or None, counter to increment or None, new tail, dst, items)
# where a new tail ("b", msg) is completed with the tail it restores, and
# items are the trace items the move appends to rho.

_TAIL_OTHER = ("o",)
_DEAD = "dead"


class _Machine:
    __slots__ = ("owner", "state_names", "state_idx", "vars", "init", "finals", "env",
                 "econd", "timeouts", "recv", "live")

    def __init__(self, csa: Csa):
        owner = self.owner = csa.owner
        self.state_names = list(csa.states)
        self.state_idx = {s: i for i, s in enumerate(csa.states)}
        self.vars = list(csa.vars)
        var_idx = {v: i for i, v in enumerate(csa.vars)}
        self.init = self.state_idx[csa.init]
        self.finals = frozenset(self.state_idx[s] for s in csa.finals)
        n = len(csa.states)
        self.env = [[] for _ in range(n)]       # ((name, owner, peer, data), dst, items)
        self.econd = [[] for _ in range(n)]     # (guarded counter, op, bound, move)
        self.timeouts = [[] for _ in range(n)]  # move
        self.recv = [{} for _ in range(n)]      # msg -> [move]
        succ = [set() for _ in range(n)]

        def sys_item(e):
            return SysItem(owner, e.name, e.peer, e.data, e.special)

        for (src, label), dst in ordered_transitions(csa):
            s, d = self.state_idx[src], self.state_idx[dst]
            succ[s].add(d)
            if isinstance(label, EnvEvent):
                e = label.event
                self.env[s].append(((e.name, owner, e.peer, e.data), d,
                                    (EnvItem(owner, e.name, e.peer, e.data),)))
            elif isinstance(label, SysCond):
                c = label.cond
                self.econd[s].append((var_idx[c.var], c.op, c.bound,
                                      (label.event, None, _TAIL_OTHER, d, (sys_item(label.event),))))
            elif isinstance(label, BroadcastCond):
                c = label.cond
                self.econd[s].append((var_idx[c.var], c.op, c.bound,
                                      (None, None, ("b", label.msg), d, (BroadcastItem(label.msg),))))
            elif isinstance(label, TimeoutSys):
                e = label.event
                self.timeouts[s].append((e, None, _TAIL_OTHER, d,
                                         (TimeoutItem(owner, e.name), sys_item(e))))
            elif isinstance(label, TimeoutUpd):
                self.timeouts[s].append((None, var_idx[label.var], _TAIL_OTHER, d,
                                         (TimeoutItem(owner, label.var),)))
            elif isinstance(label, RecvSys):
                self.recv[s].setdefault(label.msg, []).append(
                    (label.event, None, _TAIL_OTHER, d, (sys_item(label.event),)))
            elif isinstance(label, RecvUpd):
                self.recv[s].setdefault(label.msg, []).append(
                    (None, var_idx[label.var], ("r", label.msg), d, ()))
        # A counter is live at a state if a guard there reads it or it is live
        # at a successor; increments alone do not make it live.  live[s] holds
        # one 1/0 factor per counter, or None when every counter is live.
        live = [{entry[0] for entry in self.econd[s]} for s in range(n)]
        while True:
            grown = [live[s].union(*(live[d] for d in succ[s])) for s in range(n)]
            if grown == live:
                break
            live = grown
        self.live = [None if len(live[s]) == len(self.vars) else
                     tuple(int(vi in live[s]) for vi in range(len(self.vars))) for s in range(n)]


class _Succ(NamedTuple):
    kind: str  # "deliver", "drop", "nacc", "free"
    cfg: object  # engine config tuple or _DEAD
    items: tuple


class _Engine:
    def __init__(self, csas: Sequence[Csa], sigma: Sequence[GlobalEvent], reduce=False):
        ordered = sorted(csas, key=lambda c: c.owner)
        if len({c.owner for c in ordered}) != len(ordered):
            raise ValueError("two CSAs share an owner")
        self.machines = [_Machine(c) for c in ordered]
        self.cars = [m.owner for m in self.machines]
        self.car_idx = {c: i for i, c in enumerate(self.cars)}
        self.sigma = tuple(sigma)
        # what an environment-triggered event must match after k fired ones
        self.wanted = [(e.name, e.src, e.dst, e.data) for e in self.sigma] + [None]
        self.reduce = reduce  # zero the counters dead at a car's new state
        for ev in self.sigma:
            if ev.src not in self.car_idx or ev.dst not in self.car_idx:
                raise ValueError(f"event {ev} references a car with no CSA")

    def initial(self):
        priority = self.sigma[0].src if self.sigma else self.cars[0]
        locals_ = tuple((m.init, (0,) * len(m.vars)) for m in self.machines)
        return (locals_, self.car_idx[priority], _TAIL_OTHER, 0, 0, 0)

    # -- local step enumeration on engine configs ---------------------------

    def _e_steps(self, cfg, x):
        # Immediate steps of x: environment-triggered events the target
        # sequence asks for next, then enabled conditional system events and
        # broadcasts.
        locals_, pr, tail, done, pending, parts = cfg
        state, vals = locals_[x]
        m = self.machines[x]
        out = []
        want = self.wanted[done + pending]
        for key, dst, items in m.env[state]:
            if key == want:  # while one is pending, a second call kills the deduction
                nl = self._set_local(locals_, x, dst, vals)
                nxt = _DEAD if pending else (nl, x, _TAIL_OTHER, done, 1, parts | (1 << x))
                out.append(_Succ("free", nxt, items))
        for vi, op, bound, move in m.econd[state]:
            if vals[vi] <= bound if op == "<=" else vals[vi] > bound:
                out.append(self._move(cfg, x, move))
        return out

    def _t_steps(self, cfg, x):
        state = cfg[0][x][0]
        return [self._move(cfg, x, move) for move in self.machines[x].timeouts[state]]

    def _r_steps(self, cfg, x, msg):
        # Reception steps of x against message msg at the tail.
        state = cfg[0][x][0]
        return [self._move(cfg, x, move) for move in self.machines[x].recv[state].get(msg, ())]

    def _move(self, cfg, x, move):
        locals_, pr, tail, done, pending, parts = cfg
        event, inc, new_tail, dst, items = move
        vals = locals_[x][1]
        if event is not None:
            done, pending = self._sys_proj(event, self.cars[x], done, pending)
        if inc is not None:
            vals = vals[:inc] + (vals[inc] + 1,) + vals[inc + 1:]
        if new_tail[0] == "b":
            new_tail = new_tail + (tail,)
        nl = self._set_local(locals_, x, dst, vals)
        return _Succ("free", (nl, x, new_tail, done, pending, parts | (1 << x)), items)

    def _sys_proj(self, e: LocalEvent, car, done, pending):
        # A plain system event matching the pending environment event fuses
        # into the next global event of the target sequence.
        if pending and e.special is None and self.wanted[done] == (e.name, e.peer, car, e.data):
            return done + 1, 0
        return done, pending

    def _set_local(self, locals_, x, state, vals):
        keep = self.machines[x].live[state] if self.reduce else None
        if keep is not None:
            vals = tuple(v * k for v, k in zip(vals, keep))
        return locals_[:x] + ((state, vals),) + locals_[x + 1:]

    # -- global step enumeration --------------------------------------------

    def expand(self, cfg):
        """Successor list per the global rules, each with its trace items.

        Returns ("medium", delivered, dropped) for a pending broadcast with a
        ready receiver, or ("free", successors) otherwise; an empty successor
        list means the configuration is stuck.
        """
        locals_, pr, tail, done, pending, parts = cfg
        if tail[0] == "b":
            msg, restore = tail[1], tail[2]
            z = self.car_idx.get(msg.dst)
            received = [] if z is None else [
                _Succ("deliver", s.cfg, (RecvItem(msg),) + s.items)
                for s in self._r_steps(cfg, z, msg)]
            if received:
                dropped = _Succ("drop", (locals_, z, restore, done, pending, parts), ())
                return ("medium", received, dropped)
            nacc_pr = z if z is not None else pr
            return ("free", [_Succ("nacc", (locals_, nacc_pr, restore, done, pending, parts), ())])

        succs = self._e_steps(cfg, pr) or self._t_steps(cfg, pr)
        if succs:
            return ("free", succs)
        # Hand-off: any CSA may act, by any rule; the actor takes the priority.
        out = []
        for x in range(len(self.machines)):
            out.extend(self._e_steps(cfg, x))
            out.extend(self._t_steps(cfg, x))
            if tail[0] == "r":
                out.extend(self._r_steps(cfg, x, tail[1]))
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
# Deduction graph

_SUCCESS, _FAILURE, _MEDIUM, _FREE = "success", "failure", "medium", "free"
_OPEN = "open"  # value of a node whose backward pass is under way


class _Node:
    # raw: the engine's successor configs, (delivered, dropped) for a medium
    # node; succ and drop: those of positive probability as nodes, once
    # linked; value: (success, failure) mass from the backward pass.
    __slots__ = ("cfg", "kind", "raw", "succ", "drop", "value")

    def __init__(self, cfg, kind, raw=()):
        self.cfg, self.kind, self.raw, self.drop = cfg, kind, raw, None
        terminal = kind == _SUCCESS or kind == _FAILURE
        self.succ = () if terminal else None
        self.value = ((1, 0) if kind == _SUCCESS else (0, 1)) if terminal else None


_DEAD_NODE = _Node(_DEAD, _FAILURE)


def _cycle(why: str) -> DivergenceDetected:
    return DivergenceDetected(f"deduction cycle: a configuration {why}")


class _Graph:
    """The deductions of (CSAs, sigma) of positive probability at drop_prob,
    built lazily.

    Configs come from an engine that zeroes the counters dead at each car's
    state, which merges configs no guard tells apart.  A free config with a
    single successor is no node of its own: it maps to the node its run of
    single successors ends in.  The budget bounds the distinct configs.
    """

    def __init__(self, csas, sigma, drop_prob, budget=None):
        self.engine = _Engine(csas, sigma, reduce=True)
        self.drop_prob = drop_prob
        if budget is None:
            budget = int(os.environ.get("PROTOFORGE_BUDGET") or DEFAULT_BUDGET)
        self.budget = budget
        self.nodes: dict = {}
        self.branching = False  # some node has more than one delivery or free successor
        self.root = self.node(self.engine.initial())

    def node(self, cfg) -> _Node:
        engine, trail = self.engine, {}
        while True:
            if cfg is _DEAD:
                found = _DEAD_NODE
                break
            found = self.nodes.get(cfg)
            if found is not None:
                break
            if cfg in trail:
                raise _cycle("repeats with no medium decision in between")
            trail[cfg] = None
            if len(self.nodes) + len(trail) > self.budget:
                raise DivergenceDetected(
                    f"exploration exceeded {self.budget} configurations; "
                    "set PROTOFORGE_BUDGET to raise the limit"
                )
            if engine.is_success(cfg):
                found = _Node(cfg, _SUCCESS)
                break
            shape = engine.expand(cfg)
            if shape[0] == "medium":
                _, received, dropped = shape
                self.branching |= len(received) > 1
                found = _Node(cfg, _MEDIUM, (tuple(s.cfg for s in received), dropped.cfg))
                break
            succs = shape[1]
            if len(succs) != 1:
                self.branching |= len(succs) > 1
                found = _Node(cfg, _FREE, tuple(s.cfg for s in succs)) if succs else \
                    _Node(cfg, _FAILURE)
                break
            cfg = succs[0].cfg
        for c in trail:
            self.nodes[c] = found
        return found

    def link(self, node):
        d = self.drop_prob
        if node.kind == _MEDIUM:
            delivered, dropped = node.raw
            node.succ = tuple(self.node(c) for c in delivered) if d < 1.0 else ()
            node.drop = self.node(dropped) if d > 0.0 else None
        else:
            node.succ = tuple(self.node(c) for c in node.raw)


# ---------------------------------------------------------------------------
# Exact exploration

# Sums and products of finite decimals never round in this context.  A float
# is read as its shortest decimal, repr(x): for a decimal of up to 15
# significant digits, that is the text it was parsed from.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass
class ExplorationResult:
    probability: Fraction  # exact, at the decimal of drop_prob
    configs_processed: int  # distinct configs, dead counters zeroed
    scheduler_branching: bool
    # |success + failure - 1|, exact; 0 without scheduler branching, where
    # each deduction carries its own mass.
    conservation_error: Fraction


def explore_sync(
    csas: Sequence[Csa],
    drop_prob: float,
    sigma: Sequence[GlobalEvent],
    budget: Optional[int] = None,
) -> ExplorationResult:
    """Sum the probabilities of all deductions that synchronize sigma, exactly.

    A backward pass over the deduction graph: a config in which every
    participating CSA rests in a final state and the projection equals sigma
    is worth 1, a stuck one 0, a medium node (1 - drop_prob) times the sum
    over its deliveries plus drop_prob times its drop, a free node the sum
    over its successors.  Failure mass is summed alongside; a cycle raises
    DivergenceDetected.  The pass runs in _EXACT on the decimal of drop_prob.
    """
    graph = _Graph(csas, sigma, drop_prob, budget)
    d = Decimal(repr(drop_prob))
    with localcontext(_EXACT):
        rho = 1 - d
        stack = [graph.root]
        while stack:
            node = stack[-1]
            if node.value is None:
                node.value = _OPEN
                graph.link(node)
                for child in node.succ if node.drop is None else node.succ + (node.drop,):
                    if child.value is None:
                        stack.append(child)
                    elif child.value is _OPEN:
                        raise _cycle("is reachable from itself; exact exploration needs an "
                                     "acyclic deduction graph")
                continue
            if node.value is _OPEN:
                success = sum(child.value[0] for child in node.succ)
                failure = sum(child.value[1] for child in node.succ)
                if node.kind == _MEDIUM:
                    success *= rho
                    failure *= rho
                    if node.drop is not None:
                        success += d * node.drop.value[0]
                        failure += d * node.drop.value[1]
                node.value = (success, failure)
            stack.pop()
        success, failure = graph.root.value
        return ExplorationResult(Fraction(success), len(graph.nodes), graph.branching,
                                 Fraction(abs(success + failure - 1)))


# ---------------------------------------------------------------------------
# Correctness


@dataclass(frozen=True)
class SequenceCheck:
    events: tuple[GlobalEvent, ...]
    required: float  # read as its decimal, like drop_prob
    achieved: Fraction

    @property
    def margin(self) -> Fraction:
        return self.achieved - Fraction(repr(self.required))

    @property
    def satisfied(self) -> bool:
        return self.margin >= 0


@dataclass(frozen=True)
class CorrectnessReport:
    ok: bool
    checks: tuple[SequenceCheck, ...]


def check_correctness(
    csas: Sequence[Csa],
    drop_prob: float,
    spec: SpecNode,
) -> CorrectnessReport:
    """Verify exactly that every sequence of the specification is synchronized
    at least as likely as its own leaf requires."""
    checks = tuple(
        SequenceCheck(pseq.events, pseq.p, explore_sync(csas, drop_prob, pseq.events).probability)
        for pseq in enumerate_sequences(spec)
    )
    return CorrectnessReport(ok=all(c.satisfied for c in checks), checks=checks)


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
) -> MonteCarloResult:
    """Sample executions of the global semantics with Bernoulli medium outcomes.

    Each run walks next-medium-node tables over the deduction graph from its
    root, drawing one number per medium node it passes; a traced run steps
    the engine instead and draws at the same configs.  All runs of a call
    share one stream, seeded from the seed's decimal text (so seeds 5 and -5
    differ), and run k takes its draws after runs 0..k-1.  The output is
    deterministic for a given seed and sigma, and prefix-stable: the first n
    runs and their traces are the same for any runs >= n.  Ties between
    enabled non-medium rules are resolved in a fixed order (synthesized CSAs
    never have any).  DivergenceDetected is raised before the first run when a
    run can reach, at positive probability, a loop it can never leave.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    graph = _Graph(csas, sigma, drop_prob)
    tables = _Tables(graph)  # built whole: it raises on a loop before any run, traced or not
    rng = random.Random(str(seed))
    if collect_traces:
        traces = [_trace(graph, k, rng.random) for k in range(runs)]
        successes = sum(t["outcome"] == _SUCCESS for t in traces)
    else:
        traces, successes = None, tables.walk(runs, rng.random)
    return MonteCarloResult(runs, successes, runs - successes, successes / runs, traces)


_END_SUCCESS, _END_FAILURE = -1, -2  # walk-table entries for the end of a run


class _Tables:
    """Next-medium-node tables over a deduction graph, for sampled runs.

    Index i names the i-th medium node reached from the root.  deliver[i] and
    drop[i] give the index of the medium node a run reaches next after that
    outcome, following free nodes along their first successor, or
    _END_SUCCESS / _END_FAILURE at an end.  An outcome of probability 0 holds
    _END_FAILURE and is never read.

    Every index can reach an end through outcomes of positive probability, or
    the build raises DivergenceDetected.  A walk is then absorbed with
    probability 1 (the tables are a finite absorbing Markov chain), so it
    needs no step bound.
    """

    def __init__(self, graph: _Graph):
        self.graph = graph
        self.index: dict = {}  # medium node -> index
        self.nodes: list = []
        self.root = self._resolve(graph.root)
        d = graph.drop_prob
        self.deliver: list = []
        self.drop: list = []
        for node in self.nodes:  # _resolve appends the nodes met along the way
            if node.succ is None:
                graph.link(node)
            self.deliver.append(self._resolve(node.succ[0]) if d < 1.0 else _END_FAILURE)
            self.drop.append(self._resolve(node.drop) if d > 0.0 else _END_FAILURE)
        self._check_ends()

    def walk(self, runs: int, draw) -> int:
        """Walk runs from the root and return how many succeed.  Each
        medium decision calls draw() once and drops the message when the
        result is below the drop probability."""
        d, deliver, drop, root = self.graph.drop_prob, self.deliver, self.drop, self.root
        successes = 0
        for _ in range(runs):
            i = root
            while i >= 0:
                i = drop[i] if draw() < d else deliver[i]
            successes += i == _END_SUCCESS
        return successes

    def _resolve(self, node: _Node) -> int:
        # The index of node, or of the medium node or end its free nodes lead to.
        seen = set()
        while node.kind == _FREE:
            if node in seen:
                raise _cycle("repeats with no random medium outcome in between")
            seen.add(node)
            if node.succ is None:
                self.graph.link(node)
            node = node.succ[0]
        if node.kind != _MEDIUM:
            return _END_SUCCESS if node.kind == _SUCCESS else _END_FAILURE
        i = self.index.get(node)
        if i is None:
            i = self.index[node] = len(self.nodes)
            self.nodes.append(node)
        return i

    def _check_ends(self) -> None:
        # Raise unless every index reaches an end through outcomes of
        # positive probability: search backward from the entries that end.
        d = self.graph.drop_prob
        tables = ([self.deliver] if d < 1.0 else []) + ([self.drop] if d > 0.0 else [])
        into: list = [[] for _ in self.nodes]
        ending = set()
        for table in tables:
            for i, t in enumerate(table):
                if t < 0:
                    ending.add(i)
                else:
                    into[t].append(i)
        stack = list(ending)
        while stack:
            for i in into[stack.pop()]:
                if i not in ending:
                    ending.add(i)
                    stack.append(i)
        if len(ending) == len(self.nodes):
            return
        if 0.0 < d < 1.0:
            raise _cycle("repeats, and no random medium outcome leaves its loop")
        raise _cycle("repeats with no random medium outcome in between")


def _trace(graph: _Graph, run: int, draw) -> dict:
    """One run stepped through the engine from the initial config, with its
    record.  Each medium config calls draw() once and drops the message when
    the result is below the drop probability, as _Tables.walk does; elsewhere
    the run takes the first successor, up to the end."""
    engine, rho, cfg, d = graph.engine, [], graph.engine.initial(), graph.drop_prob
    while not engine.is_success(cfg):
        shape = engine.expand(cfg)
        if shape[0] == "medium":
            s = shape[2] if draw() < d else shape[1][0]
        elif shape[1]:
            s = shape[1][0]
        else:
            break  # stuck
        if s.kind != "free":
            rho.pop()  # the broadcast is delivered, dropped or discarded
        rho.extend(s.items)
        if s.cfg is _DEAD:
            break
        cfg = s.cfg
    return {
        "run": run,
        "outcome": _SUCCESS if engine.is_success(cfg) else _FAILURE,
        "rho": [str(item) for item in rho],
        "final_states": {m.owner: m.state_names[cfg[0][x][0]]
                         for x, m in enumerate(engine.machines)},
    }


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

    shape = engine.expand(cfg)
    if shape[0] == "medium":
        _, received, dropped = shape
        succs = [(s, (1.0 - drop_prob)) for s in received] + [(dropped, drop_prob)]
    else:
        succs = [(s, 1.0) for s in shape[1]]

    out = []
    for s, factor in succs:
        prob = gcfg.prob * factor
        if prob == 0.0 or s.cfg is _DEAD:
            continue
        # Delivering, dropping or discarding consumes the trailing broadcast.
        rho = (gcfg.rho if s.kind == "free" else gcfg.rho[:-1]) + s.items
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
