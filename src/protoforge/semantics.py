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

Every other choice is resolved by one fixed order, the engine's order of
successors: at a hand-off the cars in owner order, and within a car its
environment-triggered moves, conditional moves, timeouts and receptions in
that order, each in `Csa.ordered_transitions` order; a delivered broadcast
goes to the first reception enabled for it.  Synthesized CSAs never offer
such a choice; hand-written ones may.  A nondeterministic model has a
probability only once its choices are resolved, so both checks resolve them
alike, and the exact value is the probability of the runs Monte Carlo samples.

All these rules are implemented once, in `_Engine`.  Its part that no target
sequence changes, a `_Machine` per CSA and an integer id per message (the
message in an engine config is its id), is compiled once per check:
`check_correctness` compiles each CSA once for all its sequences.  `_Graph`
builds from the engine one lazily compiled deduction graph per (CSAs, sigma)
whose nodes are the medium decisions and the ends, with dead counters zeroed.
`explore_sync` evaluates it backward in exact decimals, and `run_monte_carlo`
walks int-indexed tables of its next medium nodes, built whole and checked to
end.  A traced run steps the engine itself from the initial config, drawing at
each medium config as the tables do, and builds rho as it goes.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Optional, Sequence

from .csa import Csa, Message
from .errors import DivergenceDetected
from .speclang import GlobalEvent, SpecNode, enumerate_sequences

DEFAULT_BUDGET = 10_000_000  # distinct configs; PROTOFORGE_BUDGET overrides it


def _budget() -> int:
    """The exploration budget: PROTOFORGE_BUDGET, or DEFAULT_BUDGET when it
    is unset or empty.  Anything but a positive integer raises ValueError."""
    text = os.environ.get("PROTOFORGE_BUDGET")
    if not text:
        return DEFAULT_BUDGET
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"PROTOFORGE_BUDGET must be a positive integer, got {text!r}")
    return budget


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


# ---------------------------------------------------------------------------
# Compiled engine

# Engine configs are plain tuples:
#   (locals, priority, tail, done, pending, parts)
# locals: per car, (state index, counter values); tail: _TAIL_OTHER, a
# reception ("r", msg id), or a broadcast ("b", msg id, restored tail);
# done/pending track how much of the target sequence has been synchronized;
# parts is a bitmask of cars that have taken part.
#
# Every rule compiles to a move
#   (fuse key, counter to increment or None, new tail, dst, note)
# where the fuse key is _ENV for an environment-triggered event, the
# target-sequence entry a plain system event completes, or None; a new tail
# ("b", msg id) is completed with the tail it restores, and the note
# (car, label, skip) names the trace items the move appends to rho:
# _trace_items builds them from the transition's label, less the first skip
# (a reception at a hand-off appends no RecvItem).  Only traced runs build
# trace items.

_TAIL_OTHER = ("o",)
_DEAD = "dead"
_ENV = "env"
_NO_RECV: dict = {}  # the receptions of a state without any; never changed


def _trace_items(note) -> tuple:
    """The trace items of a move's note: for a reception, led by its RecvItem."""
    car, label, skip = note
    kind = label.kind
    if kind == "env":
        e = label.event
        return (EnvItem(car, e.name, e.peer, e.data),)
    if kind == "broadcast":
        return (BroadcastItem(label.msg),)
    if kind == "timeout-upd":
        return (TimeoutItem(car, label.var),)
    if kind == "recv-upd":
        return (RecvItem(label.msg),)[skip:]
    e = label.event  # a system event, after a timeout or a reception for those kinds
    items = (SysItem(car, e.name, e.peer, e.data, e.special),)
    if kind == "timeout-sys":
        items = (TimeoutItem(car, e.name),) + items
    elif kind == "recv-sys":
        items = (RecvItem(label.msg),) + items
    return items[skip:]


class _Machine:
    __slots__ = ("owner", "state_names", "state_idx", "vars", "init", "finals", "env",
                 "econd", "timeouts", "recv", "live")

    def __init__(self, csa: Csa, intern):
        owner = self.owner = csa.owner
        self.state_names = list(csa.states)
        state_idx = self.state_idx = {s: i for i, s in enumerate(csa.states)}
        self.vars = list(csa.vars)
        var_idx = {v: i for i, v in enumerate(csa.vars)}
        self.init = state_idx[csa.init]
        self.finals = frozenset(state_idx[s] for s in csa.finals)
        n = len(csa.states)
        # Per state, built by copying, so that states without moves of a kind
        # share one empty tuple or dict.
        env = self.env = [()] * n            # ((name, owner, peer, data), move)
        econd = self.econd = [()] * n        # (guarded counter, op, bound, move)
        timeouts = self.timeouts = [()] * n  # move
        recv = self.recv = [_NO_RECV] * n    # msg id -> moves
        pred = [[] for _ in range(n)]
        live = [0] * n  # per state, a bit per counter a guard there reads

        def receive(s, m, move):
            recv[s] = {**recv[s], m: recv[s].get(m, ()) + (move,)}

        for (src, label), dst in csa.ordered_transitions:
            s, d = state_idx[src], state_idx[dst]
            pred[d].append(s)
            note, kind = (owner, label, 0), label.kind
            if kind == "env":
                e = label.event
                env[s] += (((e.name, owner, e.peer, e.data), (_ENV, None, _TAIL_OTHER, d, note)),)
            elif kind == "broadcast":
                c = label.cond
                vi = var_idx[c.var]
                econd[s] += ((vi, c.op, c.bound, (None, None, ("b", intern(label.msg)), d, note)),)
                live[s] |= 1 << vi
            elif kind == "timeout-upd":
                timeouts[s] += ((None, var_idx[label.var], _TAIL_OTHER, d, note),)
            elif kind == "recv-upd":
                m = intern(label.msg)
                receive(s, m, (None, var_idx[label.var], ("r", m), d, note))
            else:  # a system event: plain ones fuse with the target sequence
                e = label.event
                fuse = (e.name, e.peer, owner, e.data) if e.special is None else None
                move = (fuse, None, _TAIL_OTHER, d, note)
                if kind == "sys-cond":
                    c = label.cond
                    vi = var_idx[c.var]
                    econd[s] += ((vi, c.op, c.bound, move),)
                    live[s] |= 1 << vi
                elif kind == "timeout-sys":
                    timeouts[s] += (move,)
                else:
                    receive(s, intern(label.msg), move)
        # A counter is live at a state if a guard there reads it or it is live
        # at a successor; increments alone do not make it live.  self.live[s]
        # holds one 1/0 factor per counter, or None when every counter is live.
        work = [s for s in range(n) if live[s]]
        while work:
            d = work.pop()
            for s in pred[d]:
                if live[d] & ~live[s]:
                    live[s] |= live[d]
                    work.append(s)
        nv = len(self.vars)
        keep = {(1 << nv) - 1: None}
        for mask in live:
            if mask not in keep:
                keep[mask] = tuple((mask >> vi) & 1 for vi in range(nv))
        self.live = [keep[mask] for mask in live]


class _Compiled(tuple):
    """CSAs in owner order, with the part of the engine that no target
    sequence changes compiled once: a _Machine per car, the car index, and an
    id per message with the index of its destination car.  It is a tuple of
    the CSAs, so check_correctness passes it to explore_sync as its csas."""

    def __new__(cls, csas: Sequence[Csa]):
        ordered = sorted(csas, key=lambda c: c.owner)
        for a, b in zip(ordered, ordered[1:]):
            if a.owner == b.owner:
                raise ValueError(f"two CSAs share the owner {a.owner}")
        return super().__new__(cls, ordered)

    def __init__(self, csas):
        self.cars = [c.owner for c in self]
        self.car_idx = {c: i for i, c in enumerate(self.cars)}
        self.msg_ids: dict = {}
        self.msg_dst: list = []
        self.machines = [_Machine(c, self.intern) for c in self]

    def intern(self, msg: Message) -> int:
        key = (msg.id, msg.src, msg.dst, msg.data)  # what Message equality compares
        i = self.msg_ids.get(key)
        if i is None:
            i = self.msg_ids[key] = len(self.msg_dst)
            self.msg_dst.append(self.car_idx.get(msg.dst))
        return i


class _Engine:
    def __init__(self, csas: Sequence[Csa], sigma: Sequence[GlobalEvent]):
        compiled = csas if isinstance(csas, _Compiled) else _Compiled(csas)
        self.machines, self.cars, self.car_idx = compiled.machines, compiled.cars, compiled.car_idx
        self.msg_dst = compiled.msg_dst
        self.sigma = tuple(sigma)
        # what an environment-triggered event must match after k fired ones
        self.wanted = [(e.name, e.src, e.dst, e.data) for e in self.sigma] + [None]
        for ev in self.sigma:
            if ev.src not in self.car_idx or ev.dst not in self.car_idx:
                raise ValueError(f"event {ev} references a car with no CSA")

    def initial(self):
        priority = self.sigma[0].src if self.sigma else self.cars[0]
        locals_ = tuple((m.init, (0,) * len(m.vars)) for m in self.machines)
        return (locals_, self.car_idx[priority], _TAIL_OTHER, 0, 0, 0)

    def step(self, cfg):
        """The engine's first successor of cfg: (config, note, dropped, more),
        where note names the trace items of the move taken (_trace_items), or
        is None when none is.  dropped is the config a drop leaves at a
        medium decision, where config is the first delivery, and None
        elsewhere; more tells whether any other successor exists.  config is
        None when cfg is stuck and _DEAD when the deduction dies.  The order:
        the destination's receptions at a broadcast tail; else the priority
        holder's immediate moves, or else its timeouts; else a hand-off."""
        locals_, pr, tail, done, pending, parts = cfg
        dropped, more = None, False
        if tail[0] == "b":
            msg = tail[1]
            x = self.msg_dst[msg]
            moves = None if x is None else self.machines[x].recv[locals_[x][0]].get(msg)
            lost = (locals_, pr if x is None else x, tail[2], done, pending, parts)
            if not moves:  # no receiver is ready: the broadcast is discarded
                return lost, None, None, False
            move, more, dropped = moves[0], len(moves) > 1, lost
        else:
            # Immediate moves: the environment-triggered events the target
            # sequence asks for next, then enabled conditional moves.
            x, want, move = pr, self.wanted[done + pending], None
            m = self.machines[pr]
            state, vals = locals_[pr]
            for key, mv in m.env[state]:
                if key == want:
                    more, move = move is not None, move or mv
            for vi, op, bound, mv in m.econd[state]:
                if vals[vi] <= bound if op == "<=" else vals[vi] > bound:
                    more, move = move is not None, move or mv
            if move is None:
                moves = m.timeouts[state]
                if moves:
                    move, more = moves[0], len(moves) > 1
                else:
                    moves = self._hand_off(locals_, tail, want)
                    x, move = next(moves, (None, None))
                    if move is None:
                        return None, None, None, False
                    more = next(moves, None) is not None
        fuse, inc, new_tail, dst, note = move
        if fuse is _ENV:
            if pending:  # a second call while one is pending kills the deduction
                return _DEAD, note, None, more
            pending = 1
        elif pending and fuse == self.wanted[done]:
            # A plain system event matching the pending environment event
            # fuses into the next global event of the target sequence.
            done, pending = done + 1, 0
        vals = locals_[x][1]
        if inc is not None:
            vals = vals[:inc] + (vals[inc] + 1,) + vals[inc + 1:]
        keep = self.machines[x].live[dst]  # zero the counters dead at the new state
        if keep is not None:
            vals = tuple(map(mul, vals, keep))
        if new_tail[0] == "b":
            new_tail += (tail,)
        return ((locals_[:x] + ((dst, vals),) + locals_[x + 1:], x, new_tail, done, pending,
                 parts | (1 << x)), note, dropped, more)

    def _hand_off(self, locals_, tail, want):
        # Any car may act, by any rule, and takes the priority: (car, move)
        # in car order.  A reception of the message at the tail appends no
        # RecvItem.
        msg = tail[1] if tail[0] == "r" else None
        for x, m in enumerate(self.machines):
            state, vals = locals_[x]
            for key, move in m.env[state]:
                if key == want:
                    yield x, move
            for vi, op, bound, move in m.econd[state]:
                if vals[vi] <= bound if op == "<=" else vals[vi] > bound:
                    yield x, move
            for move in m.timeouts[state]:
                yield x, move
            for fuse, inc, new_tail, dst, note in m.recv[state].get(msg, ()):
                yield x, (fuse, inc, new_tail, dst, note[:2] + (1,))

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

_SUCCESS, _FAILURE = "success", "failure"
_OPEN = "open"  # value of a node whose backward pass is under way


class _Node:
    # A medium decision, or one of the two ends below.  raw: the engine's
    # (delivered, dropped) configs, until link replaces them with deliver and
    # drop, the outcomes as nodes (None for an outcome of probability 0);
    # value: the probability of success, from the backward pass.
    __slots__ = ("raw", "deliver", "drop", "value")

    def __init__(self, raw=None, value=None):
        self.raw, self.value = raw, value
        self.deliver = self.drop = None


_SUCCESS_NODE = _Node(value=1)
_FAILURE_NODE = _Node(value=0)


def _cycle(why: str) -> DivergenceDetected:
    return DivergenceDetected(f"deduction cycle: a configuration {why}")


class _Graph:
    """The deductions of (CSAs, sigma) of positive probability at drop_prob
    under one scheduler, built lazily.

    Where the engine offers a choice that is no medium decision, the graph
    follows its first successor, and at a medium decision its first
    delivery; synthesized CSAs offer no such choice.  A node is an end or a
    medium decision: every config on the way to one maps to it.  Configs
    come from an engine that zeroes the counters dead at each car's state,
    which merges configs no guard tells apart.  The budget bounds the
    distinct configs.
    """

    def __init__(self, csas, sigma, drop_prob):
        self.engine = _Engine(csas, sigma)
        self.drop_prob = drop_prob
        self.budget = _budget()
        self.nodes: dict = {}
        self.branching = False  # the first-successor order resolved some choice
        self.root = self.node(self.engine.initial())

    def node(self, cfg) -> _Node:
        # Walk first successors from cfg to the next medium decision or end.
        # Each new config is hashed once, into nodes with this walk's mark: a
        # config met again with the mark is a cycle, one with another node
        # joins an earlier walk.  The mark becomes the medium node the walk
        # ends at; a walk that ends elsewhere maps its configs to that end.
        nodes, step, is_success = self.nodes, self.engine.step, self.engine.is_success
        mark, trail = _Node(), []
        size, n_sigma = len(nodes), len(self.engine.sigma)
        while cfg is not _DEAD:
            found = nodes.setdefault(cfg, mark)
            if found is not mark:
                break
            if len(nodes) == size:
                raise _cycle("repeats with no medium decision in between")
            size += 1
            if size > self.budget:
                raise DivergenceDetected(
                    f"exploration exceeded {self.budget} configurations; "
                    "set PROTOFORGE_BUDGET to raise the limit"
                )
            trail.append(cfg)
            if cfg[3] == n_sigma and is_success(cfg):
                found = _SUCCESS_NODE
                break
            cfg, _, dropped, more = step(cfg)
            if more:
                self.branching = True
            if dropped is not None:
                mark.raw = (cfg, dropped)
                return mark
            if cfg is None:  # stuck
                found = _FAILURE_NODE
                break
        else:  # dead
            found = _FAILURE_NODE
        for c in trail:
            nodes[c] = found
        return found

    def link(self, node):
        delivered, dropped = node.raw
        node.raw = None
        node.deliver = self.node(delivered) if self.drop_prob < 1.0 else None
        node.drop = self.node(dropped) if self.drop_prob > 0.0 else None


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
    # Some choice that is no medium decision was resolved by the engine's
    # order; synthesized CSAs never offer one.
    scheduler_branching: bool


def explore_sync(
    csas: Sequence[Csa],
    drop_prob: float,
    sigma: Sequence[GlobalEvent],
) -> ExplorationResult:
    """The probability that the CSAs synchronize sigma, exactly.

    A backward pass over the deduction graph: a config in which every
    participating CSA rests in a final state and the projection equals sigma
    is worth 1, a stuck or dead one 0, and a medium node (1 - drop_prob)
    times its delivery plus drop_prob times its drop.  Choices that are no
    medium decision are resolved as `run_monte_carlo` resolves them, so the
    value is the probability of its runs.  A cycle raises
    DivergenceDetected.  The pass runs in _EXACT on the decimal of drop_prob.
    """
    graph = _Graph(csas, sigma, drop_prob)
    d = Decimal(repr(drop_prob))
    with localcontext(_EXACT):
        rho = 1 - d
        stack = [graph.root]
        while stack:
            node = stack[-1]
            if node.value is None:
                node.value = _OPEN
                graph.link(node)
                for child in (node.deliver, node.drop):
                    if child is None:
                        continue
                    if child.value is None:
                        stack.append(child)
                    elif child.value is _OPEN:
                        raise _cycle("is reachable from itself; exact exploration needs an "
                                     "acyclic deduction graph")
                continue
            if node.value is _OPEN:
                node.value = (0 if node.deliver is None else rho * node.deliver.value) + \
                    (0 if node.drop is None else d * node.drop.value)
            stack.pop()
        return ExplorationResult(Fraction(graph.root.value), len(graph.nodes), graph.branching)


# ---------------------------------------------------------------------------
# Correctness


@dataclass(frozen=True)
class SequenceCheck:
    events: tuple[GlobalEvent, ...]
    required: float  # read as its decimal, like drop_prob
    achieved: Fraction

    @functools.cached_property
    def margin(self) -> Fraction:
        # Computed once: a verdict and the printed margin both read it.
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
    compiled = _Compiled(csas)  # a sequence of the CSAs, each compiled once for every sigma
    checks = tuple(
        SequenceCheck(pseq.events, pseq.p,
                      explore_sync(compiled, drop_prob, pseq.events).probability)
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
    runs and their traces are the same for any runs >= n.  Choices that are
    no medium decision are resolved in the fixed order explore_sync uses.
    DivergenceDetected is raised before the first run when a run can reach,
    at positive probability, a loop it can never leave.
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


# Walk-table entries for the end of a run.  _Tables.walk counts successes
# from the sum of the end codes, so they must stay -1 and -2: with s
# successes in n runs the codes sum to -s - 2(n - s) = s - 2n.
_END_SUCCESS, _END_FAILURE = -1, -2


class _Tables:
    """Next-medium-node tables over a deduction graph, for sampled runs.

    Index i names the i-th medium node reached from the root.  deliver[i] and
    drop[i] give the index of the medium node a run reaches next after that
    outcome, or _END_SUCCESS / _END_FAILURE at an end.  An outcome of
    probability 0 holds _END_FAILURE and is never read.

    Every index can reach an end through outcomes of positive probability, or
    the build raises DivergenceDetected.  A walk is then absorbed with
    probability 1 (the tables are a finite absorbing Markov chain), so it
    needs no step bound.
    """

    def __init__(self, graph: _Graph):
        self.graph = graph
        self.index: dict = {}  # medium node -> index
        self.nodes: list = []
        self.root = self._entry(graph.root)
        self.deliver: list = []
        self.drop: list = []
        for node in self.nodes:  # _entry appends the nodes met along the way
            if node.raw is not None:
                graph.link(node)
            self.deliver.append(self._entry(node.deliver))
            self.drop.append(self._entry(node.drop))
        self._check_ends()

    def walk(self, runs: int, draw) -> int:
        """Walk runs from the root and return how many succeed.  Each
        medium decision calls draw() once and drops the message when the
        result is below the drop probability.

        A run pays only for its draws: a root that is an end decides every
        run with no draw, each run's first decision reads the root's two
        entries fetched once, and successes are counted from the sum of the
        end codes rather than by a compare per run."""
        d, deliver, drop, root = self.graph.drop_prob, self.deliver, self.drop, self.root
        if root < 0:
            return runs if root == _END_SUCCESS else 0
        first_drop, first_deliver = drop[root], deliver[root]
        ends = 0
        for _ in repeat(None, runs):
            i = first_drop if draw() < d else first_deliver
            while i >= 0:
                i = drop[i] if draw() < d else deliver[i]
            ends += i
        return 2 * runs + ends

    def _entry(self, node: Optional[_Node]) -> int:
        # The index of a medium node, or the code of an end; None, an outcome
        # of probability 0, ends in failure.
        if node is None or node is _FAILURE_NODE:
            return _END_FAILURE
        if node is _SUCCESS_NODE:
            return _END_SUCCESS
        i = self.index.get(node)
        if i is None:
            i = self.index[node] = len(self.nodes)
            self.nodes.append(node)
        return i

    def _check_ends(self) -> None:
        # Raise unless every index reaches an end through outcomes of
        # positive probability: search backward from the entries that end.
        into: list = [[] for _ in self.nodes]
        ending = set()
        for i, node in enumerate(self.nodes):
            for child, t in ((node.deliver, self.deliver[i]), (node.drop, self.drop[i])):
                if child is None:
                    continue
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
        if 0.0 < self.graph.drop_prob < 1.0:
            raise _cycle("repeats, and no random medium outcome leaves its loop")
        raise _cycle("repeats with no random medium outcome in between")


def _trace(graph: _Graph, run: int, draw) -> dict:
    """One run stepped through the engine from the initial config, with its
    record.  Each medium config calls draw() once and drops the message when
    the result is below the drop probability, as _Tables.walk does; elsewhere
    the run takes the first successor, up to the end."""
    engine, rho, cfg, d = graph.engine, [], graph.engine.initial(), graph.drop_prob
    while not engine.is_success(cfg):
        nxt, note, dropped, _ = engine.step(cfg)
        if nxt is None:
            break  # stuck
        if dropped is not None and draw() < d:
            nxt, note = dropped, None
        if cfg[2][0] == "b":  # a step from a broadcast tail delivers, drops or discards it
            rho.pop()
        if note is not None:
            rho.extend(_trace_items(note))
        if nxt is _DEAD:
            break
        cfg = nxt
    return {
        "run": run,
        "outcome": _SUCCESS if engine.is_success(cfg) else _FAILURE,
        "rho": [str(item) for item in rho],
        "final_states": {m.owner: m.state_names[cfg[0][x][0]]
                         for x, m in enumerate(engine.machines)},
    }
