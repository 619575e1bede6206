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
that order, each in `Csa.transitions` order (by source state, then label
text); a delivered broadcast goes to the first reception enabled for it.  The engine takes the first
successor in that order and looks no further.  Synthesized CSAs never offer
such a choice; hand-written ones may.  A nondeterministic model has a
probability only once its choices are resolved, so both checks resolve them
alike, and the exact value is the probability of the runs Monte Carlo samples.

All these rules are implemented once, in `_Engine`.  Its part that no target
sequence changes, a `_Machine` per CSA and an integer id per message (the
message in an engine config is its id), is compiled once per check:
`check_correctness` compiles each CSA once for all its sequences.  `_Graph`
builds from the engine one lazily compiled deduction graph per (CSAs, sigma)
whose nodes are the medium decisions and the ends, with dead counters zeroed.
Each medium node is numbered once, when the walk of first successors that
reaches it ends there, and the graph keeps, per id, the ids its delivery and
its drop lead to.  `explore_sync` evaluates those lists backward in exact
decimals; `run_monte_carlo` links them whole, checks that every node can
end, and walks them.  A traced run steps the engine itself from the initial
config, drawing at each medium config as the walk does, and builds rho as it
goes.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Optional, Sequence

from .csa import Csa, Message
from .errors import DivergenceDetected, _budget
from .speclang import GlobalEvent, SpecNode, enumerate_sequences

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
# (car, label) names the trace items the move appends to rho (_step_items).
# Only traced runs build trace items.

_TAIL_OTHER = ("o",)
_DEAD = "dead"
_ENV = "env"
_NO_RECV: dict = {}  # the receptions of a state without any; never changed


def _trace_items(note) -> tuple:
    """The trace items of a move's note: for a reception, led by its RecvItem."""
    car, label = note
    kind = label.kind
    if kind == "env":
        e = label.event
        return (EnvItem(car, e.name, e.peer, e.data),)
    if kind == "broadcast":
        return (BroadcastItem(label.msg),)
    if kind == "timeout-upd":
        return (TimeoutItem(car, label.var),)
    if kind == "recv-upd":
        return (RecvItem(label.msg),)
    e = label.event  # a system event, after a timeout or a reception for those kinds
    items = (SysItem(car, e.name, e.peer, e.data, e.special),)
    if kind == "timeout-sys":
        items = (TimeoutItem(car, e.name),) + items
    elif kind == "recv-sys":
        items = (RecvItem(label.msg),) + items
    return items


def _step_items(tail, note) -> tuple:
    """The trace items a step from a config with this tail appends to rho.
    Only a hand-off receives at an ("r", msg id) tail, and rho ends with its RecvItem."""
    items = _trace_items(note)
    return items[1:] if tail[0] == "r" and type(items[0]) is RecvItem else items


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

        for (src, label), dst in csa.transitions.items():
            s, d = state_idx[src], state_idx[dst]
            pred[d].append(s)
            note, kind = (owner, label), label.kind
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
        """The engine's first successor of cfg: (config, note, dropped),
        where note names the trace items of the move taken (_step_items), or
        is None when none is.  dropped is the config a drop leaves at a
        medium decision, where config is the first delivery, and None
        elsewhere.  config is None when cfg is stuck and _DEAD when the
        deduction dies.  The order: the destination's receptions at a
        broadcast tail; else the priority holder's own moves; else a
        hand-off, to the first car in car order with an own move or a
        reception of the message at a ("r", msg id) tail."""
        locals_, pr, tail, done, pending, parts = cfg
        dropped = None
        if tail[0] == "b":
            msg = tail[1]
            x = self.msg_dst[msg]
            moves = None if x is None else self.machines[x].recv[locals_[x][0]].get(msg)
            lost = (locals_, pr if x is None else x, tail[2], done, pending, parts)
            if not moves:  # no receiver is ready: the broadcast is discarded
                return lost, None, None
            move, dropped = moves[0], lost
        else:
            want = self.wanted[done + pending]
            x, move = pr, self._own_move(locals_[pr], self.machines[pr], want)
            if move is None:  # a hand-off: the car that moves takes the priority
                msg = tail[1] if tail[0] == "r" else None
                for x, m in enumerate(self.machines):
                    move = self._own_move(locals_[x], m, want)
                    if move is not None:
                        break
                    moves = m.recv[locals_[x][0]].get(msg)
                    if moves:
                        move = moves[0]
                        break
                else:
                    return None, None, None
        fuse, inc, new_tail, dst, note = move
        if fuse is _ENV:
            if pending:  # a second call while one is pending kills the deduction
                return _DEAD, note, None
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
                 parts | (1 << x)), note, dropped)

    @staticmethod
    def _own_move(local, m, want):
        # A car's first own move: the environment-triggered event the target
        # sequence asks for next, else an enabled conditional move, else its
        # first timeout; None when it has none.
        state, vals = local
        for key, move in m.env[state]:
            if key == want:
                return move
        for vi, op, bound, move in m.econd[state]:
            if vals[vi] <= bound if op == "<=" else vals[vi] > bound:
                return move
        moves = m.timeouts[state]
        return moves[0] if moves else None

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
# The ends of a deduction, as node ids.  _walk counts successes from the sum
# of the ends it reaches, so they must stay -1 and -2: with s successes in n
# runs they sum to -s - 2(n - s) = s - 2n.
_END_SUCCESS, _END_FAILURE = -1, -2


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

    A medium node's id is its index in three lists: raw[i] holds the
    engine's (delivered, dropped) configs until link(i) replaces them with
    None, and deliver[i] and drop[i] the id of the node each outcome leads
    to, an end or a medium node.  An outcome of probability 0 is never
    followed and leads to _END_FAILURE.
    """

    def __init__(self, csas, sigma, drop_prob):
        self.engine = _Engine(csas, sigma)
        self.drop_prob = drop_prob
        self.budget = _budget()
        self.nodes: dict = {}  # config -> node id
        self.raw: list = []
        self.deliver: list = []
        self.drop: list = []
        self.root = self.node(self.engine.initial())

    def node(self, cfg) -> int:
        # Walk first successors from cfg to the next medium decision or end.
        # Each new config is hashed once, into nodes with this walk's mark,
        # the next free id: a config met again with the mark is a cycle, one
        # with another id joins an earlier walk.  The mark becomes the id of
        # the medium node the walk ends at; a walk that ends elsewhere maps
        # its configs to that end, which leaves the mark free for the next.
        nodes, step, is_success = self.nodes, self.engine.step, self.engine.is_success
        mark, trail = len(self.raw), []
        size, n_sigma = len(nodes), len(self.engine.sigma)
        while cfg is not _DEAD:
            found = nodes.setdefault(cfg, mark)
            if found != mark:
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
                found = _END_SUCCESS
                break
            cfg, _, dropped = step(cfg)
            if dropped is not None:
                self.raw.append((cfg, dropped))
                self.deliver.append(_END_FAILURE)
                self.drop.append(_END_FAILURE)
                return mark
            if cfg is None:  # stuck
                found = _END_FAILURE
                break
        else:  # dead
            found = _END_FAILURE
        for c in trail:
            nodes[c] = found
        return found

    def link(self, i: int) -> None:
        delivered, dropped = self.raw[i]
        self.raw[i] = None
        if self.drop_prob < 1.0:
            self.deliver[i] = self.node(delivered)
        if self.drop_prob > 0.0:
            self.drop[i] = self.node(dropped)


# ---------------------------------------------------------------------------
# Exact exploration

# Sums and products of finite decimals never round in this context.  A float
# is read as its shortest decimal, repr(x): for a decimal of up to 15
# significant digits, that is the text it was parsed from.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_OPEN = "open"  # value of a node whose backward pass is under way


@dataclass
class ExplorationResult:
    probability: Fraction  # exact, at the decimal of drop_prob
    configs_processed: int  # distinct configs, dead counters zeroed


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
    deliver, drop = graph.deliver, graph.drop
    d = Decimal(repr(drop_prob))
    value = {_END_SUCCESS: 1, _END_FAILURE: 0}  # node id -> probability of success
    with localcontext(_EXACT):
        rho = 1 - d
        stack = [graph.root]
        while stack:
            i = stack[-1]
            v = value.get(i)
            if v is None:
                value[i] = _OPEN
                graph.link(i)
                for child in (deliver[i], drop[i]):
                    c = value.get(child)
                    if c is None:
                        stack.append(child)
                    elif c is _OPEN:
                        raise _cycle("is reachable from itself; exact exploration needs an "
                                     "acyclic deduction graph")
                continue
            if v is _OPEN:
                value[i] = rho * value[deliver[i]] + d * value[drop[i]]
            stack.pop()
        return ExplorationResult(Fraction(value[graph.root]), len(graph.nodes))


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

    Each run walks the linked deduction graph from its root, drawing one
    number per medium node it passes; a traced run steps the engine instead
    and draws at the same configs.  All runs of a call share one stream,
    seeded from the seed's decimal text (so seeds 5 and -5 differ), and run
    k takes its draws after runs 0..k-1.  The output is
    deterministic for a given seed and sigma, and prefix-stable: the first n
    runs and their traces are the same for any runs >= n.  Choices that are
    no medium decision are resolved in the fixed order explore_sync uses.
    DivergenceDetected is raised before the first run when a run can reach,
    at positive probability, a loop it can never leave.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    graph = _Graph(csas, sigma, drop_prob)
    _link_all(graph)  # it raises on a loop before any run, traced or not
    rng = random.Random(str(seed))
    if collect_traces:
        traces = [_trace(graph, k, rng.random) for k in range(runs)]
        successes = sum(t["outcome"] == _SUCCESS for t in traces)
    else:
        traces, successes = None, _walk(graph, runs, rng.random)
    return MonteCarloResult(runs, successes, runs - successes, successes / runs, traces)


def _link_all(graph: _Graph) -> None:
    """Link every medium node of a graph none of whose nodes is linked yet,
    and raise DivergenceDetected unless each can reach an end through
    outcomes of positive probability.  A walk is then absorbed with
    probability 1 (the graph is a finite absorbing Markov chain), so it
    needs no step bound."""
    raw, d = graph.raw, graph.drop_prob
    for i, _ in enumerate(raw):  # linking node i appends the new nodes it meets
        graph.link(i)
    # Search backward from the outcomes that end.
    into: list = [[] for _ in raw]
    ending = set()
    for side, followed in ((graph.deliver, d < 1.0), (graph.drop, d > 0.0)):
        if followed:
            for i, t in enumerate(side):
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
    if len(ending) == len(raw):
        return
    if 0.0 < d < 1.0:
        raise _cycle("repeats, and no random medium outcome leaves its loop")
    raise _cycle("repeats with no random medium outcome in between")


def _walk(graph: _Graph, runs: int, draw) -> int:
    """Walk runs from the root of a linked graph and return how many
    succeed.  Each medium decision calls draw() once and drops the message
    when the result is below the drop probability.

    A run pays only for its draws: a root that is an end decides every run
    with no draw, each run's first decision reads the root's two outcomes
    fetched once, and successes are counted from the sum of the ends rather
    than by a compare per run."""
    d, deliver, drop, root = graph.drop_prob, graph.deliver, graph.drop, graph.root
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


def _trace(graph: _Graph, run: int, draw) -> dict:
    """One run stepped through the engine from the initial config, with its
    record.  Each medium config calls draw() once and drops the message when
    the result is below the drop probability, as _walk does; elsewhere
    the run takes the first successor, up to the end."""
    engine, rho, cfg, d = graph.engine, [], graph.engine.initial(), graph.drop_prob
    while not engine.is_success(cfg):
        nxt, note, dropped = engine.step(cfg)
        if nxt is None:
            break  # stuck
        if dropped is not None and draw() < d:
            nxt, note = dropped, None
        if cfg[2][0] == "b":  # a step from a broadcast tail delivers, drops or discards it
            rho.pop()
        if note is not None:
            rho.extend(_step_items(cfg[2], note))
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
