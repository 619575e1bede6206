"""A reference stepper over the execution engine, for tests.

`ReferenceEngine.expand` lists every successor of an engine config, rule by
rule as the global rules read, over the same compiled CSAs as the engine; the
engine's own `step` takes only the first of them, and tests check that it
does.  `offered_choices` lists the reachable configs where the rules leave
more than that one successor (at a medium decision, more than one delivery):
synthesized CSAs must offer none.

A global configuration here holds rho itself, states by name, counters and a
float probability.  `global_steps` rebuilds the engine config from it and
steps an engine that keeps every counter, so tests read the counters the rules
wrote, and references built on it show that zeroing dead counters changes no
outcome.
"""

from dataclasses import dataclass
from operator import mul

from protoforge import Csa, GlobalEvent
from protoforge.semantics import (_DEAD, _TAIL_OTHER, BroadcastItem, EnvItem, RecvItem, SysItem,
                                  _Compiled, _Engine, _trace_items)


class ReferenceEngine(_Engine):
    """The engine with every successor listed, in the engine's order."""

    def _e_steps(self, cfg, x):
        # Immediate steps of x: environment-triggered events the target
        # sequence asks for next, then enabled conditional system events and
        # broadcasts.
        locals_, pr, tail, done, pending, parts = cfg
        state, vals = locals_[x]
        m = self.machines[x]
        out = []
        want = self.wanted[done + pending]
        for key, (_, _, _, dst, note) in m.env[state]:
            if key == want:  # while one is pending, a second call kills the deduction
                nl = self._set_local(locals_, x, dst, vals)
                nxt = _DEAD if pending else (nl, x, _TAIL_OTHER, done, 1, parts | (1 << x))
                out.append((nxt, _trace_items(note)))
        for vi, op, bound, move in m.econd[state]:
            if vals[vi] <= bound if op == "<=" else vals[vi] > bound:
                out.append(self._move(cfg, x, move))
        return out

    def _t_steps(self, cfg, x):
        state = cfg[0][x][0]
        return [self._move(cfg, x, move) for move in self.machines[x].timeouts[state]]

    def _r_steps(self, cfg, x, msg):
        # Deliveries to x of the message with id msg.
        state = cfg[0][x][0]
        return [self._move(cfg, x, move) for move in self.machines[x].recv[state].get(msg, ())]

    def _move(self, cfg, x, move):
        locals_, pr, tail, done, pending, parts = cfg
        fuse, inc, new_tail, dst, note = move
        vals = locals_[x][1]
        # A plain system event matching the pending environment event fuses
        # into the next global event of the target sequence.
        if pending and fuse == self.wanted[done]:
            done, pending = done + 1, 0
        if inc is not None:
            vals = vals[:inc] + (vals[inc] + 1,) + vals[inc + 1:]
        if new_tail[0] == "b":
            new_tail = new_tail + (tail,)
        nl = self._set_local(locals_, x, dst, vals)
        return (nl, x, new_tail, done, pending, parts | (1 << x)), _trace_items(note)

    def _set_local(self, locals_, x, state, vals):
        # Zero the counters dead at x's new state.
        keep = self.machines[x].live[state]
        if keep is not None:
            vals = tuple(map(mul, vals, keep))
        return locals_[:x] + ((state, vals),) + locals_[x + 1:]

    def expand(self, cfg):
        """Successors per the global rules, each a (config, trace items) pair.

        Returns ("medium", delivered, dropped) for a pending broadcast with a
        ready receiver, or ("free", successors) otherwise; an empty successor
        list means the configuration is stuck.
        """
        locals_, pr, tail, done, pending, parts = cfg
        if tail[0] == "b":
            msg, restore = tail[1], tail[2]
            z = self.msg_dst[msg]
            received = [] if z is None else self._r_steps(cfg, z, msg)
            if received:
                dropped = ((locals_, z, restore, done, pending, parts), ())
                return ("medium", received, dropped)
            nacc_pr = z if z is not None else pr
            return ("free", [((locals_, nacc_pr, restore, done, pending, parts), ())])

        succs = self._e_steps(cfg, pr) or self._t_steps(cfg, pr)
        if succs:
            return ("free", succs)
        # Hand-off: any CSA may act, by any rule; the actor takes the priority.
        # A reception of the message at the tail appends no RecvItem.
        out = []
        for x in range(len(self.machines)):
            out.extend(self._e_steps(cfg, x))
            out.extend(self._t_steps(cfg, x))
            if tail[0] == "r":
                out.extend((nxt, items[1:]) for nxt, items in self._r_steps(cfg, x, tail[1]))
        return ("free", out)


def reachable(engine):
    """(config, expand(config)) for every config reachable from the initial
    one through any successor, first or not."""
    seen, todo = set(), [engine.initial()]
    while todo:
        cfg = todo.pop()
        if cfg is _DEAD or cfg in seen:
            continue
        seen.add(cfg)
        shape = engine.expand(cfg)
        yield cfg, shape
        todo.extend(nxt for nxt, _ in (shape[1] + [shape[2]] if shape[0] == "medium" else shape[1]))


def offered_choices(csas, sigma) -> list:
    """The reachable configs at which the rules offer a choice that is no
    medium outcome: two successors, or two deliveries of one broadcast."""
    return [cfg for cfg, shape in reachable(ReferenceEngine(csas, sigma)) if len(shape[1]) > 1]


class UnreducedEngine(ReferenceEngine):
    """The reference engine without the zeroing of dead counters."""

    def _set_local(self, locals_, x, state, vals):
        return locals_[:x] + ((state, vals),) + locals_[x + 1:]


def project(rho) -> list:
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


@dataclass(frozen=True)
class LocalConfig:
    state: str
    valuation: tuple  # (counter, value) pairs, in CSA var order

    @staticmethod
    def initial(csa: Csa) -> "LocalConfig":
        return LocalConfig(csa.init, tuple((v, 0) for v in csa.vars))

    def value(self, var: str) -> int:
        return dict(self.valuation)[var]


@dataclass
class GlobalConfig:
    rho: tuple
    locals: dict  # car -> LocalConfig
    priority: str
    prob: float


def initial_config(csas, priority: str) -> GlobalConfig:
    return GlobalConfig(rho=(), locals={c.owner: LocalConfig.initial(c) for c in csas},
                        priority=priority, prob=1.0)


def global_steps(csas, drop_prob: float, gcfg: GlobalConfig, sigma) -> list:
    """All one-step successors of a global configuration under the global
    rules, but those of probability 0 and dead deductions."""
    compiled = _Compiled(csas)
    engine = UnreducedEngine(compiled, sigma)
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
                restore = ("r", compiled.intern(gcfg.rho[-2].msg))
            tail = ("b", compiled.intern(last.msg), restore)
        elif isinstance(last, RecvItem):
            tail = ("r", compiled.intern(last.msg))
    fired = sum(isinstance(item, EnvItem) for item in gcfg.rho)
    cfg = (locals_, engine.car_idx[gcfg.priority], tail, fired, 0, 0)

    shape = engine.expand(cfg)
    if shape[0] == "medium":
        _, received, dropped = shape
        succs = [(s, 1.0 - drop_prob) for s in received] + [(dropped, drop_prob)]
    else:
        succs = [(s, 1.0) for s in shape[1]]

    out = []
    for (nxt, items), factor in succs:
        prob = gcfg.prob * factor
        if prob == 0.0 or nxt is _DEAD:
            continue
        # A step from a broadcast tail delivers, drops or discards the broadcast.
        rho = (gcfg.rho[:-1] if tail[0] == "b" else gcfg.rho) + items
        nl, px, *_ = nxt
        locals_by_car = {car: LocalConfig(m.state_names[nl[x][0]], tuple(zip(m.vars, nl[x][1])))
                         for x, (car, m) in enumerate(zip(engine.cars, engine.machines))}
        out.append(GlobalConfig(rho, locals_by_car, engine.cars[px], prob))
    return out
