"""A reference stepper over the execution engine, for tests.

A global configuration here holds rho itself, states by name, counters and a
float probability.  `global_steps` rebuilds the engine config from it and
steps an engine that keeps every counter, so tests read the counters the rules
wrote, and references built on it show that zeroing dead counters changes no
outcome.
"""

from dataclasses import dataclass

from protoforge import Csa, GlobalEvent
from protoforge.semantics import (_DEAD, _TAIL_OTHER, BroadcastItem, EnvItem, RecvItem, SysItem,
                                  _Compiled, _Engine)


class UnreducedEngine(_Engine):
    """The engine without the zeroing of dead counters."""

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
