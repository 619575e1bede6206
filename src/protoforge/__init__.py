"""protoforge: synthesis and verification of QoS-guaranteed car-to-car protocols.

Turns a protocol specification annotated with required synchronization
probabilities into one communication service automaton per car, with
retransmission bounds that provably meet the requirements under an assumed
message-drop probability; verifies the result both by exact execution of the
deduction semantics and by seeded Monte Carlo simulation.
"""

from .bounds import Infeasible, solve_opt, realizable, sup_sync_prob_two, sync_prob, sync_prob_two
from .csa import (
    BroadcastCond,
    Condition,
    Csa,
    EnvEvent,
    LocalEvent,
    Message,
    RecvSys,
    RecvUpd,
    SysCond,
    TimeoutSys,
    TimeoutUpd,
    export_dot,
    export_json,
    import_json,
    isomorphic,
    validate,
)
from .errors import (
    DivergenceDetected,
    InvalidParams,
    MissingBound,
    NotWellPosed,
    ProbabilityOutOfRange,
    ProtoforgeError,
    SequenceTooShort,
    SpecSyntaxError,
    Unrealizable,
)
from .medium import MediumParams, drop_prob, feasibility_sweep, sweep_csv
from .semantics import CorrectnessReport, MonteCarloResult, check_correctness, explore_sync, run_monte_carlo
from .speclang import (
    FullSpec,
    GlobalEvent,
    Leaf,
    Or,
    PSequence,
    Seq,
    enumerate_sequences,
    events_of,
    format_protocol,
    format_spec,
    parse_spec,
    satisfies,
    well_posed,
)
from .synthesis import SynthesisResult, bounds_by_name, event_bindings, synthesize_all, synthesize_for_car

__version__ = "0.1.0"
