"""Exception types shared across the toolkit, and its one work budget."""

import os

DEFAULT_BUDGET = 10_000_000  # units of work; PROTOFORGE_BUDGET overrides it


class ProtoforgeError(Exception):
    """Base class for all toolkit errors."""


class _SpecPositionError(ProtoforgeError):
    """An error at a line and column (both from 1) of a .psl file."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SpecSyntaxError(_SpecPositionError):
    """Raised when a .psl file does not conform to the grammar."""


class ProbabilityOutOfRange(_SpecPositionError):
    """A delta or probability annotation lies outside [0, 1]."""


class NotWellPosed(ProtoforgeError):
    """The protocol specification fails the well-posedness checks."""

    def __init__(self, report):
        super().__init__("; ".join(v.message for v in report.violations))
        self.report = report


class MissingBound(ProtoforgeError):
    """No retransmission bound was supplied for an event."""


class Unrealizable(ProtoforgeError):
    """No retransmission bounds can meet the QoS requirements."""


class SequenceTooShort(ProtoforgeError):
    """Synchronization probabilities are only defined for two or more bounds."""


class DivergenceDetected(ProtoforgeError):
    """Deduction or the bound search exceeded its budget, or deduction cycled."""


class InvalidParams(ProtoforgeError):
    """Physical medium parameters violate their domain constraints."""


def _budget() -> int:
    """PROTOFORGE_BUDGET, or DEFAULT_BUDGET when it is unset or empty: the
    distinct configs of an exploration, or the candidate vectors of a bound
    search.  Anything but a positive integer raises ValueError."""
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
