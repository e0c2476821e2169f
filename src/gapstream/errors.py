"""Exception types shared across the engine."""


class GapstreamError(Exception):
    pass


class SpecSyntaxError(GapstreamError):
    def __init__(self, message, line=None, col=None):
        loc = f" at line {line}" if line is not None else ""
        loc += f", col {col}" if col is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


class UnknownIdentifier(SpecSyntaxError):
    pass


class ArityMismatch(SpecSyntaxError):
    pass


class UnsupportedRecursionShape(GapstreamError):
    pass


class TraceError(GapstreamError):
    pass


class OutOfOrderInput(TraceError):
    pass


class UndeclaredStream(TraceError):
    pass


class EpsilonTooCoarse(GapstreamError):
    pass


class BudgetExceeded(GapstreamError):
    pass


class NonTermination(GapstreamError):
    pass


class UnequalProgress(GapstreamError):
    pass


class OperatorError(GapstreamError):
    pass
