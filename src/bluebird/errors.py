"""Exception types shared across the engines."""


class BluebirdError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BluebirdError):
    """Raised on malformed term or sequence text. Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StepBudgetExceeded(BluebirdError):
    """A reduction did not finish within its step budget."""

    def __init__(self, budget: int):
        super().__init__(f"reduction exceeded the step budget of {budget}")
        self.budget = budget


class NotBFormShape(BluebirdError):
    """A lambda term is not (or does not normalize to) the shape produced by
    applicative combinations of the B combinator: a prefix of binders over a
    head variable applied left-to-right to each remaining variable exactly once."""


class CycleNotFound(BluebirdError):
    """No repeat X^(i) = X^(j) was observed within the search horizon."""

    def __init__(self, max_steps: int):
        super().__init__(f"no cycle found within {max_steps} steps")
        self.max_steps = max_steps


class CheckpointIO(BluebirdError):
    """A checkpoint file could not be read, parsed, or matched to the request."""


class FormatVersionMismatch(CheckpointIO):
    """A checkpoint file does not carry the version header this code understands."""
