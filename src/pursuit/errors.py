"""Exception types shared across the package."""


class PursuitError(Exception):
    """Base class for all package-specific errors."""


class MalformedPointError(PursuitError, ValueError):
    """A point does not belong to the space it was used with."""


class ArityError(PursuitError, ValueError):
    """A position has no cops."""


class AgilityError(PursuitError, ValueError):
    """An agility operation received an unusable schedule."""


class ConfigError(PursuitError, ValueError):
    """A run configuration or space description is invalid."""


class CapacityError(PursuitError):
    """A resource budget (net points, solver states) would be exceeded."""

    def __init__(self, what: str, required: int, available: int):
        self.what = what
        self.required = required
        self.available = available
        super().__init__(
            f"{what}: required {required} exceeds budget {available}"
        )


class UnknownStrategyError(PursuitError, LookupError):
    """A strategy name is not in the built-in catalog."""


class StrategyFaultError(PursuitError):
    """A strategy returned a move that violates the step budget."""

    def __init__(self, side: str, step: int, detail: str = ""):
        self.side = side
        self.step = step
        msg = f"strategy fault ({side}, step {step})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PlayoutError(PursuitError):
    """A policy was undefined or unusable at a reached position."""

    def __init__(self, position, step: int, detail: str = ""):
        self.position = position
        self.step = step
        msg = f"playout failed at step {step}, position {position}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
