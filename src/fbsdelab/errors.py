"""Exception types shared across the solver stack."""


class FbsdeLabError(Exception):
    """Base class for all library errors."""


class DomainError(FbsdeLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(FbsdeLabError, ArithmeticError):
    """A coefficient produced a non-finite value.

    Carries the coefficient name and the point at which it failed so the
    offending problem definition can be located, plus that point's flat index
    among the evaluated points and the value there (inf on overflow).
    """

    def __init__(self, coefficient: str, point, index: int = 0, value: float = float("nan")):
        self.coefficient = coefficient
        self.point = point
        self.index = index
        self.value = value
        super().__init__(f"coefficient {coefficient!r} produced a non-finite value at {point}")


class SimulationError(FbsdeLabError, RuntimeError):
    """Forward simulation produced a non-finite state (explosion)."""

    def __init__(self, path_index: int, step: int, message: str):
        self.path_index = path_index
        self.step = step
        super().__init__(message)


class SolverError(FbsdeLabError, RuntimeError):
    """A backward solver (regression, Newton, tridiagonal march) failed."""

    def __init__(self, message: str, step=None):
        self.step = step
        super().__init__(message)


class ConfigError(FbsdeLabError, ValueError):
    """Configuration text failed to parse or validate.

    ``errors`` holds every collected problem, not just the first.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))
