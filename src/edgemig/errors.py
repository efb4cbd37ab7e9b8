"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input is outside the domain a function is defined on."""


class CalibrationError(DomainError):
    """A parameter fit is under-determined or otherwise impossible."""


class ScenarioError(DomainError):
    """A scenario document is malformed or inconsistent."""
