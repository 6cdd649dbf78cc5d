"""Exception types shared across the package."""


class CarlesonLabError(Exception):
    """Base class for all package-specific errors."""


class ResolutionError(CarlesonLabError):
    """A box is finer than the quadrature can resolve."""


class DegenerateWeightError(CarlesonLabError):
    """A box or ball carries zero mass where a positive mass is required."""


class InfiniteMassError(CarlesonLabError):
    """A weight (typically a dual weight) has infinite total mass."""


class MemoryGuardError(CarlesonLabError):
    """A requested quadrature would exceed the configured cell budget."""


class WeightSpecError(CarlesonLabError, ValueError):
    """A weight specification string could not be parsed."""


class ConfigError(CarlesonLabError, ValueError):
    """An argument or environment setting is malformed or out of range."""
