"""Exception and warning types shared across the package."""


class SubcitiesError(Exception):
    """Base class for all errors raised by this package."""


class NegativeDensity(SubcitiesError):
    """A grid density was given a negative cell value."""


class UnboundedDomain(SubcitiesError):
    """An operation requiring a bounded domain received an unbounded one."""


class ZeroMass(SubcitiesError):
    """A measure with zero total mass cannot be normalized."""


class NotProbability(SubcitiesError):
    """A probability measure was required but total mass is not 1."""


class UnbalancedMasses(SubcitiesError):
    """Source and target total masses differ; no transport plan exists."""


class EmptyCloud(SubcitiesError):
    """A point cloud with no points was passed to a transport routine."""


class NoConvergence(SubcitiesError):
    """An iterative solver did not reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class GridTooCoarse(SubcitiesError):
    """The grid cannot support at least one cell per atom."""


class AtomOutsideDomain(SubcitiesError):
    """An atom lies outside the grid domain."""


class NonpositiveMass(SubcitiesError):
    """A positive mass was required."""


class MassOutOfRange(SubcitiesError):
    """A subcity mass outside [0, 1] was requested."""


class InvalidK(SubcitiesError):
    """The number of atoms must be a positive integer."""


class SearchSpaceTooLarge(SubcitiesError):
    """A brute-force instance exceeds its guard limits."""


class IncompatibleGrids(SubcitiesError):
    """Two solutions live on different grids and cannot be compared."""


class ConfigError(SubcitiesError):
    """A run configuration is invalid."""


class ConditionNotSatisfied(UserWarning):
    """The atomization sufficient condition failed; results are degraded."""
