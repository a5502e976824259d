"""Exception types shared across the package."""


class GeowaveError(Exception):
    """Base class for every package-specific error."""


# -- geometry ---------------------------------------------------------------

class OutsideTubularNeighborhood(GeowaveError):
    """A point lies outside the tubular neighborhood where the reflection is an involution."""


# -- function spaces --------------------------------------------------------

class IntervalOutsideGrid(GeowaveError):
    """The requested interval is not covered by the sample lattice."""


class HorizonExceeded(GeowaveError):
    """A time at or beyond the cone horizon was requested."""


class UnsupportedOrder(GeowaveError):
    """Derivative/extension order outside the implemented range {0, 1, 2}."""


# -- noise ------------------------------------------------------------------

class EmptyMeasure(GeowaveError):
    """The spectral measure has no atoms."""


class NonpositiveDt(GeowaveError):
    """Increment step dt must be strictly positive."""


class DimensionMismatch(GeowaveError):
    """Coefficient vector length does not match the basis dimension."""


class QuadratureNotConverged(GeowaveError):
    """Refining the frequency grid moved the result by more than the allowed 1%."""


# -- wave group -------------------------------------------------------------

class NonLatticeTime(GeowaveError):
    """Group time is not an integer multiple of the lattice spacing."""


class InsufficientPadding(GeowaveError):
    """The lattice is too small to shift by the requested amount."""


# -- solver -----------------------------------------------------------------

class ConeExhausted(GeowaveError):
    """The shrinking localization window has closed (t >= r)."""


class OffManifoldInitialData(GeowaveError):
    """Initial data violates the manifold constraint beyond tolerance."""


class BlowupDetected(GeowaveError):
    """Threshold escalation exhausted k_max; the run is treated as exploding."""


# -- energy -----------------------------------------------------------------

class MissingIncrementLog(GeowaveError):
    """A stochastic trajectory lacks the per-step noise increments the verifier needs."""


# -- ldp --------------------------------------------------------------------

class OptimizerDiverged(GeowaveError):
    """The descent produced non-finite or unboundedly growing objective values."""


class InsufficientTrials(GeowaveError):
    """Monte Carlo probe called with fewer trials than the contract allows."""


class AllZeroCounts(GeowaveError):
    """Every exceedance count is zero; delta is too large for the given noise range."""


# -- cli --------------------------------------------------------------------

class ConfigInvalid(GeowaveError):
    """Configuration file is malformed; the message names the offending key."""
