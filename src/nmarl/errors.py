"""Domain exceptions shared across the package."""


class NmarlError(Exception):
    """Base class for every error this package raises on purpose."""


class DisconnectedGraph(NmarlError, ValueError):
    """The communication graph does not connect all agents."""


class IndexOutOfRange(NmarlError, IndexError):
    """An agent, state, or action id is outside its valid range."""


class KernelRowNotStochastic(NmarlError, ValueError):
    """A transition-kernel row does not sum to one."""


class EmptySpace(NmarlError, ValueError):
    """A state or action space has no elements."""


class DimensionMismatch(NmarlError, ValueError):
    """Parameter or table shapes are inconsistent."""


class InvalidProbability(NmarlError, ValueError):
    """A probability argument is outside its admissible range."""


class HorizonOverflow(NmarlError, RuntimeError):
    """A sampled rollout horizon exceeded the hard cap."""


class NonFiniteState(NmarlError, ArithmeticError):
    """Training state (parameters, push-sum estimates or their consensus
    error) became infinite or NaN, e.g. under a step size that diverges."""


class BoundViolated(NmarlError, AssertionError):
    """A quantity exceeded its analytic bound; indicates an implementation bug."""


class NonPositiveWeight(NmarlError, ValueError):
    """A push-sum weight became non-positive; the mixing matrix is broken."""


class SpaceTooLarge(NmarlError, ValueError):
    """An exact computation was requested on a space beyond desk scale."""


class NonPositiveNoise(NmarlError, ValueError):
    """A noise power must be strictly positive."""


class UnknownLocation(NmarlError, KeyError):
    """A location label is not part of the path structure."""

    __str__ = Exception.__str__  # the message as given, without KeyError's quotes


class ProtocolInvariantError(NmarlError, AssertionError):
    """A push-sum protocol invariant failed an enabled runtime check."""


class ConfigError(NmarlError, ValueError):
    """A run configuration is malformed or inconsistent."""
