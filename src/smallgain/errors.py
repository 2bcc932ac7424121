"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`SmallGainError` so
callers (and the command line driver) can distinguish analysis outcomes from
programming mistakes.  Errors that certify a negative mathematical fact
(a non-contractive cycle, an empty gap, a stalled decay iteration) carry the
evidence on the exception instance.
"""

from __future__ import annotations


class SmallGainError(Exception):
    """Base class for all library errors."""


class OutOfRange(SmallGainError):
    """Inversion above the supremum of a bounded gain.

    ``sup`` holds the structural supremum, ``value`` the requested level.
    """

    def __init__(self, message: str, sup: float | None = None, value: float | None = None):
        super().__init__(message)
        self.sup = sup
        self.value = value


class ParseError(SmallGainError):
    """Malformed gain expression text; ``pos`` is the character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class RejectedNotClassK(SmallGainError):
    """Syntactically valid expression that is not a class-K function."""

    def __init__(self, message: str, pos: int = 0):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class CompatibilityError(SmallGainError):
    """Aggregation not strictly increasing over a row's active gain slots.

    ``row`` is the network row of a failed audit; an aggregation's own error
    is the ``__cause__``, a nonzero diagonal gain has none.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class UnsupportedAggregation(SmallGainError):
    """Aggregation shape outside what an algorithm can decompose."""


class TooLarge(SmallGainError):
    """Problem size above the exhaustive-enumeration limit."""


class WrongAggregation(SmallGainError):
    """Operation requires a specific aggregation (e.g. max) on every row."""


class NotLinearizable(SmallGainError):
    """Network is not representable by a nonnegative slope matrix."""


class NotHomogeneous(NotLinearizable):
    """No per-node power change makes the operator homogeneous of degree one."""


class NotIrreducible(SmallGainError):
    """Interconnection graph is not strongly connected (or has zero rows)."""


class NotInOmega(SmallGainError):
    """Proposed start point is not in the decay region of the operator."""


class Stalled(SmallGainError):
    """Decay iteration stopped decreasing; evidence against small gain."""


class NotBounded(SmallGainError):
    """Bounded-route constructor applied to an unbounded gain."""


class SeedNotFound(SmallGainError):
    """No candidate direction on the search sphere lies in the decay region.

    The search tries finitely many directions, so a miss is no evidence
    against the small gain condition.
    """


class PathStalled(SmallGainError):
    """Upward path growth collapsed; operator is near-critical."""


class CycleConditionFails(SmallGainError):
    """A subordinated cycle composition is not a contraction."""

    def __init__(self, message: str, cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.cycle = cycle


class LambdaNotContractive(SmallGainError):
    """No Perron bound below one for a power-homogeneous operator."""

    def __init__(self, message: str, lam: float | None = None):
        super().__init__(message)
        self.lam = lam


class EmptyGap(SmallGainError):
    """Three-system construction found no room between h and g*."""


class BisectionFailure(SmallGainError):
    """Root bracketing failed; evidence against the small gain condition."""


class SpliceFailure(SmallGainError):
    """Mixed-route splice rejected at its one crossover radius (a start
    outside the decay set, a failed validation, or no crossover below 1e18);
    :func:`paths.path_mixed` then tries its next inflation level."""


class BlockSgcFails(SmallGainError):
    """A diagonal block of the reduced form fails its small gain check."""

    def __init__(self, message: str, block: tuple[int, ...] | None = None):
        super().__init__(message)
        self.block = block


class GeneralCondFails(SmallGainError):
    """Composite certificate inequality violated at some radius."""

    def __init__(self, message: str, radius: float | None = None):
        super().__init__(message)
        self.radius = radius


class NotHurwitz(SmallGainError):
    """Lyapunov equation has no positive definite solution."""


class BadParameters(SmallGainError):
    """Model or design parameters outside their admissible ranges."""


class Diverged(SmallGainError):
    """State norm exceeded the divergence guard during integration."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class ConfigError(SmallGainError):
    """Malformed network configuration file; ``pointer`` locates the field."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer
