"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`SmallGainError` so
callers (and the command line driver) can distinguish analysis outcomes from
programming mistakes.  Each analysis outcome has one class: a proved
failure of the small gain condition is :class:`SgcFails`, whose evidence is
its verdict's re-checked witness or failing cycle; an operation handed a
network shape it does not serve raises :class:`CompatibilityError` (a path
constructor's refusal, which hands the network to the next one); a
construction that gave up raises :class:`PathStalled`, or :class:`Stalled`
when a downward iteration stopped decreasing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sgc import SgcVerdict


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
    """A network shape that an operation does not serve: an aggregation not
    strictly increasing over a row's active gain slots, or a route or
    constructor given rows, gains or a graph outside its own shape.

    ``row`` is the network row of a failed audit; an aggregation's own error
    is the ``__cause__``, a nonzero diagonal gain has none.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class TooLarge(SmallGainError):
    """Problem size above the exhaustive-enumeration limit."""


class Stalled(SmallGainError):
    """A downward iteration stopped decreasing: evidence against the small
    gain condition of the operator iterated, so no construction retries a
    stall of the network's own operator (a retried splice once certified a
    network that the falsifier refutes)."""


class PathStalled(SmallGainError):
    """A path construction gave up, proving nothing either way; the message
    names the search that missed."""


class SgcFails(SmallGainError):
    """The small gain condition fails: some ``s != 0`` has ``Gamma_mu(s) >= s``.

    ``verdict`` is the failing :class:`~smallgain.sgc.SgcVerdict` that
    proves it, for the network the error was raised for: a witness that
    re-checks against the operator, or a cycle that is not a contraction.
    """

    def __init__(self, message: str, verdict: SgcVerdict):
        super().__init__(message)
        self.verdict = verdict


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
