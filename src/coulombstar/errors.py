"""Exception taxonomy for the library.

Every error raised on purpose derives from :class:`CoulombError`, so callers
(and the CLI) can distinguish parameter-gate problems from numerical failures
with two ``except`` clauses instead of a dozen.
"""

__all__ = ["CoulombError", "GateViolation", "NonConvergence",
           "GammaOverflow", "BoundsInvalid", "NoRootInScanRange",
           "PoleOnCircle", "DegenerateFit", "RingMismatch", "RegionWarning"]


class CoulombError(Exception):
    """Base class for all library-specific errors."""


class GateViolation(CoulombError):
    """A documented parameter precondition does not hold (caller error)."""


class NonConvergence(CoulombError):
    """A numerical process did not finish within its limits: a series did
    not meet its truncation rule within the fixed maximum of 10000 terms,
    or its running float sum overflowed first (the Coulomb series of S and
    the Bessel series of J alike); CF1 for r F'/F did not converge within
    its cap of 1000 + 2r terms, or CF2 for H+'/H+ within 10000; the
    deeper fixed-point pass of a series lost more than its cap of 290
    digits to cancellation (or its sum rounded to 0 at that depth); the
    fixed-point sums of a series, or the Taylor sums continuing Steed's
    values to complex z, left the float range; or the root search
    underflowed, or its arithmetic left the float range, before it found
    a root."""


class GammaOverflow(CoulombError):
    """The combined prefactor exponent exceeds the floating-point range even
    after working in log space."""


class BoundsInvalid(CoulombError):
    """A Rayleigh-sum table entry needed for two-sided bounds is nonpositive;
    the bounds would be meaningless, so they are refused instead of clamped."""


class NoRootInScanRange(CoulombError):
    """No sign change found below the scan ceiling."""


class PoleOnCircle(CoulombError):
    """A scan hit a grid point where the denominator function vanishes to
    working precision, so the ratio there is meaningless."""


class DegenerateFit(CoulombError):
    """Order-fit errors underflow the resolvable range (increase precision
    or reduce the expansion order)."""


class RingMismatch(CoulombError, TypeError):
    """An inexact (float or complex) coefficient given to the exact layer."""


class RegionWarning(UserWarning):
    """Parameters are outside the comfortable/stated validity region; the
    value is computed anyway and this warning flags it."""
