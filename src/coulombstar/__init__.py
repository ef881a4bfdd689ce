"""Regular Coulomb wave functions and the geometry of their normalized forms.

The package computes:

* the regular Coulomb wave function ``F`` and its entire factor, plus the
  normalized forms ``f`` (power normalization) and ``g`` (shift
  normalization), and the generalized normalized Bessel function ``phi``;
* radii of starlikeness (of any order ``beta``) and univalence of those
  forms, as first positive roots of their reduced equations;
* exact Rayleigh-sum recurrences (zero power sums of ``F`` and ``F'``),
  Euler-Rayleigh sandwich bounds, and the exact Laurent coefficients of the
  sums in inverse powers of the order;
* the complete large-order asymptotic expansion of the radius of
  starlikeness, solved exactly over Q(sqrt 2)[eta], with re-substitution
  checks and empirical order fits;
* independent verification oracles: disk scans for starlikeness and
  spirallikeness, zero power sums from the traces of the Jacobi matrix of
  ``F``, and boundary-curve sampling.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.  ``import coulombstar`` needs only the standard
library: the oracles (``verify``) and the acceptance criteria
(``acceptance``), which use numpy and import scipy and mpmath, load on
first use of one of their names, of the module itself, of ``__all__`` or
of ``dir()`` (PEP 562).  The records (``CoulombParams``, ``SeriesEval``,
``RadiusResult``, ``RadiusQuery``, ``RayleighTable``,
``EulerRayleighBounds``, ``EpsilonTable``, ``OrderFit``, and in the oracles
``DiskScanReport`` and ``CriterionResult``) are named tuples, so the import
loads no ``dataclasses`` (nor the ``inspect`` it pulls in) either: they are
immutable, equal and hashed by value, and also iterate, unpack and compare
equal to a plain tuple of their values; ``_replace`` makes a changed copy.
"""

import importlib

from .errors import *        # noqa: F401,F403
from .exact import *         # noqa: F401,F403
from .specfun import *       # noqa: F401,F403
from .rayleigh import *      # noqa: F401,F403
from .radii import *         # noqa: F401,F403
from .asympt import *        # noqa: F401,F403
from . import asympt, errors, exact, radii, rayleigh, specfun

__version__ = "1.0.0"

#: the modules loaded on first use, in the order of ``__all__``
_LAZY = ("verify", "acceptance")


def _lazy_modules():
    return [importlib.import_module(f".{name}", __name__) for name in _LAZY]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = ["__version__"] + [
            n for module in (errors, exact, specfun, rayleigh, radii, asympt,
                             *_lazy_modules())
            for n in module.__all__]
    else:
        # probes for other dunders (inspect, doctest) load nothing
        owners = [] if name.startswith("__") else [
            m for m in _lazy_modules() if name in m.__all__]
        if not owners:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owners[0], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
