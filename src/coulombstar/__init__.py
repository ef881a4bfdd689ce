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
  spirallikeness, ODE-based zero enumeration, and boundary-curve sampling.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from .errors import *        # noqa: F401,F403
from .exact import *         # noqa: F401,F403
from .specfun import *       # noqa: F401,F403
from .rayleigh import *      # noqa: F401,F403
from .radii import *         # noqa: F401,F403
from .asympt import *        # noqa: F401,F403
from .verify import *        # noqa: F401,F403
from .acceptance import *    # noqa: F401,F403
from . import (acceptance, asympt, errors, exact, radii, rayleigh, specfun,
               verify)

__version__ = "1.0.0"

__all__ = ["__version__"] + [
    name for module in (errors, exact, specfun, rayleigh, radii, asympt,
                        verify, acceptance)
    for name in module.__all__]
