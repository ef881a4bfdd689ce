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
"""

from .errors import (BoundsInvalid, CoulombError, DegenerateFit,
                     DegenerateOrder, GammaOverflow, GateViolation,
                     NonConvergence, NoRootInScanRange, PoleOnCircle,
                     RegionWarning, RingMismatch, ZeroEnumerationIncomplete)
from .exact import (EtaPolynomial, Sqrt2Rational, format_sqrt2, p_coeff,
                    potential_polynomials)
from .specfun import (CoulombParams, SeriesEval, coulomb_series_coeffs,
                      eval_F, eval_F_with_derivative, eval_bessel_j,
                      eval_dini, eval_f_normalized, eval_g)
from .rayleigh import (EulerRayleighBounds, RayleighTable,
                       euler_rayleigh_bounds, rayleigh_Z, rayleigh_Ztilde,
                       zeta_coeffs, zeta_laurent_eval)
from .radii import (Family, RadiusQuery, RadiusResult, radius_f, radius_g,
                    radius_phi)
from .asympt import (EpsilonTable, OrderFit, annihilation_residuals,
                     empirical_order, epsilon_coeffs,
                     epsilon_coeffs_recurrence, radius_asymptotic)
from .verify import (DiskScanReport, boundary_image, companion_order,
                     dini_rayleigh_oracle, spirallike_scan, starlike_scan,
                     zero_sum_oracle)
from .acceptance import (CriterionResult, format_report, run_all,
                         run_criterion)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "CoulombError", "GateViolation", "DegenerateOrder", "NonConvergence",
    "GammaOverflow", "BoundsInvalid", "NoRootInScanRange", "PoleOnCircle",
    "ZeroEnumerationIncomplete", "DegenerateFit", "RingMismatch",
    "RegionWarning",
    # exact arithmetic
    "Sqrt2Rational", "EtaPolynomial", "format_sqrt2", "p_coeff",
    "potential_polynomials",
    # special functions
    "CoulombParams", "SeriesEval", "coulomb_series_coeffs", "eval_F",
    "eval_F_with_derivative", "eval_g", "eval_f_normalized",
    "eval_bessel_j", "eval_dini",
    # Rayleigh sums
    "RayleighTable", "EulerRayleighBounds", "rayleigh_Z", "rayleigh_Ztilde",
    "euler_rayleigh_bounds", "zeta_coeffs", "zeta_laurent_eval",
    # radii
    "Family", "RadiusQuery", "RadiusResult", "radius_f", "radius_g",
    "radius_phi",
    # asymptotics
    "EpsilonTable", "OrderFit", "epsilon_coeffs",
    "epsilon_coeffs_recurrence", "annihilation_residuals",
    "radius_asymptotic", "empirical_order",
    # verification
    "DiskScanReport", "starlike_scan", "spirallike_scan", "companion_order",
    "boundary_image", "zero_sum_oracle", "dini_rayleigh_oracle",
    # acceptance
    "CriterionResult", "run_criterion", "run_all", "format_report",
]
