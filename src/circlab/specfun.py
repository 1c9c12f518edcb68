"""Numerically robust special functions for circular-data detection.

Definitions used throughout the package:

    I0(x) = (1/2pi) int_0^{2pi} exp(x cos u) du          (modified Bessel, order 0)
    I1(x) = (1/2pi) int_0^{2pi} cos(u) exp(x cos u) du   (modified Bessel, order 1)
    A(kappa) = I1(kappa) / I0(kappa)                     (mean resultant length)
    R(kappa) = I0(2 kappa) / I0(kappa)^2
    rho_kappa(theta) = I0(2 kappa cos theta) / I0(kappa)^2
    p_kappa(tau) = P( vonMises(0, kappa) in [-pi tau, pi tau] )

Evaluation strategy: the power series is used for x <= 30 and the scaled
asymptotic expansion with correction terms for x > 30; every ratio quantity
(A, R, rho) is formed from exponentially scaled values or in log space, so
that nothing overflows before x ~ 700 and log-space callers never overflow.

There are two paths with the same two loops, the power series and the
asymptotic expansion, each keyed by the order nu (0 for I0, 1 for I1). The
public functions take one Python float and run the loops on floats
(``_series_f``, ``_asymptotic_f``), with no numpy call inside the loop; the
quadrature integrands of the exact second moments call them once per node.
``_series`` and ``_asymptotic`` run the same loops on whole arrays:
``_log_i0`` for the Monte Carlo likelihood ratios, and the scaled I0/I1
wrappers as oracles. Both paths give the same bits: the float loops keep the
array loops' operation order, square as ``x * x`` (CPython's ``x ** 2`` can
differ in the last bit) and take the final log and exp with numpy
(``math.log`` differs on some inputs).
``scipy.special.i0e``/``i1e`` agree to about 2e-15 relative, but that moves
the last digits of the 17-digit ``bounds``, ``detect`` and CSV output, so
they are not used.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericError

__all__ = [
    "TWO_PI",
    "bessel_i0",
    "bessel_i0_scaled",
    "bessel_i1",
    "bessel_i1_scaled",
    "log_bessel_i0",
    "mean_resultant",
    "ratio_R",
    "rho",
    "arc_prob",
    "kl_hard_cluster",
    "kl_von_mises",
    "kl_divergences",
    "gaussian_upper_tail",
    "compute_c0",
]

TWO_PI = 2.0 * math.pi  # the other modules import it; define it nowhere else

# Branch switch between the power series and the asymptotic expansion.
SERIES_ASYMPTOTIC_SWITCH = 30.0

_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 200
_ASYMPTOTIC_MAX_TERMS = 40

# Default quadrature settings: Gauss-Kronrod refinement via QUADPACK.
_QUAD_ABS_TOL = 1e-12
_QUAD_LIMIT = 400


def _require_nonneg(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"{name} must be finite and >= 0, got {x!r}")
    return x


# Array loops, keyed by nu like the float loops below.


def _series(x: np.ndarray, nu: int) -> np.ndarray:
    """sum_k (x^2/4)^k / (k! (k+nu)!) elementwise; all terms positive."""
    x = np.asarray(x, dtype=float)
    t = x * x / 4.0
    term = np.ones_like(t)
    total = np.ones_like(t)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term * t / (k * (k + nu))
        total = total + term
        if np.all(term <= _SERIES_RTOL * total):
            break
    return total


def _asymptotic(x: np.ndarray, nu: int) -> np.ndarray:
    """sqrt(2 pi x) e^{-x} I_nu(x) elementwise for large x, as sum_k c_k x^{-k}."""
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    mu = 4.0 * nu * nu
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _ASYMPTOTIC_MAX_TERMS + 1):
        term = term * ((2 * k - 1) ** 2 - mu) * inv / (8.0 * k)
        total = total + term
        if np.all(np.abs(term) <= _SERIES_RTOL * np.abs(total)):
            break
    return total


# e^{-x} I_nu(x) on each branch: the oracles of the float path and of the
# branch-crossover checks.


def _i0_series_scaled(x: np.ndarray) -> np.ndarray:
    return _series(x, 0) * np.exp(-np.asarray(x, dtype=float))


def _i0_asymptotic_scaled(x: np.ndarray) -> np.ndarray:
    return _asymptotic(x, 0) / np.sqrt(TWO_PI * np.asarray(x, dtype=float))


def _i1_series_scaled(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return (x / 2.0) * _series(x, 1) * np.exp(-x)


def _i1_asymptotic_scaled(x: np.ndarray) -> np.ndarray:
    return _asymptotic(x, 1) / np.sqrt(TWO_PI * np.asarray(x, dtype=float))


def _log_i0(x: np.ndarray) -> np.ndarray:
    """Vectorized log I0(x) over nonnegative x; never overflows."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= SERIES_ASYMPTOTIC_SWITCH
    if small.any():
        out[small] = np.log(_series(x[small], 0))
    if (~small).any():
        xl = x[~small]
        out[~small] = xl + np.log(_i0_asymptotic_scaled(xl))
    return out


# Scalar path: the loops above on one Python float, term for term. Both
# paths share I0 and I1 through nu (k! (k+nu)! in the series, mu = 4 nu^2 in
# the asymptotic coefficients (2k-1)^2 - mu, where mu = 0 adds 0.0 exactly).


def _series_f(x: float, nu: int) -> float:
    """sum_k (x^2/4)^k / (k! (k+nu)!), the power-series factor of I_nu."""
    t = x * x / 4.0
    term = total = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term * t / (k * (k + nu))
        total = total + term
        if term <= _SERIES_RTOL * total:
            break
    return total


def _asymptotic_f(x: float, nu: int) -> float:
    """sqrt(2 pi x) e^{-x} I_nu(x) for large x, as sum_k c_k x^{-k}."""
    inv = 1.0 / x
    mu = 4.0 * nu * nu
    term = total = 1.0
    for k in range(1, _ASYMPTOTIC_MAX_TERMS + 1):
        term = term * ((2 * k - 1) ** 2 - mu) * inv / (8.0 * k)
        total = total + term
        if abs(term) <= _SERIES_RTOL * abs(total):
            break
    return total


def _i0e_f(x: float) -> float:
    if x <= SERIES_ASYMPTOTIC_SWITCH:
        return float(_series_f(x, 0) * np.exp(-x))
    return _asymptotic_f(x, 0) / math.sqrt(TWO_PI * x)


def _i1e_f(x: float) -> float:
    if x <= SERIES_ASYMPTOTIC_SWITCH:
        return float((x / 2.0) * _series_f(x, 1) * np.exp(-x))
    return _asymptotic_f(x, 1) / math.sqrt(TWO_PI * x)


def _log_i0_f(x: float) -> float:
    if x <= SERIES_ASYMPTOTIC_SWITCH:
        return float(np.log(_series_f(x, 0)))
    return float(x + np.log(_asymptotic_f(x, 0) / math.sqrt(TWO_PI * x)))


def bessel_i0(x: float) -> float:
    """I0(x). Overflows to +inf past x ~ 713; use bessel_i0_scaled there."""
    x = _require_nonneg(x, "x")
    with np.errstate(over="ignore"):
        return float(np.exp(x) * _i0e_f(x))


def bessel_i0_scaled(x: float) -> float:
    """e^{-x} I0(x); well scaled for every nonnegative x."""
    return _i0e_f(_require_nonneg(x, "x"))


def log_bessel_i0(x: float) -> float:
    """log I0(x), exact in log space for every nonnegative x."""
    return _log_i0_f(_require_nonneg(x, "x"))


def bessel_i1(x: float) -> float:
    """I1(x) = (1/2pi) int_0^{2pi} cos(y) e^{x cos y} dy."""
    x = _require_nonneg(x, "x")
    with np.errstate(over="ignore"):
        return float(np.exp(x) * _i1e_f(x))


def bessel_i1_scaled(x: float) -> float:
    """e^{-x} I1(x)."""
    return _i1e_f(_require_nonneg(x, "x"))


def mean_resultant(kappa: float) -> float:
    """A(kappa) = I1(kappa)/I0(kappa): mean resultant length of vonMises(., kappa)."""
    kappa = _require_nonneg(kappa, "kappa")
    if kappa == 0.0:
        return 0.0
    return _i1e_f(kappa) / _i0e_f(kappa)


def ratio_R(kappa: float) -> float:
    """R(kappa) = I0(2 kappa)/I0(kappa)^2, formed in log space."""
    kappa = _require_nonneg(kappa, "kappa")
    return float(math.exp(log_ratio_R(kappa)))


def log_ratio_R(kappa: float) -> float:
    """log R(kappa); safe for large kappa (R grows like sqrt(pi kappa))."""
    kappa = _require_nonneg(kappa, "kappa")
    return _log_i0_f(2.0 * kappa) - 2.0 * _log_i0_f(kappa)


def rho(kappa: float, theta: float) -> float:
    """rho_kappa(theta) = I0(2 kappa cos theta)/I0(kappa)^2.

    theta may be any real; I0 is even so the |cos| form is used.
    The maximum over theta is R(kappa), attained at theta = 0.
    """
    kappa = _require_nonneg(kappa, "kappa")
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    return float(math.exp(log_rho(kappa, theta)))


def log_rho(kappa: float, theta: float) -> float:
    kappa = _require_nonneg(kappa, "kappa")
    return _log_i0_f(2.0 * kappa * abs(math.cos(theta))) - 2.0 * _log_i0_f(kappa)


def _quad_checked(fn, a: float, b: float, what: str, points=None) -> float:
    val, err = quad(fn, a, b, epsabs=_QUAD_ABS_TOL, epsrel=1e-11,
                    limit=_QUAD_LIMIT, points=points)
    if not math.isfinite(val) or err > 1e-7 * max(1.0, abs(val)) + 1e-9:
        raise NumericError(
            f"quadrature for {what} did not converge: value={val!r}, "
            f"reported error={err!r}, interval=({a}, {b})")
    return val


def arc_prob(kappa: float, tau: float) -> float:
    """p_kappa(tau): mass of vonMises(0, kappa) on the centered arc [-pi tau, pi tau].

    Computed by adaptive quadrature of the scaled density, absolute
    tolerance 1e-10. Exact limits: p_kappa(1) = 1 and p_0(tau) = tau.
    """
    kappa = _require_nonneg(kappa, "kappa")
    tau = float(tau)
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    if tau == 1.0:
        return 1.0
    if kappa == 0.0:
        return tau
    half = math.pi * tau

    def scaled_density(t: float) -> float:
        return math.exp(kappa * (math.cos(t) - 1.0))

    # Breakpoints resolve the O(1/sqrt(kappa)) peak for large kappa.
    pts = None
    if kappa > 4.0:
        width = 1.0 / math.sqrt(kappa)
        pts = sorted({min(half * 0.999, j * width) for j in (1, 2, 4, 8, 16, 32)})
    mass = 2.0 * _quad_checked(scaled_density, 0.0, half, "arc_prob", points=pts)
    denom = TWO_PI * bessel_i0_scaled(kappa)
    return min(1.0, mass / denom)


def kl_hard_cluster(tau: float) -> float:
    """KL( uniform(arc of length 2 pi tau) || uniform(circle) ) = -ln tau."""
    tau = float(tau)
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    return -math.log(tau)


def kl_von_mises(kappa: float) -> float:
    """KL( vonMises(., kappa) || uniform(circle) ) = kappa A(kappa) - log I0(kappa)."""
    kappa = _require_nonneg(kappa, "kappa")
    if kappa == 0.0:
        return 0.0
    return kappa * mean_resultant(kappa) - log_bessel_i0(kappa)


def kl_divergences(kind) -> float:
    """KL divergence of a planted signal distribution from uniform.

    Accepts any object with a ``tau`` attribute (hard cluster) or a
    ``kappa`` attribute (von Mises).
    """
    tau = getattr(kind, "tau", None)
    if tau is not None:
        return kl_hard_cluster(tau)
    kappa = getattr(kind, "kappa", None)
    if kappa is not None:
        return kl_von_mises(kappa)
    raise DomainError(f"not a signal kind: {kind!r}")


def gaussian_upper_tail(x: float) -> float:
    """Q(x): standard normal upper-tail probability."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def window_calibration_objective(c2: float) -> float:
    """(2/pi) c2 / (1 - 2 Q(c2))^2, the scan-window calibration curve.

    Diverges at both ends of (0, inf); its minimum value is the smallest
    concentration-budget constant for which the calibrated window test
    provably succeeds, and the minimizer is the window half-width in
    noise-standard-deviation units.
    """
    c2 = float(c2)
    if c2 <= 0.0:
        raise DomainError(f"c2 must be > 0, got {c2!r}")
    covered = 1.0 - 2.0 * gaussian_upper_tail(c2)
    return (2.0 / math.pi) * c2 / (covered * covered)


def compute_c0(bracket: tuple[float, float] = (1e-4, 10.0),
               tol: float = 1e-8) -> tuple[float, float]:
    """Minimize the window calibration objective; returns (c0, c2_star).

    Golden-section search on ``bracket`` to tolerance ``tol`` in the
    argument. Raises NumericError if the bracket does not contain an
    interior minimum or the first-order condition |f'(c2*)| <= 1e-6
    (central differences) fails at the result.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not (0.0 < a < b):
        raise DomainError(f"invalid bracket {bracket!r}")
    f = window_calibration_objective
    probe = np.exp(np.linspace(math.log(a), math.log(b), 65))
    fvals = [f(p) for p in probe]
    if int(np.argmin(fvals)) in (0, len(probe) - 1):
        raise NumericError(f"bracket {bracket!r} does not enclose a minimum")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    c2_star = 0.5 * (a + b)
    h = 1e-6 * max(1.0, c2_star)
    deriv = (f(c2_star + h) - f(c2_star - h)) / (2.0 * h)
    if abs(deriv) > 1e-6:
        raise NumericError(
            f"first-order condition violated at c2={c2_star!r}: f'={deriv!r}")
    return f(c2_star), c2_star
