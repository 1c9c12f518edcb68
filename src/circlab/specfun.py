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

One implementation runs the two loops, the power series and the asymptotic
expansion, each keyed by the order nu (0 for I0, 1 for I1), on one Python
float (``_series_f``, ``_asymptotic_f``), with no numpy call inside the
loop. The public functions check their arguments (``circlab.errors``); a
caller with a float it has just computed, such as an exact second moment's
quadrature integrand, calls the unchecked ``_log_i0_f`` or ``_i0e_f``.
Every threshold, bound, verdict, CSV and ``detect`` value comes from these
loops, so their operation order is fixed: they square as ``x * x``
(CPython's ``x ** 2`` can differ in the last bit) and take the final log
and exp with numpy (``math.log`` differs on some inputs).
``scipy.special.i0e``/``i1e`` agree with them to about 2e-15 relative and are
the independent check in the tests; swapping them in would move the last
digits of the 17-digit output. The one array evaluation, ``_log_i0`` for the
Monte Carlo likelihood ratios, whose output is an estimate, uses
``scipy.special.i0e``.

Every integral goes through ``_quad``, which calls QUADPACK in scipy's
compiled ``_quadpack`` extension directly, as ``scipy.integrate.quad`` calls
it. The extension links only libc and libm and is loaded on first use on its
own, so integrating never imports the scipy.integrate package (about 0.3 s
and 45 MB of scipy.special, linalg, sparse, optimize, spatial and fft); only
an integral that QUADPACK reports as failed calls ``quad`` itself.
scipy.special is imported on first use in ``_log_i0``. So a process that
never takes log I0 of an array loads neither package: ``gen``, ``classify``,
``detect``, ``bounds`` and every edge detector.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import (DomainError, NumericError, check_kappa, check_window,
                     finite, real)

__all__ = [
    "TWO_PI",
    "bessel_i0_scaled",
    "log_bessel_i0",
    "mean_resultant",
    "ratio_R",
    "rho",
    "arc_prob",
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


# The power series and the asymptotic expansion of I_nu, keyed by the order nu
# (k! (k+nu)! in the series, mu = 4 nu^2 in the asymptotic coefficients
# (2k-1)^2 - mu, where mu = 0 adds 0.0 exactly).


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


# e^{-x} I_nu(x) on each branch, element by element over an array: the
# branch-crossover checks.
_series_each = np.vectorize(_series_f, otypes=[float])
_asymptotic_each = np.vectorize(_asymptotic_f, otypes=[float])


def _i0_series_scaled(x: np.ndarray) -> np.ndarray:
    return _series_each(x, 0) * np.exp(-x)


def _i0_asymptotic_scaled(x: np.ndarray) -> np.ndarray:
    return _asymptotic_each(x, 0) / np.sqrt(TWO_PI * x)


def _i1_series_scaled(x: np.ndarray) -> np.ndarray:
    return (x / 2.0) * _series_each(x, 1) * np.exp(-x)


def _i1_asymptotic_scaled(x: np.ndarray) -> np.ndarray:
    return _asymptotic_each(x, 1) / np.sqrt(TWO_PI * x)


def _log_i0(x: np.ndarray) -> np.ndarray:
    """log I0(x) over an array of nonnegative x, from scipy; never overflows."""
    from scipy.special import i0e

    x = np.asarray(x, dtype=float)
    return x + np.log(i0e(x))


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


def bessel_i0_scaled(x: float) -> float:
    """e^{-x} I0(x); well scaled for every nonnegative x."""
    return _i0e_f(check_kappa(x, what="x"))


def log_bessel_i0(x: float) -> float:
    """log I0(x), exact in log space for every nonnegative x."""
    return _log_i0_f(check_kappa(x, what="x"))


def mean_resultant(kappa: float) -> float:
    """A(kappa) = I1(kappa)/I0(kappa): mean resultant length of vonMises(., kappa)."""
    kappa = check_kappa(kappa)
    if kappa == 0.0:
        return 0.0
    return _i1e_f(kappa) / _i0e_f(kappa)


def ratio_R(kappa: float) -> float:
    """R(kappa) = I0(2 kappa)/I0(kappa)^2, formed in log space."""
    return float(math.exp(log_ratio_R(kappa)))


def log_ratio_R(kappa: float) -> float:
    """log R(kappa); safe for large kappa (R grows like sqrt(pi kappa))."""
    kappa = check_kappa(kappa)
    return _log_i0_f(2.0 * kappa) - 2.0 * _log_i0_f(kappa)


def rho(kappa: float, theta: float) -> float:
    """rho_kappa(theta) = I0(2 kappa cos theta)/I0(kappa)^2.

    theta may be any finite real; I0 is even so the |cos| form is used.
    The maximum over theta is R(kappa), attained at theta = 0.
    """
    return float(math.exp(log_rho(kappa, theta)))


def log_rho(kappa: float, theta: float) -> float:
    """log rho_kappa(theta); theta must be finite."""
    kappa, theta = check_kappa(kappa), finite(theta, "theta")
    return _log_i0_f(2.0 * kappa * abs(math.cos(theta))) - 2.0 * _log_i0_f(kappa)


# scipy's compiled QUADPACK module, loaded once by _quadpack_module. A module
# global, not a cache: the bench harness clears every circlab cache.
_quadpack = None
_quadpack_lock = threading.Lock()


def _quadpack_module():
    """scipy.integrate._quadpack, loaded from its file without its package."""
    global _quadpack
    if _quadpack is None:
        with _quadpack_lock:
            if _quadpack is None:
                from importlib import machinery, util

                scipy_dir, = util.find_spec("scipy").submodule_search_locations
                spec = machinery.FileFinder(
                    os.path.join(scipy_dir, "integrate"),
                    (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
                ).find_spec("scipy.integrate._quadpack")
                module = util.module_from_spec(spec)
                spec.loader.exec_module(module)
                _quadpack = module
    return _quadpack


def _quad(fn, a: float, b: float, *, full_output=0, epsabs=1.49e-8,
          epsrel=1.49e-8, limit=50, points=None):
    """``scipy.integrate.quad(fn, a, b, ...)``, bit for bit, for finite a < b.

    Calls QUADPACK's QAGS, or QAGP when ``points`` is given, with the
    arguments ``quad`` passes for an integrand with no weight (the points
    strictly inside (a, b), sorted and unique, then two zeros). When
    QUADPACK reports a failure (ier != 0), or the interval is not finite
    with a < b, it returns ``quad`` itself with the same arguments, so
    failure messages, IntegrationWarnings and errors stay scipy's own.
    """
    if math.isfinite(a) and math.isfinite(b) and a < b:
        if points is None:
            out = _quadpack_module()._qagse(fn, a, b, (), full_output, epsabs,
                                            epsrel, limit)
        else:
            inner = np.unique(points)
            inner = inner[(a < inner) & (inner < b)]
            out = _quadpack_module()._qagpe(
                fn, a, b, np.concatenate((inner, (0., 0.))), (), full_output,
                epsabs, epsrel, limit)
        if out[-1] == 0:
            return out[:-1]
    from scipy.integrate import quad

    return quad(fn, a, b, full_output=full_output, epsabs=epsabs,
                epsrel=epsrel, limit=limit, points=points)


def _quad_checked(fn, a: float, b: float, what: str, err_ok,
                  **options) -> float:
    """``_quad(fn, a, b, **options)``; NumericError unless it converged.

    It converged when QUADPACK reports no failure, the value is finite and
    ``err_ok(value, error estimate)`` holds. With ``full_output`` a failed
    integral returns ``quad``'s failure message (ier > 0) instead of issuing
    an IntegrationWarning, so the check needs no warning filter and holds in
    every thread. Only such a failure imports scipy.integrate.
    """
    val, err, _, *message = _quad(fn, a, b, full_output=1, **options)
    if message or not (math.isfinite(val) and err_ok(val, err)):
        reason = f" ({' '.join(message[0].split())})" if message else ""
        raise NumericError(
            f"quadrature for {what} did not converge{reason}: "
            f"value={val!r}, reported error={err!r}, interval=({a}, {b})")
    return val


def arc_prob(kappa: float, tau: float) -> float:
    """p_kappa(tau): mass of vonMises(0, kappa) on the centered arc [-pi tau, pi tau].

    Computed by adaptive quadrature of the scaled density, absolute
    tolerance 1e-10. Exact limits: p_kappa(1) = 1 and p_0(tau) = tau.
    """
    kappa, tau = check_kappa(kappa), check_window(tau)
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
    mass = 2.0 * _quad_checked(
        scaled_density, 0.0, half, "arc_prob",
        lambda val, err: err <= 1e-7 * max(1.0, abs(val)) + 1e-9,
        epsabs=_QUAD_ABS_TOL, epsrel=1e-11, limit=_QUAD_LIMIT, points=pts)
    denom = TWO_PI * _i0e_f(kappa)
    return min(1.0, mass / denom)


def gaussian_upper_tail(x: float) -> float:
    """Q(x): standard normal upper-tail probability."""
    x = finite(x, "x")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def window_calibration_objective(c2: float) -> float:
    """(2/pi) c2 / (1 - 2 Q(c2))^2, the scan-window calibration curve.

    Diverges at both ends of (0, inf); its minimum value is the smallest
    concentration-budget constant for which the calibrated window test
    provably succeeds, and the minimizer is the window half-width in
    noise-standard-deviation units.
    """
    c2 = real(c2, "c2", DomainError)
    if c2 <= 0.0:
        raise DomainError(f"c2 must be > 0, got {c2!r}")
    covered = 1.0 - 2.0 * gaussian_upper_tail(c2)
    if covered == 0.0:  # c2 below about 1e-17, at the pole
        return math.inf
    return (2.0 / math.pi) * c2 / (covered * covered)


def compute_c0(bracket: tuple[float, float] = (1e-4, 10.0),
               tol: float = 1e-8) -> tuple[float, float]:
    """Minimize the window calibration objective; returns (c0, c2_star).

    Golden-section search on ``bracket`` to tolerance ``tol`` in the
    argument. Raises NumericError if the bracket does not contain an
    interior minimum or the first-order condition |f'(c2*)| <= 1e-6
    (central differences) fails at the result.
    """
    a, b = (real(end, "bracket", DomainError) for end in bracket)
    tol = real(tol, "tol", DomainError)
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
