"""Closed-form error bounds, exact second moments, and regime classification.

Achievability side: for each (model, detector) pair the module evaluates the
finite-sample false-alarm and miss bounds of the corresponding test at a
given threshold, all products formed in log space.

Impossibility side: the likelihood ratio L = dP/dQ of each model has
Var_Q(L) = E_Q[L^2] - 1 and TV(P, Q) <= (1/2) sqrt(Var_Q(L)), so a small
second moment certifies that no test can detect. The module evaluates both
the exact E_Q[L^2] (hypergeometric overlap times closed-form arc-overlap or
Bessel-ratio moments) and the looser displayed upper-bound functionals whose
vanishing defines the impossible regimes.

``regime_classify`` turns the asymptotic regime conditions into concrete
finite-size inequalities. Asymptotic qualifiers are translated with
documented slack factors (reported inside every verdict): "fixed" means
value <= log(size); f = o(g) means f <= g / slack and f = omega(g) means
f >= g * slack, with slack = log(size) against constants and
max(1, log log size) between growing scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .detectors import default_c_schedule, rayleigh_threshold, resolve_flat_threshold
from .errors import DomainError, NumericError, ParameterError
from .specfun import (TWO_PI, arc_prob, bessel_i0_scaled, log_bessel_i0,
                      log_ratio_R, mean_resultant, ratio_R)

__all__ = [
    "BoundValue",
    "flat_hard_bounds",
    "flat_vm_bounds",
    "known_theta_bounds",
    "comm_interval_bounds",
    "comm_coherence_bounds",
    "rayleigh_bounds",
    "comm_variance_bounds",
    "delta_overlap",
    "delta_moment",
    "OverlapLaw",
    "hypergeom_logpmf",
    "hypergeom_pmf",
    "second_moment_exact_flat_hard",
    "second_moment_exact_flat_vm",
    "second_moment_exact_comm_hard",
    "second_moment_exact_comm_vm",
    "tv_bound",
    "impossibility_functionals",
    "RegimeTunables",
    "RegimeVerdict",
    "regime_classify",
    "known_theta_regime",
    "rayleigh_condition",
    "C0_REFERENCE",
    "C2_STAR_REFERENCE",
]

# Reference calibration constants quoted for the von Mises flat achievable
# regime; compare with the independently minimized compute_c0() output.
C0_REFERENCE = 0.5057
C2_STAR_REFERENCE = 0.7518

MODELS = ("flat-hard", "flat-vm", "comm-hard", "comm-vm")


def log_comb(n: float, k: float) -> float:
    """log C(n, k) via lgamma; real-argument extension."""
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _safe_exp(x: float) -> float:
    if x > 700.0:
        return math.inf
    return math.exp(x)


@dataclass
class BoundValue:
    """One named analytic quantity and whether it applies at the given parameters."""

    value: float
    applicable: bool = True


# ---------------------------------------------------------------------------
# Achievability bounds
# ---------------------------------------------------------------------------


def flat_hard_bounds(N: int, K: int, tau: float, gamma: float) -> dict:
    """Flat hard-cluster interval test bounds at threshold gamma.

    pfa_union  : N C(N-1, ceil(gamma)-1) tau^(ceil(gamma)-1)
    pfa_chernoff: N exp(-(gamma-1-(N-1)tau)^2 / (1+(N-1)tau+gamma)),
                  valid when gamma >= 1+(N-1)tau
    pmiss      : 0 when gamma <= K (the planted window already holds K
                  points); otherwise exp(-((N-K)tau-gamma+K)^2 / (2(N-K)tau))
                  valid when (N-K)tau >= gamma-K
    """
    if not (1 <= K <= N):
        raise ParameterError(f"need 1 <= K <= N, got N={N}, K={K}")
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    out: dict = {}
    g_int = math.ceil(gamma)
    log_union = math.log(N) + log_comb(N - 1, g_int - 1) + (g_int - 1) * math.log(tau)
    out["pfa_union"] = BoundValue(_safe_exp(log_union), applicable=g_int >= 1)
    mean0 = 1.0 + (N - 1) * tau
    ok = gamma >= mean0
    if ok:
        expo = -(gamma - mean0) ** 2 / (mean0 + gamma)
        val = _safe_exp(math.log(N) + expo)
    else:
        val = math.inf
    out["pfa_chernoff"] = BoundValue(val, applicable=ok)
    if gamma <= K:
        out["pmiss"] = BoundValue(0.0)
    else:
        base = (N - K) * tau
        ok = base >= gamma - K
        val = _safe_exp(-(base - gamma + K) ** 2 / (2.0 * base)) if ok else math.inf
        out["pmiss"] = BoundValue(val, applicable=ok)
    return out


def flat_vm_bounds(N: int, K: int, kappa: float, tau: float,
                   c_n: Optional[float] = None,
                   gamma: Optional[float] = None) -> dict:
    """Von Mises flat interval-test recipe: threshold and bounds.

    With the ``vm`` recipe threshold gamma = N tau + g - c_N sqrt(N tau + g),
    where g = K (p_kappa(tau) - tau), the miss bound is exp(-c_N^2 / 2); an
    explicit ``gamma`` gives the general lower-tail form
    exp(-(mu1 - gamma)^2 / (2 mu1)) with mu1 = N tau + g. The false alarm
    side is the same Chernoff bound as the hard-cluster case at this gamma.
    """
    if not (1 <= K <= N):
        raise ParameterError(f"need 1 <= K <= N, got N={N}, K={K}")
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must be in (0, 1), got {tau!r}")
    if c_n is None:
        c_n = default_c_schedule(N)
    g = K * (arc_prob(kappa, tau) - tau)
    mean1 = N * tau + g
    if gamma is None:
        gamma = resolve_flat_threshold("vm", N, tau, K=K, kappa=kappa, c_n=c_n)
        pmiss = BoundValue(math.exp(-c_n * c_n / 2.0))
    else:
        gamma = float(gamma)
        ok = gamma <= mean1
        val = math.exp(-(mean1 - gamma) ** 2 / (2.0 * mean1)) if ok else math.inf
        pmiss = BoundValue(val, applicable=ok)
    out = {
        "g": BoundValue(g),
        "gamma": BoundValue(gamma),
        "pmiss": pmiss,
    }
    out["pfa_chernoff"] = flat_hard_bounds(N, K, tau, gamma)["pfa_chernoff"]
    return out


def known_theta_bounds(N: int, K: int, tau: float, gamma: float) -> dict:
    """Known-phase count test: the flat bounds with the scan union factor N removed."""
    base = flat_hard_bounds(N, K, tau, gamma)
    out: dict = {}
    for key in ("pfa_union", "pfa_chernoff"):
        b = base[key]
        out[key] = BoundValue(b.value / N if math.isfinite(b.value) else b.value,
                              applicable=b.applicable)
    out["pmiss"] = base["pmiss"]
    return out


def comm_interval_bounds(n: int, k: int, tau: float,
                         kappa: Optional[float] = None) -> dict:
    """Community interval test with threshold k (all C(k,2) edges in a window).

    pfa  : exp( log(C(k,2)/tau) + k [ log(n/k) + 1 + (k-1)/2 log tau ] )
    pmiss: 0 for the hard-cluster signal; for von Mises kappa the exact
           union bound C(k,2) (1 - p_kappa(tau)) over the intra-community
           edges escaping the window centered at the planted phase.
    pmiss_asymptotic: the closed form C(k,2) exp((cos(pi tau)-1) kappa) /
           (2 pi^2 I0(kappa) e^{-kappa} kappa |sin(pi tau)|). This endpoint
           evaluation of the tail integral only dominates once kappa tau^2
           is large, so it is reported with applicable=False: an analysis
           aid, not a finite-size guarantee. Undefined at tau = 1.
    """
    if not (2 <= k <= n):
        raise ParameterError(f"need 2 <= k <= n, got n={n}, k={k}")
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    m = k * (k - 1) // 2
    log_pfa = (math.log(m) - math.log(tau)
               + k * (math.log(n / k) + 1.0 + (k - 1) / 2.0 * math.log(tau)))
    out = {"pfa": BoundValue(_safe_exp(log_pfa))}
    if kappa is None:
        out["pmiss"] = BoundValue(0.0)
        return out
    if not (kappa > 0.0):
        raise DomainError(f"kappa must be > 0 for the von Mises miss bound")
    out["pmiss"] = BoundValue(min(m * (1.0 - arc_prob(kappa, tau)), 1.0))
    sin_term = abs(math.sin(math.pi * tau))
    if sin_term == 0.0:
        out["pmiss_asymptotic"] = BoundValue(math.inf, applicable=False)
        return out
    log_val = (math.log(m) + (math.cos(math.pi * tau) - 1.0) * kappa
               - math.log(2.0 * math.pi ** 2) - math.log(bessel_i0_scaled(kappa))
               - math.log(kappa) - math.log(sin_term))
    out["pmiss_asymptotic"] = BoundValue(_safe_exp(log_val), applicable=False)
    return out


def comm_coherence_bounds(n: int, k: int, kappa: float, epsilon: float,
                          B: int = 8) -> dict:
    """Coherence test at beta = (1 - eps/4) C(k,2) A(kappa), inscribed B-gon bound.

    pfa  : B exp( k [ log(ne/k) - (1-eps/4)^2 (k-1) A(kappa)^2 cos^2(pi/B)/2 ] )
    pmiss: exp( -eps^2 C(k,2) A(kappa)^2 / 32 )
    """
    if not (2 <= k <= n):
        raise ParameterError(f"need 2 <= k <= n, got n={n}, k={k}")
    if not (kappa > 0.0):
        raise DomainError(f"kappa must be > 0, got {kappa!r}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if B < 3:
        raise DomainError(f"B must be an integer >= 3, got {B!r}")
    a = mean_resultant(kappa)
    m = k * (k - 1) / 2.0
    expo = k * (math.log(n * math.e / k)
                - (1.0 - epsilon / 4.0) ** 2 * (k - 1) * a * a
                * math.cos(math.pi / B) ** 2 / 2.0)
    return {
        "pfa": BoundValue(_safe_exp(math.log(B) + expo)),
        "pmiss": BoundValue(math.exp(-epsilon * epsilon * m * a * a / 32.0)),
    }


def rayleigh_bounds(n: int, k: int, kappa: float) -> dict:
    """Rayleigh (all-edges phasor sum) test bounds at threshold beta = mu1/2.

    mu1 = C(k,2) A(kappa) and beta comes from ``rayleigh_threshold``. pfa
    follows from the square-gon tail bound, pmiss from Hoeffding on the
    projection onto the planted direction (needs beta < mu1); the combined
    error is 5 exp(-mu1^2 / (8 N_E)) with N_E = C(n,2).
    """
    if not (2 <= k <= n):
        raise ParameterError(f"need 2 <= k <= n, got n={n}, k={k}")
    n_edges = n * (n - 1) / 2.0
    beta = rayleigh_threshold(k, kappa)
    mu1 = 2.0 * beta
    out = {
        "pfa": BoundValue(min(4.0 * math.exp(-beta * beta / (2.0 * n_edges)), math.inf)),
        "total_default": BoundValue(5.0 * math.exp(-mu1 * mu1 / (8.0 * n_edges))),
    }
    ok = beta < mu1
    val = math.exp(-(mu1 - beta) ** 2 / (2.0 * n_edges)) if ok else math.inf
    out["pmiss"] = BoundValue(val, applicable=ok)
    return out


def _circular_msd(kappa: Optional[float], tau: Optional[float]) -> float:
    """Mean squared angular deviation of one planted draw from its anchor."""
    if tau is not None:
        return (math.pi * tau) ** 2 / 3.0
    if kappa is None:
        raise ParameterError("need kappa or tau")
    if kappa == 0.0:
        return math.pi ** 2 / 3.0

    def integrand(t: float) -> float:
        return t * t * math.exp(kappa * (math.cos(t) - 1.0))

    val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-12, epsrel=1e-10, limit=200)
    return 2.0 * val / (TWO_PI * bessel_i0_scaled(kappa))


def comm_variance_bounds(n: int, k: int, sigma2: float,
                         kappa: Optional[float] = None,
                         tau: Optional[float] = None, B: int = 8) -> dict:
    """Variance test bounds at threshold sigma2 (library-derived).

    Since cos x >= 1 - x^2/2, a subset with circular variance <= sigma2 has
    coherence >= K - (K-1) sigma2 / 2, so the false alarm probability is
    bounded by the coherence tail at that equivalent threshold. The miss
    side applies Hoeffding to the planted subset's squared deviations
    (values in [0, pi^2], mean from the signal law).
    """
    if not (3 <= k <= n):
        raise ParameterError(f"need 3 <= k <= n, got n={n}, k={k}")
    if not (sigma2 > 0.0):
        raise DomainError(f"sigma2 must be > 0, got {sigma2!r}")
    m = k * (k - 1) / 2.0
    beta_eq = m - (m - 1.0) * sigma2 / 2.0
    out: dict = {}
    if beta_eq <= 0:
        out["pfa"] = BoundValue(1.0, applicable=False)
    else:
        expo = (log_comb(n, k) + math.log(B)
                - beta_eq * beta_eq * math.cos(math.pi / B) ** 2 / m)
        out["pfa"] = BoundValue(_safe_exp(expo))
    msd = _circular_msd(kappa, tau)
    t = (m - 1.0) * sigma2 - m * msd
    ok = t > 0.0
    val = math.exp(-2.0 * t * t / (m * math.pi ** 4)) if ok else math.inf
    out["pmiss"] = BoundValue(val, applicable=ok)
    return out


# ---------------------------------------------------------------------------
# Overlap law and exact second moments
# ---------------------------------------------------------------------------


def delta_overlap(tau: float, u: float) -> float:
    """Normalized overlap of two arcs of length 2 pi tau at anchor distance 2 pi u.

        tau <= 1/2 : (tau - u)+
        tau >  1/2 : (2 tau - 1) + (1 - tau - u)+
    """
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must be in (0, 1), got {tau!r}")
    if not (0.0 <= u <= 0.5):
        raise DomainError(f"u must be in [0, 1/2], got {u!r}")
    if tau <= 0.5:
        return max(tau - u, 0.0)
    return (2.0 * tau - 1.0) + max(1.0 - tau - u, 0.0)


def delta_moment(tau: float, j: int) -> float:
    """E[delta_tau(u)^j] for u ~ uniform[0, 1/2], in closed form.

        tau <= 1/2 : (2/(j+1)) tau^{j+1}
        tau >  1/2 : (2/(j+1)) (tau^{j+1} - (2tau-1)^{j+1})
                     + 2 (tau - 1/2) (2tau-1)^j
    """
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must be in (0, 1), got {tau!r}")
    j = int(j)
    if j < 1:
        raise DomainError(f"j must be >= 1, got {j!r}")
    if tau <= 0.5:
        return 2.0 / (j + 1) * tau ** (j + 1)
    b = 2.0 * tau - 1.0
    return 2.0 / (j + 1) * (tau ** (j + 1) - b ** (j + 1)) + 2.0 * (tau - 0.5) * b ** j


def _log_delta_ratio(tau: float, j: int) -> float:
    """log( E[delta^j] / tau^{2j} ), stable for any j >= 0."""
    if j == 0:
        return 0.0
    if tau <= 0.5:
        # ratio = 2 / ((j+1) tau^{j-1})
        return math.log(2.0) - math.log(j + 1.0) - (j - 1.0) * math.log(tau)
    b = 2.0 * tau - 1.0
    ln_tau, ln_b = math.log(tau), math.log(b) if b > 0 else -math.inf
    # piece1 = (2/(j+1)) tau^{j+1} (1 - (b/tau)^{j+1}); piece2 = 2(tau-1/2) b^j
    lp1 = (math.log(2.0) - math.log(j + 1.0) + (j + 1.0) * ln_tau
           + math.log1p(-math.exp((j + 1.0) * (ln_b - ln_tau))))
    lp2 = math.log(2.0 * (tau - 0.5)) + j * ln_b if b > 0 else -math.inf
    return np.logaddexp(lp1, lp2) - 2.0 * j * ln_tau


@dataclass(frozen=True)
class OverlapLaw:
    """Hypergeometric(N, K, K): |S intersect S'| for two uniform size-K subsets."""

    N: int
    K: int

    def __post_init__(self):
        if not (0 <= self.K <= self.N):
            raise ParameterError(f"need K <= N, got N={self.N}, K={self.K}")


def hypergeom_logpmf(law: OverlapLaw, j: int) -> float:
    N, K = law.N, law.K
    if j < max(0, 2 * K - N) or j > K:
        return -math.inf
    return log_comb(K, j) + log_comb(N - K, K - j) - log_comb(N, K)


def hypergeom_pmf(law: OverlapLaw, j: int) -> float:
    """Exact overlap pmf via log-factorial differences; 0 outside the support."""
    lp = hypergeom_logpmf(law, int(j))
    return 0.0 if lp == -math.inf else math.exp(lp)


def _logsumexp(terms) -> float:
    arr = np.asarray([t for t in terms if t != -math.inf], dtype=float)
    if arr.size == 0:
        return -math.inf
    hi = arr.max()
    return float(hi + math.log(np.exp(arr - hi).sum()))


def second_moment_exact_flat_hard(N: int, K: int, tau: float) -> float:
    """Exact E_Q[L^2] for the flat hard-cluster model.

    E_Q[L^2] = sum_j P(J=j) tau^{-2j} E[delta^j] with J ~ hypergeom(N, K, K);
    evaluated in log space, always >= 1.
    """
    if not (1 <= K <= N):
        raise ParameterError(f"need 1 <= K <= N, got N={N}, K={K}")
    if tau == 1.0:
        return 1.0  # planted arc is the whole circle; L is identically 1
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    law = OverlapLaw(N, K)
    logs = [hypergeom_logpmf(law, j) + _log_delta_ratio(tau, j)
            for j in range(0, K + 1)]
    return max(1.0, _safe_exp(_logsumexp(logs)))


def second_moment_exact_comm_hard(n: int, k: int, tau: float) -> float:
    """Exact E_Q[L^2] for the hard-cluster community model.

    Same overlap expansion with J = C(S,2) pair overlaps, S ~ hypergeom(n,k,k).
    """
    if not (2 <= k <= n):
        raise ParameterError(f"need 2 <= k <= n, got n={n}, k={k}")
    if tau == 1.0:
        return 1.0
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    law = OverlapLaw(n, k)
    logs = [hypergeom_logpmf(law, s) + _log_delta_ratio(tau, s * (s - 1) // 2)
            for s in range(0, k + 1)]
    return max(1.0, _safe_exp(_logsumexp(logs)))


def _log_mean_rho_power(kappa: float, j_of_s, k_max: int, law: OverlapLaw) -> float:
    """log E_S[ (1/2pi) int rho_kappa(phi/2)^{j(S)} dphi ] in log space."""
    log_i0_kappa = log_bessel_i0(kappa)
    logs = []
    for s in range(0, k_max + 1):
        lp = hypergeom_logpmf(law, s)
        if lp == -math.inf:
            continue
        j = j_of_s(s)
        if j == 0:
            logs.append(lp)
            continue
        g_max = j * log_ratio_R(kappa)

        def integrand(phi: float) -> float:
            arg = 2.0 * kappa * abs(math.cos(phi / 2.0))
            g = j * (log_bessel_i0(arg) - 2.0 * log_i0_kappa)
            return math.exp(g - g_max)

        val, err = quad(integrand, 0.0, TWO_PI, epsabs=1e-12, epsrel=1e-10,
                        limit=400, points=[0.0, math.pi, TWO_PI])
        mean = val / TWO_PI
        # The integrand is 1 at phi = 0, so a zero mean is a missed peak.
        if not (math.isfinite(mean) and mean > 0.0):
            raise NumericError(f"second-moment quadrature failed at s={s}")
        logs.append(lp + g_max + math.log(mean))
    return _logsumexp(logs)


def second_moment_exact_comm_vm(n: int, k: int, kappa: float) -> float:
    """Exact E_Q[L^2] for the von Mises community model.

    E_Q[L^2] = sum_s P(S=s) (1/2pi) int_0^{2pi} rho_kappa(phi/2)^{C(s,2)} dphi,
    with the integral factored around its peak so arbitrarily large
    C(k,2) log R(kappa) stays in range (result may be +inf).
    """
    if not (2 <= k <= n):
        raise ParameterError(f"need 2 <= k <= n, got n={n}, k={k}")
    if kappa < 0.0:
        raise DomainError(f"kappa must be >= 0, got {kappa!r}")
    if kappa == 0.0:
        return 1.0
    law = OverlapLaw(n, k)
    total = _log_mean_rho_power(kappa, lambda s: s * (s - 1) // 2, k, law)
    return max(1.0, _safe_exp(total))


def second_moment_exact_flat_vm(N: int, K: int, kappa: float) -> float:
    """Exact E_Q[L^2] for the von Mises flat model (overlap in index counts)."""
    if not (1 <= K <= N):
        raise ParameterError(f"need 1 <= K <= N, got N={N}, K={K}")
    if kappa < 0.0:
        raise DomainError(f"kappa must be >= 0, got {kappa!r}")
    if kappa == 0.0:
        return 1.0
    law = OverlapLaw(N, K)
    total = _log_mean_rho_power(kappa, lambda s: s, K, law)
    return max(1.0, _safe_exp(total))


def tv_bound(second_moment: float) -> float:
    """TV(P, Q) <= (1/2) sqrt(E_Q[L^2] - 1)."""
    return 0.5 * math.sqrt(max(second_moment - 1.0, 0.0))


def impossibility_functionals(model: str, **params) -> dict:
    """Evaluate the impossibility functional(s) of a model at finite size.

    Returns a dict with the displayed variance upper-bound functional
    (criterion: -> 0, or -> -inf for the flat von Mises exponent form),
    the exact Var_Q(L) = E_Q[L^2] - 1, and the implied TV bound.
    """
    out: dict = {}
    if model == "flat-hard":
        N, K, tau = params["N"], params["K"], params["tau"]
        log_f = (math.log(2.0) + math.log(N) + 2.0 * math.log(tau)
                 - 2.0 * math.log(K) + (K + 1) * math.log1p(K / (N * tau)))
        out["var_upper"] = BoundValue(_safe_exp(log_f), applicable=tau <= 0.5)
        m2 = second_moment_exact_flat_hard(N, K, tau)
    elif model == "flat-vm":
        N, K, kappa = params["N"], params["K"], params["kappa"]
        r = ratio_R(kappa)
        out["exponent"] = BoundValue(
            K * K / N * (r - 1.0) - log_ratio_R(kappa))
        m2 = second_moment_exact_flat_vm(N, K, kappa)
    elif model == "comm-hard":
        n, k, tau = params["n"], params["k"], params["tau"]
        log_z = (k - 1) / 2.0 * math.log(1.0 / tau)
        val = _safe_exp(math.log(k * k / n) + log_z) - k * k / n if log_z < 700 else math.inf
        out["var_upper"] = BoundValue(val)
        m2 = second_moment_exact_comm_hard(n, k, tau)
    elif model == "comm-vm":
        n, k, kappa = params["n"], params["k"], params["kappa"]
        t = (k - 1) / 2.0 * log_ratio_R(kappa)
        val = k * k / n * math.expm1(t) if t < 700 else math.inf
        out["var_upper"] = BoundValue(val)
        m2 = second_moment_exact_comm_vm(n, k, kappa)
    else:
        raise ParameterError(f"unknown model {model!r}")
    out["var_exact"] = BoundValue(m2 - 1.0)
    out["tv_bound"] = BoundValue(tv_bound(m2))
    return out


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeTunables:
    """Constants quantified over by the regime conditions.

    eps is the generic margin constant; eps_n the vanishing sequence for the
    wide-window community impossibility condition (default 1/log n); slack
    overrides the asymptotic-to-finite translation factor.
    """

    eps: float = 0.1
    eps_n: Optional[float] = None
    slack: Optional[float] = None


@dataclass
class RegimeVerdict:
    verdict: str                  # "achievable" | "impossible" | "indeterminate"
    citation: str                 # id of the condition that fired ("" if none)
    condition_values: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Condition:
    cid: str
    verdict: str
    gate: Callable[[dict], bool]
    margin: Callable[[dict], float]   # fires when margin <= 0

    def evaluate(self, params: dict):
        """The margin at ``params``, or "gate-closed" / "undefined"."""
        try:
            if not self.gate(params):
                return "gate-closed"
            return self.margin(params)
        except (ValueError, OverflowError, ZeroDivisionError):
            return "undefined"


def _slack_const(size: float, tun: RegimeTunables) -> float:
    return tun.slack if tun.slack is not None else math.log(size)


def _slack_growth(size: float, tun: RegimeTunables) -> float:
    if tun.slack is not None:
        return tun.slack
    return max(1.0, math.log(max(math.log(size), math.e)))


def _flat_hard_conditions(tun: RegimeTunables) -> list:
    eps = tun.eps

    def alpha(p):
        return math.log(p["K"]) / math.log(p["N"])

    return [
        _Condition(
            "flat-hard/achievable/small-K-tiny-window", "achievable",
            lambda p: 2 <= p["K"] <= _slack_const(p["N"], tun),
            lambda p: p["tau"] * _slack_growth(p["N"], tun)
            - p["N"] ** (-1.0 - 1.0 / (p["K"] - 1))),
        _Condition(
            "flat-hard/achievable/mid-K-log-window", "achievable",
            lambda p: _slack_const(p["N"], tun) < p["K"] <= math.sqrt(p["N"]),
            lambda p: p["tau"] - p["K"] ** 2 / ((2.0 + eps) * p["N"] * math.log(p["N"]))),
        _Condition(
            "flat-hard/achievable/large-K-any-window", "achievable",
            lambda p: p["K"] ** 2 > p["N"],
            lambda p: p["tau"] - (1.0 - eps)),
        _Condition(
            "flat-hard/impossible/small-K-wide-window", "impossible",
            lambda p: 2 <= p["K"] <= _slack_const(p["N"], tun),
            lambda p: p["N"] ** (-1.0 - 1.0 / (p["K"] - 1)) * _slack_growth(p["N"], tun)
            - p["tau"]),
        _Condition(
            "flat-hard/impossible/mid-K-wide-window", "impossible",
            lambda p: _slack_const(p["N"], tun) < p["K"] < math.sqrt(p["N"]),
            lambda p: p["K"] ** 2 / ((1.0 - 2.0 * alpha(p)) * p["N"] * math.log(p["N"]))
            - p["tau"]),
    ]


def _flat_vm_conditions(tun: RegimeTunables) -> list:
    eps = tun.eps

    def c1(p):
        # concentration budget constant from 1/sqrt(kappa) = K^2/(c1 N log N)
        return p["K"] ** 2 * math.sqrt(p["kappa"]) / (p["N"] * math.log(p["N"]))

    def alpha(p):
        return math.log(p["K"]) / math.log(p["N"])

    return [
        _Condition(
            "flat-vm/achievable/mid-K-concentrated", "achievable",
            lambda p: _slack_const(p["N"], tun) < p["K"] <= math.sqrt(p["N"])
            and p["kappa"] > 0,
            lambda p: C0_REFERENCE - c1(p)),
        _Condition(
            "flat-vm/achievable/large-K-any-concentration", "achievable",
            lambda p: p["K"] ** 2 > p["N"],
            lambda p: eps - p["kappa"]),
        _Condition(
            "flat-vm/impossible/mid-K-diffuse", "impossible",
            lambda p: _slack_const(p["N"], tun) < p["K"] < math.sqrt(p["N"])
            and p["kappa"] > 0,
            lambda p: c1(p) - (1.0 - 2.0 * alpha(p)) / (2.0 * math.sqrt(math.pi))),
    ]


def _comm_hard_conditions(tun: RegimeTunables) -> list:
    eps = tun.eps

    def eps_n(p):
        return tun.eps_n if tun.eps_n is not None else 1.0 / math.log(p["n"])

    return [
        _Condition(
            "comm-hard/achievable/log-K-window", "achievable",
            lambda p: p["k"] >= 3,
            lambda p: p["tau"] - math.exp(-2.0 * math.log(p["n"]) / p["k"])),
        _Condition(
            "comm-hard/achievable/poly-window", "achievable",
            lambda p: p["k"] > 3.0 / eps,
            lambda p: p["tau"]
            - (p["k"] / (p["n"] * math.e)) ** ((2.0 + eps) / (p["k"] - 1))),
        _Condition(
            "comm-hard/achievable/wide-window-large-K", "achievable",
            lambda p: p["k"] >= math.log(p["n"]) * _slack_growth(p["n"], tun),
            lambda p: p["tau"] - (1.0 - 2.0 * (1.0 + eps) / (p["k"] - 1)
                                  * math.log(p["n"] * math.e / p["k"]))),
        _Condition(
            "comm-hard/achievable/general-window", "achievable",
            lambda p: p["k"] >= 3,
            lambda p: p["tau"] - (p["k"] / (p["n"] * math.e))
            ** ((1.0 + eps) * p["k"] / (p["k"] * (p["k"] - 1) / 2.0 - 1.0))),
        _Condition(
            "comm-hard/impossible/log-K-window", "impossible",
            lambda p: p["k"] >= 2,
            lambda p: math.exp(-2.0 * math.log(p["n"]) / p["k"]) * (1.0 + eps)
            - p["tau"]),
        _Condition(
            "comm-hard/impossible/small-K", "impossible",
            lambda p: p["k"] <= math.sqrt(p["n"]) / _slack_growth(p["n"], tun)
            and p["n"] > p["k"] ** 2,
            lambda p: math.exp(-(2.0 - eps) * math.log(p["n"] / p["k"] ** 2)
                               / (p["k"] - 1)) - p["tau"]),
        _Condition(
            "comm-hard/impossible/wide-window-large-K", "impossible",
            lambda p: p["k"] >= math.log(p["n"]) * _slack_growth(p["n"], tun),
            lambda p: (1.0 - 2.0 * (1.0 - eps) / (p["k"] - 1)
                       * math.log1p(eps_n(p) * p["n"] / p["k"] ** 2)) - p["tau"]),
    ]


def _comm_vm_conditions(tun: RegimeTunables) -> list:
    eps = tun.eps

    def ln_n(p):
        return math.log(p["n"])

    return [
        _Condition(
            "comm-vm/achievable/small-K-interval", "achievable",
            lambda p: 3.0 / eps < p["k"] <= ln_n(p) / _slack_growth(p["n"], tun),
            lambda p: (4.0 / math.pi ** 2 + eps) * math.log(p["k"])
            * (p["n"] / p["k"]) ** (4.0 * (1.0 + eps) / (p["k"] - 1)) - p["kappa"]),
        _Condition(
            "comm-vm/achievable/log-K-coherence", "achievable",
            lambda p: p["k"] > 2.0 * ln_n(p) and p["kappa"] > 0,
            lambda p: 2.0 - (p["k"] / ln_n(p)) * mean_resultant(p["kappa"]) ** 2),
        _Condition(
            "comm-vm/achievable/log-K-interval", "achievable",
            lambda p: p["k"] >= 3,
            lambda p: 2.0 * math.log(p["k"])
            / (1.0 - math.cos(math.pi * math.exp(-2.0 * ln_n(p) / p["k"])))
            - p["kappa"]),
        _Condition(
            "comm-vm/achievable/large-K-coherence", "achievable",
            lambda p: p["k"] >= ln_n(p) * _slack_growth(p["n"], tun),
            lambda p: (1.0 + eps) * math.sqrt(8.0 * ln_n(p) / (p["k"] - 1))
            - p["kappa"]),
        _Condition(
            "comm-vm/impossible/small-K-diffuse", "impossible",
            lambda p: p["k"] <= ln_n(p) / _slack_growth(p["n"], tun) and p["k"] >= 2,
            lambda p: p["kappa"]
            - (p["n"] / p["k"] ** 2) ** ((4.0 - eps) / (p["k"] - 1))),
        _Condition(
            "comm-vm/impossible/log-K-diffuse", "impossible",
            lambda p: p["k"] >= 2,
            lambda p: (p["k"] / ln_n(p)) * log_ratio_R(p["kappa"]) - 2.0),
        _Condition(
            "comm-vm/impossible/large-K-diffuse", "impossible",
            lambda p: p["k"] >= ln_n(p) * _slack_growth(p["n"], tun)
            and math.log(p["k"]) / ln_n(p) < 0.5
            and 1.0 - 2.0 * math.log(p["k"]) / ln_n(p) - eps > 0,
            lambda p: p["kappa"] ** 2
            - 4.0 * (1.0 - 2.0 * math.log(p["k"]) / ln_n(p) - eps)
            * ln_n(p) / (p["k"] - 1)),
    ]


_CONDITION_BUILDERS = {
    "flat-hard": _flat_hard_conditions,
    "flat-vm": _flat_vm_conditions,
    "comm-hard": _comm_hard_conditions,
    "comm-vm": _comm_vm_conditions,
}


def regime_classify(model: str, params: dict,
                    tunables: Optional[RegimeTunables] = None) -> RegimeVerdict:
    """Classify a parameter point against the finite-size regime conditions.

    Conditions are evaluated in a fixed order (achievability families first);
    the verdict cites the first that fires and reports every evaluated
    margin, any additional fired condition ids, and the slack factors used.
    """
    if model not in _CONDITION_BUILDERS:
        raise ParameterError(f"unknown model {model!r}")
    tun = tunables or RegimeTunables()
    conditions = _CONDITION_BUILDERS[model](tun)
    size = params.get("N", params.get("n"))
    values: dict = {
        "slack_const": _slack_const(size, tun),
        "slack_growth": _slack_growth(size, tun),
        "eps": tun.eps,
    }
    if model == "flat-vm":
        values["c0_reference"] = C0_REFERENCE
    fired: list = []
    first: Optional[_Condition] = None
    for cond in conditions:
        margin = values[cond.cid] = cond.evaluate(params)
        if not isinstance(margin, str) and margin <= 0.0:
            fired.append(cond.cid)
            if first is None:
                first = cond
    if first is None:
        return RegimeVerdict("indeterminate", "", values)
    values["also_fired"] = [cid for cid in fired if cid != first.cid]
    return RegimeVerdict(first.verdict, first.cid, values)


def known_theta_regime(N: int, K: int, tau: float) -> RegimeVerdict:
    """Regimes for the known-phase flat hard-cluster problem.

    Both branches need K^2 <= N. Finite surrogates: achievable when
    tau <= K^2/(N log N); impossible when tau >= min(1, K^2 log N / N).
    """
    if not (1 <= K <= N):
        raise ParameterError(f"need 1 <= K <= N, got N={N}, K={K}")
    values = {"K2_over_N": K * K / N, "log_N": math.log(N)}
    if K * K > N:
        values["K2_le_N"] = False
        return RegimeVerdict("indeterminate", "", values)
    values["K2_le_N"] = True
    ach = K * K / (N * math.log(N))
    imp = min(1.0, K * K * math.log(N) / N)
    values["achievable_below"] = ach
    values["impossible_above"] = imp
    if tau <= ach:
        return RegimeVerdict("achievable", "known-theta/achievable/narrow-window",
                             values)
    if tau >= imp:
        return RegimeVerdict("impossible", "known-theta/impossible/wide-window",
                             values)
    return RegimeVerdict("indeterminate", "", values)


def rayleigh_condition(n: int, k: int, kappa: float) -> dict:
    """Rayleigh-test success diagnostic.

    ratio = k^2 A(kappa) / n: >> 1 suggests the all-edges test succeeds,
    << 1 that it fails. Also returns the total-error bound of
    ``rayleigh_bounds`` (``total_default``).
    """
    total = rayleigh_bounds(n, k, kappa)["total_default"].value
    return {"ratio": k * k * mean_resultant(kappa) / n, "total_error_bound": total}
