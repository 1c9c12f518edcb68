"""Exception hierarchy shared by all circlab modules, and the one check of
each parameter domain.

A number is a ``numbers.Real`` that is not a bool; an integer is an integral
number (10, 10.0, a numpy int). A check tests the type, then the range on
the value as given (10**400 fails a bounded range), then returns its float
or int form; where no range stops it, a number with no float form (10**400
as a kappa) is rejected as not a number.
"""

import math
import numbers
from typing import Optional


class CirclabError(Exception):
    """Base class for all circlab errors."""


class DomainError(CirclabError, ValueError):
    """A scalar argument is outside the mathematical domain of the function."""


class ParameterError(CirclabError, ValueError):
    """A model or experiment parameter combination is invalid (e.g. K > N)."""


class NumericError(CirclabError, ArithmeticError):
    """A numerical routine failed to converge or to certify its tolerance."""


class CapabilityError(CirclabError, RuntimeError):
    """The request exceeds a configured exact-computation budget."""


class ConfigError(CirclabError, ValueError):
    """A config file or CLI invocation is malformed (usage error, exit code 2)."""


MAX_SIZE = (1 << 63) - 1  # the largest array size


def is_number(value) -> bool:
    """Whether ``value`` is a ``numbers.Real`` that is not a bool."""
    kind = type(value)
    if kind is float or kind is int:  # without the slower ABC check
        return True
    return kind is not bool and isinstance(value, (float, numbers.Real))


def number(value, what: str, error: type):
    """``value`` itself if it is a number; else ``error``."""
    if not is_number(value):
        raise error(f"{what} must be a number, got {value!r}")
    return value


def real(value, what: str, error: type = ParameterError) -> float:
    """``float(value)`` of a number, NaN and +-inf included; else ``error``."""
    if type(value) is float:
        return value
    try:
        return float(number(value, what, error))
    except OverflowError:
        raise error(f"{what} must be a number, got {value!r}") from None


def finite(value, what: str, error: type = DomainError) -> float:
    """A finite number as a float, such as a phase theta; else ``error``."""
    value = real(value, what, error)
    if not math.isfinite(value):
        raise error(f"{what} must be finite, got {value!r}")
    return value


def is_whole(value) -> bool:
    """Whether ``value`` is an integral number; NaN and 10.5 are not."""
    if type(value) is int:
        return True
    return is_number(value) and (isinstance(value, numbers.Integral) or (
        math.isfinite(value) and float(value).is_integer()))


def whole(value, what: str, error: type = ParameterError) -> int:
    """``int(value)`` of an integral number; else ``error``, never truncated."""
    if not is_whole(value):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_size(value, what: str, error: type = ParameterError) -> int:
    """An integer of at most ``MAX_SIZE``, as an int; else ``error``."""
    value = whole(value, what, error)
    if value > MAX_SIZE:
        raise error(f"{what} must be an integer of at most 2^63 - 1, "
                    f"got {value!r}")
    return value


def check_sizes(size, k, edges: bool = False, low: Optional[int] = None) -> tuple:
    """(N, K) of a flat sample, or (n, k) of an edge sample, as ints with
    low <= K <= N; low defaults to 1, or 2 for edges. Else a ParameterError."""
    big, small = "nk" if edges else "NK"
    low = (2 if edges else 1) if low is None else low
    n, k = check_size(size, big), check_size(k, small)
    if not low <= k <= n:
        raise ParameterError(
            f"need {low} <= {small} <= {big}, got {big}={n}, {small}={k}")
    return n, k


def check_window(tau, closed: bool = True) -> float:
    """A window fraction tau in (0, 1], or (0, 1) when not ``closed``."""
    if type(tau) is not float:  # a float skips the slower type check
        number(tau, "tau", DomainError)
    if not (0.0 < tau < 1.0 or closed and tau == 1.0):
        raise DomainError(
            f"tau must be in (0, 1{']' if closed else ')'}, got {tau!r}")
    return float(tau)


def check_kappa(kappa, positive: bool = False, cap: float = math.inf,
                what: str = "kappa") -> float:
    """A finite concentration kappa >= 0 (> 0 when ``positive``) of at most
    ``cap``, the sampler's limit, as a float."""
    if type(kappa) is not float:
        number(kappa, what, DomainError)
    if not (kappa > 0.0 or kappa == 0.0 and not positive) or kappa == math.inf:
        raise DomainError(f"{what} must be finite and {'>' if positive else '>='}"
                          f" 0, got {kappa!r}")
    if kappa > cap:
        raise DomainError(f"{what} must be <= {cap:g}, the largest "
                          f"concentration the sampler draws, got {kappa!r}")
    return kappa if type(kappa) is float else real(kappa, what, DomainError)


def check_margin(epsilon) -> float:
    """A coherence margin epsilon in (0, 1), as a float."""
    if type(epsilon) is not float:
        number(epsilon, "epsilon", DomainError)
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    return float(epsilon)


def check_bar(sigma2) -> float:
    """A variance bar sigma2 > 0 (+inf included), as a float."""
    sigma2 = real(sigma2, "sigma2", DomainError)
    if not sigma2 > 0.0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2!r}")
    return sigma2
