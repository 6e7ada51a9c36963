"""Closed-form model of idle-drop failures on pooled directory connections.

A population of ``n_users`` independent users each fires requests at rate
``beta``; a request is *marked* (actually opens an LDAP connection to the
directory server) with probability ``xi``.  A bind fails when the gap
between two successive marked requests exceeds the server's idle timeout,
because the server has silently dropped the pooled connection in between.

Everything here is a pure function of its arguments.  All powers of
probabilities are taken in log space so populations of 10^5 and beyond
neither overflow the binomial coefficient nor underflow the result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InfeasibleTargetError

__all__ = [
    "ModelParams",
    "TimeoutSolution",
    "state_probability",
    "failure_probability",
    "feasibility_bound",
    "solve_timeout_exact",
    "solve_timeout_large_n",
    "solve_timeout",
]

# Above this population the large-N approximation is indistinguishable from
# the exact inversion at operational precision, and much cheaper to explain.
DEFAULT_LARGE_N_THRESHOLD = 500

# the labels solve_timeout takes: auto picks exact up to the threshold
_EXPRESSIONS = ("auto", "exact", "large-n")


def _check_count(name: str, value: int, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least`` (bool is not)."""
    # a plain int skips the ABC check, which would cost EstimatorState
    # about 0.5 us on each window
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Population, activity, and marking parameters.

    n_users:
        Number of distinct users generating requests through the proxy.
    beta:
        Per-user request rate, requests/second.
    xi:
        Probability that a request is marked, i.e. is translated into an
        LDAP connection (caching and unrestricted resources keep it < 1).
    """

    n_users: int
    beta: float
    xi: float

    def __post_init__(self) -> None:
        _check_count("n_users", self.n_users)
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {self.xi!r}")
        # normalize numpy scalars so downstream integer math is exact
        object.__setattr__(self, "n_users", int(self.n_users))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "xi", float(self.xi))


@dataclass(frozen=True)
class TimeoutSolution:
    """A solved idle timeout together with how it was obtained: ``expression``
    is "exact" or "large-n"."""

    timeout_s: float
    target_eps: float
    expression: str
    feasibility_bound: float

    def __post_init__(self) -> None:
        if not (self.timeout_s > 0.0 and math.isfinite(self.timeout_s)):
            raise ValueError(f"timeout_s must be positive and finite, got {self.timeout_s!r}")
        if not self.target_eps > self.feasibility_bound:
            raise ValueError(
                f"target_eps {self.target_eps!r} does not exceed the feasibility "
                f"bound {self.feasibility_bound!r}; construction should have failed earlier"
            )


def _check_state_index(params: ModelParams, k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"state index must be an integer, got {k!r}")
    if not 0 <= k <= params.n_users:
        raise ValueError(f"state index {k} outside chain [0, {params.n_users}]")


def state_probability(params: ModelParams, k: int, t: float) -> float:
    """Probability that exactly ``k`` users have fired a request in [0, t].

    Each user fires within ``t`` independently with probability
    ``1 - exp(-beta * t)``, so the observed count is binomial.  Evaluated
    through logs; the binomial coefficient is taken as an exact integer
    before its log so the result holds full double precision even for
    large populations.
    """
    _check_state_index(params, k)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    n = params.n_users
    p = -math.expm1(-params.beta * t)
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    log_pmf = math.log(math.comb(n, k)) - (n - k) * params.beta * t
    if k:
        log_pmf += k * math.log(p)
    return min(1.0, math.exp(log_pmf))


def failure_probability(params: ModelParams, timeout_s: float) -> float:
    """Probability that no marked request arrives within the idle window.

    A user fires in [0, timeout] with probability ``1 - exp(-beta*t)`` and
    the request is marked with probability ``xi``, so the window stays free
    of marked requests (and the next bind finds a dropped connection) with
    probability ``(1 - xi*(1 - exp(-beta*t))) ** n_users``.
"""
    if not timeout_s >= 0.0:
        raise ValueError(f"timeout_s must be >= 0, got {timeout_s!r}")
    n, beta, xi = params.n_users, params.beta, params.xi
    x = xi * -math.expm1(-beta * timeout_s)
    if x < 0.5:
        log_p = n * math.log1p(-x)
    else:
        # rewrite 1 - x as (1 - xi) + xi*exp(-beta*t): a sum of nonnegative
        # terms, so no cancellation even arbitrarily close to the floor
        survivor = (1.0 - xi) + xi * math.exp(-beta * timeout_s)
        if survivor == 0.0:
            return 0.0
        log_p = n * math.log(survivor)
    return min(1.0, math.exp(log_p))


def feasibility_bound(params: ModelParams) -> float:
    """Infimum of achievable failure probabilities: ``(1 - xi) ** n_users``.

    This is the failure probability left over when the timeout grows
    without bound; no target at or below it can be met.
    """
    return _bound(params.n_users, params.xi)


def _bound(n_users: int, xi: float) -> float:
    if xi == 1.0:
        return 0.0
    return math.exp(n_users * math.log1p(-xi))


def _check_eps(eps: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")


def _solve_timeout(n_users: int, beta: float, xi: float, eps: float, inversion: str) -> tuple[float | None, float]:
    """The idle timeout that ``inversion`` ("exact" or "large-n") gives for
    target ``eps``, or None where no finite timeout reaches it, and the
    feasibility bound.

    The arguments are plain numbers in the ranges :class:`ModelParams`
    checks, with ``eps`` in (0, 1]; nothing is checked here.  A target at or
    below the bound is infeasible for either inversion, including the
    degenerate ``xi = 0`` case, whose bound is 1.
    """
    bound = _bound(n_users, xi)
    if xi == 0.0 or eps <= bound:
        return None, bound
    if inversion == "large-n":
        # the first-order series of the exact inversion
        return -math.log(eps) / (beta * xi * n_users), bound
    # solve (1 - xi*(1 - exp(-beta*t))) ** n_users = eps for t
    c = math.log(eps) / n_users  # log of the required per-user survival level
    if c > -0.5:
        ratio = math.expm1(c) / xi  # in (-1, 0] when feasible
        return (None if ratio <= -1.0 else -math.log1p(ratio) / beta), bound
    # aggressive targets: exp(c) is far below 1, so keep it at full relative
    # precision instead of flushing it against -1 inside expm1
    headroom = math.exp(c) - (1.0 - xi)
    return (None if headroom <= 0.0 else (math.log(xi) - math.log(headroom)) / beta), bound


def _solved(params: ModelParams, eps: float, inversion: str) -> tuple[float, float]:
    """The timeout and the bound; InfeasibleTargetError where no timeout reaches ``eps``."""
    timeout_s, bound = _solve_timeout(params.n_users, params.beta, params.xi, eps, inversion)
    if timeout_s is None:
        raise InfeasibleTargetError(eps, bound)
    return timeout_s, bound


def solve_timeout_exact(params: ModelParams, eps: float) -> float:
    """Idle timeout achieving failure probability ``eps``, exact inversion.

    Solves ``(1 - xi*(1 - exp(-beta*t))) ** n_users = eps`` for ``t``.
    Raises :class:`InfeasibleTargetError` when ``eps`` does not strictly
    exceed the feasibility bound (the log argument leaves (0, 1] and no
    finite timeout exists), including the degenerate ``xi = 0`` case.
    """
    _check_eps(eps)
    return _solved(params, eps, "exact")[0]


def solve_timeout_large_n(params: ModelParams, eps: float) -> float:
    """Large-population approximation of the timeout inversion.

    ``t = -log(eps) / (beta * xi * n_users)``; the first-order series of
    the exact inversion, accurate once the population dwarfs the target.
    Like the exact inversion it raises :class:`InfeasibleTargetError` when
    ``eps`` does not exceed the feasibility bound.
    """
    _check_eps(eps)
    return _solved(params, eps, "large-n")[0]


def _pick_inversion(expression: str, large_n_threshold: int, n_users: int) -> str:
    """The inversion, "exact" or "large-n", that ``expression`` picks for
    ``n_users`` users; ValueError unless ``expression`` is auto, exact or
    large-n and ``large_n_threshold`` an integer >= 1."""
    if expression not in _EXPRESSIONS:
        raise ValueError(f"expression must be auto, exact, or large-n, got {expression!r}")
    _check_count("large_n_threshold", large_n_threshold)
    if expression != "auto":
        return expression
    return "exact" if n_users <= large_n_threshold else "large-n"


def solve_timeout(
    params: ModelParams,
    eps: float,
    expression: str = "auto",
    large_n_threshold: int = DEFAULT_LARGE_N_THRESHOLD,
) -> TimeoutSolution:
    """Solve for the idle timeout with the inversion ``expression`` names.

    "exact" and "large-n" force that inversion; "auto" takes the exact one
    up to ``large_n_threshold`` users and the large-N form above it.
    Records which expression produced the result and the feasibility bound
    for the inputs.  Infeasible targets raise regardless of the expression
    selected: the approximation cannot rescue an unattainable target.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    expression = _pick_inversion(expression, large_n_threshold, params.n_users)
    timeout_s, bound = _solved(params, eps, expression)
    return TimeoutSolution(
        timeout_s=timeout_s,
        target_eps=eps,
        expression=expression,
        feasibility_bound=bound,
    )
