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
from typing import Callable

from .errors import InfeasibleTargetError

__all__ = [
    "ModelParams",
    "TimeoutSolution",
    "state_probability",
    "failure_probability",
    "feasibility_bound",
    "solve_timeout_exact",
    "solve_timeout",
]

# the labels solve_timeout takes.  auto picks exact up to _LARGE_N_ABOVE users:
# above it the large-N approximation is indistinguishable from the exact
# inversion at operational precision, and much cheaper to explain.
_EXPRESSIONS = ("auto", "exact", "large-n")
_LARGE_N_ABOVE = 500


# each range a number is checked against, as errors word it, with its test;
# NaN passes none.  The library and the command line's flags share it.  A
# population tops out at the largest C long, the most simulate's binomial
# draw takes, so that no command overflows on an n_users its check admits.
_RANGES: dict[str, Callable[[float], bool]] = {
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "in [1, 2**63 - 1]": lambda x: 1 <= x <= 2**63 - 1,
    "positive": lambda x: x > 0,
    "positive and finite": lambda x: 0 < x < math.inf,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
}


def _check(name: str, value: float, bounds: str) -> None:
    """Raise ValueError unless ``value`` lies in the range ``bounds``, a key of :data:`_RANGES`."""
    if not _RANGES[bounds](value):
        raise ValueError(f"{name} must be {bounds}, got {value!r}")


def _check_count(name: str, value: int, bounds: str) -> None:
    """Raise ValueError unless ``value`` is an integer (bool is not) in the
    range ``bounds``, a key of :data:`_RANGES`."""
    # a plain int, the usual case, skips the slower ABC check
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    _check(name, value, bounds)


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
        _check_count("n_users", self.n_users, "in [1, 2**63 - 1]")
        _check("beta", self.beta, "positive and finite")
        _check("xi", self.xi, "in [0, 1]")
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
        _check("timeout_s", self.timeout_s, "positive and finite")
        if not self.target_eps > self.feasibility_bound:
            raise ValueError(
                f"target_eps {self.target_eps!r} does not exceed the feasibility "
                f"bound {self.feasibility_bound!r}; construction should have failed earlier"
            )


def state_probability(params: ModelParams, k: int, t: float) -> float:
    """Probability that exactly ``k`` users have fired a request in [0, t].

    Each user fires within ``t`` independently with probability
    ``1 - exp(-beta * t)``, so the observed count is binomial.  Evaluated
    through logs; the binomial coefficient is taken as an exact integer
    before its log so the result holds full double precision even for
    large populations.
    """
    _check_count("state index", k, ">= 0")
    if k > params.n_users:
        raise ValueError(f"state index {k} outside chain [0, {params.n_users}]")
    _check("t", t, ">= 0")
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
    _check("timeout_s", timeout_s, ">= 0")
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


def _solve_timeout(n_users: int, beta: float, xi: float, eps: float, inversion: str) -> tuple[float | None, float]:
    """The idle timeout that ``inversion`` ("exact" or "large-n") gives for
    target ``eps``, or None where no finite timeout reaches it, and the
    feasibility bound.

    The arguments are plain numbers in the ranges :class:`ModelParams`
    checks, with ``eps`` in (0, 1); nothing is checked here.  A target at or
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


def solve_timeout_exact(params: ModelParams, eps: float) -> float:
    """``solve_timeout(params, eps, "exact").timeout_s``: the idle timeout
    that solves ``(1 - xi*(1 - exp(-beta*t))) ** n_users = eps`` for ``t``."""
    return solve_timeout(params, eps, "exact").timeout_s


def _pick_inversion(expression: str, n_users: int) -> str:
    """The inversion, "exact" or "large-n", that ``expression`` picks for
    ``n_users`` users; ValueError unless ``expression`` is auto, exact or
    large-n."""
    if expression not in _EXPRESSIONS:
        raise ValueError(f"expression must be auto, exact, or large-n, got {expression!r}")
    if expression != "auto":
        return expression
    return "exact" if n_users <= _LARGE_N_ABOVE else "large-n"


def solve_timeout(params: ModelParams, eps: float, expression: str = "auto") -> TimeoutSolution:
    """Solve for the idle timeout with the inversion ``expression`` names.

    "exact" and "large-n" force that inversion; "auto" takes the exact one
    up to 500 users and the large-N form above it,
    ``t = -log(eps) / (beta * xi * n_users)``, the exact one's first-order series.
    Records which expression produced the result and the feasibility bound
    for the inputs.  Infeasible targets raise regardless of the expression
    selected: the approximation cannot rescue an unattainable target.
    """
    _check("eps", eps, "in (0, 1)")
    expression = _pick_inversion(expression, params.n_users)
    timeout_s, bound = _solve_timeout(params.n_users, params.beta, params.xi, eps, expression)
    if timeout_s is None:
        raise InfeasibleTargetError(eps, bound)
    return TimeoutSolution(
        timeout_s=timeout_s,
        target_eps=eps,
        expression=expression,
        feasibility_bound=bound,
    )
