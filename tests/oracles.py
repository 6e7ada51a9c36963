"""Reference implementations used only by tests.

The closed-form references are evaluated with mpmath at 50+ decimal
digits and coded directly from the definitions, sharing no formulas or
branches with the package under test.  The pool walk replays the same
random draws as :func:`idletune.simulate.simulate_system` one arrival at
a time, in plain Python, so that its array kernel has a reference.
"""

import statistics

import mpmath

from idletune.simulate import SystemConfig, SystemReport, _arrival_batches, _streams


def binomial_pmf(n: int, p: float, k: int) -> float:
    """Probability of k successes in n Bernoulli(p) trials."""
    with mpmath.workdps(50):
        mp_p = mpmath.mpf(p)
        value = mpmath.binomial(n, k) * mp_p**k * (1 - mp_p) ** (n - k)
        return float(value)


def state_prob_ref(n: int, beta: float, t: float, k: int) -> float:
    """Chance exactly k of n users fire within t at per-user rate beta."""
    with mpmath.workdps(50):
        p = -mpmath.expm1(-mpmath.mpf(beta) * mpmath.mpf(t))
        value = mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)
        return float(value)


def failure_prob_ref(n: int, beta: float, xi: float, t: float) -> float:
    """Chance a window of length t sees no marked request from n users."""
    with mpmath.workdps(60):
        fire = -mpmath.expm1(-mpmath.mpf(beta) * mpmath.mpf(t))
        return float((1 - mpmath.mpf(xi) * fire) ** n)


def bound_ref(n: int, xi: float) -> float:
    """(1 - xi) ** n at high precision."""
    with mpmath.workdps(60):
        return float((1 - mpmath.mpf(xi)) ** n)


def simulate_system_ref(config: SystemConfig, seed: int) -> SystemReport:
    """The pool of ``config`` walked arrival by arrival over the draws
    ``simulate_system`` makes for ``seed``."""
    rng_arrivals, rng_marks, rng_dispatch = _streams(seed, 3)
    last_use = [0.0] * config.n_processes
    served = [0] * config.n_processes
    gaps: list[float] = []
    total_requests = 0
    failed_binds = 0
    for times in _arrival_batches(rng_arrivals, config.n_users * config.beta, config.duration_s):
        n = len(times)
        total_requests += n
        marks = rng_marks.random(size=n) < config.xi
        procs = rng_dispatch.integers(0, config.n_processes, size=n)
        for t, marked, proc in zip(times.tolist(), marks.tolist(), procs.tolist()):
            if marked:
                gap = t - last_use[proc]
                gaps.append(gap)
                if config.idle_timeout_s > 0.0 and gap > config.idle_timeout_s:
                    failed_binds += 1
                last_use[proc] = t
            served[proc] += 1
            if config.process_life and served[proc] >= config.process_life:
                served[proc] = 0
                last_use[proc] = t
    return SystemReport(
        total_requests=total_requests,
        marked_requests=len(gaps),
        failed_binds=failed_binds,
        failure_rate=failed_binds / len(gaps) if gaps else 0.0,
        no_marked=not gaps,
        idle_gap_min_s=min(gaps) if gaps else None,
        idle_gap_median_s=statistics.median(gaps) if gaps else None,
        idle_gap_max_s=max(gaps) if gaps else None,
        seed=seed,
    )
