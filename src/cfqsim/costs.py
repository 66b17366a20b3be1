"""Resource accounting for counterfactual pair distribution.

With both devices balanced, the per-round outcome probabilities depend
only on the beam splitter, so the average number of rounds per delivered
pair and the average classical communication per pair reduce to closed
forms in the reflectance R, and so do their minima: 2/(R(1-R)) rounds
per pair is least at R = 1/2, and h(xi)/xi bits per pair, with
xi = R(1-R)/(1+R), at R = sqrt(2) - 1.  A seeded Monte Carlo sampler
reproduces the same statistics empirically on the standard library alone:
one exact multinomial draw from ``random.Random(seed)``, in O(1) work
whatever the run count, with bit-reproducible output.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

# Inverse golden ratio, the bracket shrink factor of the section search.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The bracket width at which the section search stops, and its iteration cap.
_SECTION_TOL = 1e-6
_SECTION_MAX_ITER = 200


class CostProfile(NamedTuple):
    R: float
    P_D1: float
    P_D2: float
    P_DB: float
    p1_prime: float  # probability of a counterfactual click among announced rounds
    p2_prime: float
    C_q: float  # average rounds consumed per counterfactual pair
    C: float  # average classical bits per counterfactual pair


class McReport(NamedTuple):
    runs: int
    seed: int
    counts: tuple[int, int, int]  # (n_D1, n_D2, n_DB)
    empirical_C: float
    std_error: float


def _h_over_p(p: float) -> float:
    """h(p)/p in bits for 0 < p < 1, h the binary entropy, as
    -log2 p - (1-p) log2(1-p)/p; taking log1p(-p)/p first keeps every
    digit down to subnormal p."""
    return -math.log2(p) - (1.0 - p) * (math.log1p(-p) / p) / math.log(2.0)


def cost_profile(R: float) -> CostProfile:
    """Per-round statistics and both resource costs at reflectance R.

    Balanced devices on both sides are assumed; then P_D1 = R(1-R)/2,
    P_D2 = (1+R^2)/2 and P_DB = (1-R)/2, the blocked rounds need no
    announcement, and compressing the announcement stream gives
    C = h(p1') / p1' bits per delivered pair with p1' = R(1-R)/(1+R).
    """
    if not 0.0 < R < 1.0:
        raise ValueError("reflectance must lie strictly inside (0, 1)")
    p_d1 = R * (1.0 - R) / 2.0
    p_d2 = (1.0 + R * R) / 2.0
    p_db = (1.0 - R) / 2.0
    p1 = R * (1.0 - R) / (1.0 + R)
    return CostProfile(R, p_d1, p_d2, p_db, p1, 1.0 - p1, 2.0 / (R * (1.0 - R)), _h_over_p(p1))


def golden_section_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Derivative-free minimizer for a unimodal function on [lo, hi].

    Golden-section narrowing down to ``_SECTION_TOL``, then one parabolic fit
    through the bracket; the fit recovers the extra digits that direct
    function comparisons lose to double-precision flatness near the
    minimum.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_SECTION_MAX_ITER):
        if b - a <= _SECTION_TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x1, x3 = a, b
    x2 = 0.5 * (a + b)
    f1, f2, f3 = f(x1), f(x2), f(x3)
    num = (x2 - x1) ** 2 * (f2 - f3) - (x2 - x3) ** 2 * (f2 - f1)
    den = (x2 - x1) * (f2 - f3) - (x2 - x3) * (f2 - f1)
    if den != 0.0:
        vertex = x2 - 0.5 * num / den
        if a <= vertex <= b:
            return vertex
    return x2


def minimize_quantum_cost() -> tuple[float, float]:
    """Reflectance minimizing the rounds-per-pair cost, and that cost:
    R(1-R) is largest at R = 1/2."""
    return 0.5, cost_profile(0.5).C_q


def minimize_classical_cost() -> tuple[float, float]:
    """Reflectance minimizing the bits-per-pair cost, and that cost.

    h(xi)/xi falls monotonically in xi, so minimizing the cost is the
    same as maximizing xi(R) = R(1-R)/(1+R), whose derivative vanishes
    where R**2 + 2R - 1 = 0, at R = sqrt(2) - 1.
    """
    r = math.sqrt(2.0) - 1.0
    return r, cost_profile(r).C


def total_qst_cost(R: float) -> float:
    """Average classical bits for one full state transfer at reflectance R.

    The per-pair distribution cost plus the single correction bit of the
    deterministic transfer step.
    """
    return cost_profile(R).C + 1.0


def _binomial(rng, n: int, p: float) -> int:
    """One exact Bin(n, p) draw in O(1) expected work, from ``rng.random()``
    alone; p <= 0 gives 0 and p >= 1 gives n.

    Ported from CPython 3.12's ``random.binomialvariate`` (which Python 3.10
    and 3.11 lack): Devroye's geometric method ("Non-Uniform Random Variate
    Generation", 1986) when n*p < 10, Hoermann's BTRS transformed rejection
    ("The generation of binomial random variates", 1993) otherwise, and
    symmetry for p > 1/2.  Unlike the original it survives a 0.0 from random(),
    and its geometric gaps use log1p, so p below 1e-16 still draws.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    uniform = rng.random
    if n == 1:
        return int(uniform() < p)
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        # Count the successes: each gap to the next is geometric, drawn by
        # inversion from a uniform in (0, 1].
        c = math.log1p(-p)
        x = y = 0
        while True:
            gap = math.log(1.0 - uniform()) / c  # may be inf for subnormal p
            if gap >= n - y:
                return x
            y += math.floor(gap) + 1
            x += 1

    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)  # the mode
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = uniform() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # uniform() == 0.0 sits on the hat's pole, k = -inf
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = uniform()
        if us >= 0.07 and v <= vr:  # the squeeze
            return k
        # The accept test; Hoermann's paper omits its log(v).  v == 0.0 has
        # log -inf, so it accepts.
        v *= alpha / (a / (us * us) + b)
        log_ratio = h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq
        if v == 0.0 or math.log(v) <= log_ratio:
            return k


def monte_carlo(R: float, n: int, seed: int) -> McReport:
    """Sample n rounds and estimate the classical cost from observed counts.

    The outcome counts are one exact multinomial draw from the
    balanced-device probabilities: n_D1 ~ Bin(n, P_D1), then
    n_D2 ~ Bin(n - n_D1, P_D2 / (1 - P_D1)), and DB takes the rest.  Both
    binomials come from ``random.Random(seed).random()``, whose stream
    CPython keeps fixed for an integer seed, so reports are bit-reproducible
    for fixed (R, n, seed), and the work does not grow with n.
    ``std_error`` is the delta-method standard error of the empirical cost.
    """
    if n < 1:
        raise ValueError("need at least one run")
    if seed < 0:  # random.Random would alias it to -seed
        raise ValueError("seed must be nonnegative")
    prof = cost_profile(R)
    import random

    rng = random.Random(seed)
    n1 = _binomial(rng, n, prof.P_D1)
    n2 = _binomial(rng, n - n1, prof.P_D2 / (1.0 - prof.P_D1))
    nb = n - n1 - n2
    announced = n1 + n2
    if n1 == 0 or n2 == 0:
        return McReport(n, seed, (n1, n2, nb), float("nan"), float("nan"))
    p1 = n1 / announced
    empirical_c = _h_over_p(p1)
    # d/dp [h(p)/p] evaluated at the observed fraction
    slope = (math.log2((1.0 - p1) / p1) - empirical_c) / p1
    std_error = abs(slope) * math.sqrt(p1 * (1.0 - p1) / announced)
    return McReport(n, seed, (n1, n2, nb), empirical_c, std_error)
