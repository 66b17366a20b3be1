"""Resource accounting for counterfactual pair distribution.

With both devices balanced, the per-round outcome probabilities depend
only on the beam splitter, so the average number of rounds per delivered
pair and the average classical communication per pair reduce to closed
forms in the reflectance R, and so do their minima: 2/(R(1-R)) rounds
per pair is least at R = 1/2, and h(xi)/xi bits per pair, with
xi = R(1-R)/(1+R), at R = sqrt(2) - 1.  A seeded Monte Carlo sampler
reproduces the same statistics empirically with bit-reproducible output.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

# Inverse golden ratio, the bracket shrink factor of the section search.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The bracket width at which the section search stops, and its iteration cap.
_SECTION_TOL = 1e-6
_SECTION_MAX_ITER = 200

# Monte Carlo runs are drawn in fixed-size batches, one PCG64 substream
# per batch, so merged counts are order-independent and deterministic.
MC_BATCH = 250_000


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


def monte_carlo(R: float, n: int, seed: int) -> McReport:
    """Sample n rounds and estimate the classical cost from observed counts.

    Outcomes are multinomial draws from the balanced-device probabilities,
    generated batch-wise from PCG64 substreams ``PCG64(seed).jumped(i)``,
    so reports are bit-reproducible for fixed (R, n, seed) and independent
    of batch execution order.  ``std_error`` is the delta-method standard
    error of the empirical cost.
    """
    if n < 1:
        raise ValueError("need at least one run")
    prof = cost_profile(R)
    import numpy as np

    pvals = [prof.P_D1, prof.P_D2, prof.P_DB]
    counts = np.zeros(3, dtype=np.int64)
    for batch, start in enumerate(range(0, n, MC_BATCH)):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(batch))
        counts += rng.multinomial(min(MC_BATCH, n - start), pvals)
    n1, n2, nb = (int(k) for k in counts)
    announced = n1 + n2
    if n1 == 0 or n2 == 0:
        return McReport(n, seed, (n1, n2, nb), float("nan"), float("nan"))
    p1 = n1 / announced
    empirical_c = _h_over_p(p1)
    # d/dp [h(p)/p] evaluated at the observed fraction
    slope = (math.log2((1.0 - p1) / p1) - empirical_c) / p1
    std_error = abs(slope) * math.sqrt(p1 * (1.0 - p1) / announced)
    return McReport(n, seed, (n1, n2, nb), empirical_c, std_error)
