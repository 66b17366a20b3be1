import math
import random
import time
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import binary_entropy
from cfqsim import cli
from cfqsim.costs import (
    _binomial,
    cost_profile,
    golden_section_min,
    minimize_classical_cost,
    minimize_quantum_cost,
    monte_carlo,
    total_qst_cost,
)

# independent evaluation of the cost at a balanced splitter: 6 * h(1/6)
C_HALF = 6.0 * (-(1 / 6) * math.log2(1 / 6) - (5 / 6) * math.log2(5 / 6))

R_STAR = math.sqrt(2.0) - 1.0


def decimal_cost(R: float) -> float:
    """h(p1')/p1' with p1' = R(1-R)/(1+R), from the exact double R in decimal.

    p1' > 1e-324, so at 400 digits 1 - p1' keeps over 75 digits of p1'."""
    with localcontext() as ctx:
        ctx.prec = 400
        r = Decimal(R)
        p = r * (1 - r) / (1 + r)
        h = -p * p.ln() - (1 - p) * (1 - p).ln()
        return float(h / p / Decimal(2).ln())


class TestBinaryEntropy:
    def test_midpoint(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestCostProfile:
    def test_balanced_values(self):
        p = cost_profile(0.5)
        assert p.C_q == pytest.approx(8.0, abs=1e-12)
        assert p.C == pytest.approx(C_HALF, abs=1e-12)
        assert p.C == pytest.approx(3.9, abs=0.05)
        assert p.P_D1 == pytest.approx(0.125, abs=1e-12)
        assert p.P_D2 == pytest.approx(0.625, abs=1e-12)
        assert p.P_DB == pytest.approx(0.25, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        for R in np.linspace(0.01, 0.99, 99):
            p = cost_profile(R)
            assert p.P_D1 + p.P_D2 + p.P_DB == pytest.approx(1.0, abs=1e-12)
            assert p.p1_prime == pytest.approx(p.P_D1 / (p.P_D1 + p.P_D2), abs=1e-12)

    def test_classical_never_exceeds_quantum(self):
        for R in np.linspace(0.01, 0.99, 99):
            p = cost_profile(R)
            assert p.C <= p.C_q + 1e-12

    def test_divergence_towards_the_edges(self):
        # the cost grows without bound (logarithmically) towards R = 0 and 1
        assert cost_profile(0.5).C < cost_profile(0.1).C < cost_profile(0.01).C < cost_profile(0.0001).C
        assert cost_profile(0.5).C < cost_profile(0.9).C < cost_profile(0.99).C
        assert cost_profile(1e-9).C > 25.0

    @given(st.floats(min_value=math.log(5e-324), max_value=math.log(0.5), exclude_max=True))
    @example(math.log(1e-10))
    def test_cost_matches_decimal_reference_at_small_R(self, log_r):
        R = max(math.exp(log_r), 5e-324)
        assert cost_profile(R).C == pytest.approx(decimal_cost(R), rel=1e-14)

    @pytest.mark.parametrize("k", range(1, 54))
    def test_cost_matches_decimal_reference_near_one(self, k):
        R = 1.0 - 2.0**-k
        assert cost_profile(R).C == pytest.approx(decimal_cost(R), rel=1e-14)

    def test_announcement_accounting_identity(self):
        # h(p1') * n(1+R)/2 announced bits over n R(1-R)/2 delivered pairs
        # reproduces the closed-form cost for any run count
        for R in (0.1, 0.41, 0.5, 0.8):
            p = cost_profile(R)
            for n in (10, 1_000, 1_000_000):
                announced_bits = binary_entropy(p.p1_prime) * n * (1 + R) / 2
                pairs = n * R * (1 - R) / 2
                assert announced_bits / pairs == pytest.approx(p.C, abs=1e-12)

    def test_matches_round_engine_probabilities(self):
        from cfqsim.michelson import BeamSplitter, RoundConfig, closed_form_probs
        from cfqsim.states import Qubit

        for R in (0.2, 0.5, 0.7):
            p = cost_profile(R)
            probs = closed_form_probs(
                RoundConfig(BeamSplitter(R), Qubit.balanced(("V", "H")), Qubit.balanced(("P", "B")))
            )
            assert p.P_D1 == pytest.approx(probs.P_D1, abs=1e-12)
            assert p.P_D2 == pytest.approx(probs.P_D2, abs=1e-12)
            assert p.P_DB == pytest.approx(probs.P_DB, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            cost_profile(0.0)
        with pytest.raises(ValueError):
            cost_profile(1.0)

    def test_unimodal_announcement_fraction(self):
        # one sign change in the discrete derivative licenses the section search
        grid = np.linspace(0.001, 0.999, 2001)
        xi = grid * (1 - grid) / (1 + grid)
        diffs = np.sign(np.diff(xi))
        changes = np.sum(diffs[1:] != diffs[:-1])
        assert changes == 1


class TestMinimizers:
    def test_quantum_minimum(self):
        r, c = minimize_quantum_cost()
        assert r == pytest.approx(0.5, abs=1e-9)
        assert c == pytest.approx(8.0, abs=1e-9)

    def test_quantum_minimum_is_strict(self):
        _, c = minimize_quantum_cost()
        assert cost_profile(0.4).C_q > c
        assert cost_profile(0.6).C_q > c

    def test_classical_minimum_is_the_closed_form_root(self):
        # xi'(R) = 0 where R**2 + 2R - 1 = 0
        assert minimize_classical_cost()[0] == math.sqrt(2.0) - 1.0

    def test_classical_minimum(self):
        r, c = minimize_classical_cost()
        assert r == pytest.approx(R_STAR, abs=1e-6)
        assert c == pytest.approx(3.85, abs=0.01)
        assert c < cost_profile(0.5).C

    def test_total_transfer_cost(self):
        r, c = minimize_classical_cost()
        assert total_qst_cost(r) == pytest.approx(c + 1.0, abs=1e-12)
        assert total_qst_cost(r) == pytest.approx(4.85, abs=0.01)
        assert total_qst_cost(0.5) == pytest.approx(C_HALF + 1.0, abs=1e-12)

    def test_total_cost_minimized_at_same_reflectance(self):
        r, _ = minimize_classical_cost()
        r_total = golden_section_min(total_qst_cost, 1e-6, 1 - 1e-6)
        assert r_total == pytest.approx(r, abs=1e-6)

    def test_golden_section_on_shifted_parabola(self):
        x = golden_section_min(lambda t: (t - 0.37) ** 2 + 1.0, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=1e-9)


class TestMonteCarlo:
    def test_deterministic(self):
        a = monte_carlo(0.5, 100_000, 7)
        b = monte_carlo(0.5, 100_000, 7)
        assert a == b

    def test_seed_changes_counts(self):
        a = monte_carlo(0.5, 100_000, 7)
        b = monte_carlo(0.5, 100_000, 8)
        assert a.counts != b.counts

    def test_counts_sum(self):
        report = monte_carlo(0.3, 123_457, 99)
        assert sum(report.counts) == 123_457

    def test_deterministic_at_the_run_cap(self):
        a = monte_carlo(0.5, cli.MC_MAX_RUNS, 41)
        b = monte_carlo(0.5, cli.MC_MAX_RUNS, 41)
        assert a == b

    def test_work_does_not_grow_with_runs(self):
        start = time.perf_counter()
        report = monte_carlo(0.5, 5_000_000_000, 1)
        assert time.perf_counter() - start < 0.01
        assert sum(report.counts) == 5_000_000_000

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(0.5, 10, -1)

    def test_blocked_fraction_within_3_sigma(self):
        n = 1_000_000
        report = monte_carlo(0.5, n, 12345)
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(report.counts[2] / n - 0.25) < 3 * sigma

    def test_empirical_cost_within_3_sigma(self):
        report = monte_carlo(0.5, 1_000_000, 12345)
        assert abs(report.empirical_C - C_HALF) < 3 * report.std_error

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            monte_carlo(0.5, 0, 1)


def binomial_pmf(n: int, p: float) -> list[float]:
    return [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def chi2_critical(df: int, z: float = 3.09) -> float:
    """Upper 0.1% point of chi-square with df degrees of freedom
    (Wilson-Hilferty; z is the normal quantile)."""
    q = 2.0 / (9.0 * df)
    return df * (1.0 - q + z * math.sqrt(q)) ** 3


class ReplayRng:
    """An rng whose random() returns the given values, then repeats the last."""

    def __init__(self, *values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0) if len(self.values) > 1 else self.values[0]


class TestBinomialSampler:
    @pytest.mark.parametrize(
        "n, p, seed",
        [(20, 0.1, 1), (20, 0.7, 2), (200, 0.3, 3)],
        ids=["geometric", "symmetric", "btrs"],
    )
    def test_chi_square_against_exact_pmf(self, n, p, seed):
        draws = 20_000
        rng = random.Random(seed)
        observed = Counter(_binomial(rng, n, p) for _ in range(draws))
        assert min(observed) >= 0 and max(observed) <= n
        # cells of consecutive k, each expecting at least 5 draws; the upper
        # tail joins the last cell
        cells, expected, count = [], 0.0, 0
        for k, mass in enumerate(binomial_pmf(n, p)):
            expected += draws * mass
            count += observed[k]
            if expected >= 5.0:
                cells.append((expected, count))
                expected, count = 0.0, 0
        last_e, last_o = cells.pop()
        cells.append((last_e + expected, last_o + count))
        chi2 = sum((o - e) ** 2 / e for e, o in cells)
        assert chi2 < chi2_critical(len(cells) - 1)

    @pytest.mark.parametrize("p, seed", [(0.3, 4), (0.9, 5), (5e-6, 6)], ids=["btrs", "symmetric", "geometric"])
    def test_mean_and_variance_at_a_million_trials(self, p, seed):
        n, draws = 1_000_000, 4000
        rng = random.Random(seed)
        xs = [_binomial(rng, n, p) for _ in range(draws)]
        var = n * p * (1.0 - p)
        mean = sum(xs) / draws
        s2 = sum((x - mean) ** 2 for x in xs) / (draws - 1)
        assert abs(mean - n * p) < 4.0 * math.sqrt(var / draws)
        # the sample variance's standard deviation, kurtosis included
        kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var
        assert abs(s2 - var) < 4.0 * var * math.sqrt(2.0 / (draws - 1) + kurtosis / draws)

    def test_certain_and_impossible_trials(self):
        rng = ReplayRng(0.5)
        assert _binomial(rng, 7, 0.0) == 0
        assert _binomial(rng, 7, 1.0) == 7
        assert _binomial(rng, 7, 1.0 + 2.0**-52) == 7
        assert rng.calls == 0

    def test_single_trial(self):
        rng = random.Random(7)
        xs = [_binomial(rng, 1, 0.3) for _ in range(10_000)]
        assert set(xs) == {0, 1}
        assert abs(sum(xs) / 10_000 - 0.3) < 4.0 * math.sqrt(0.21 / 10_000)

    def test_empty_trial_count(self):
        assert _binomial(random.Random(8), 0, 0.3) == 0
        assert _binomial(random.Random(8), 0, 0.7) == 0

    def test_subnormal_probability(self):
        assert _binomial(random.Random(9), 5_000_000_000, 5e-321) == 0

    def test_random_returning_zero(self):
        # geometric: u = 0 gives the shortest gap, so every trial succeeds
        assert _binomial(ReplayRng(0.0), 20, 0.1) == 20
        assert _binomial(ReplayRng(0.0), 20, 0.7) == 0
        assert _binomial(ReplayRng(0.0), 1, 0.3) == 1
        # BTRS: u = 0 is rejected, then v = 0 fails the squeeze (us < 0.07)
        # and must pass the accept test without taking log(0)
        rng = ReplayRng(0.0, 0.04, 0.0)
        k = _binomial(rng, 200, 0.3)
        assert (k, rng.calls) == (44, 3)


class TestSweep:
    def test_csv_shape_and_header(self, capsys):
        assert cli.main(["cost", "--sweep", "0.25:0.75:0.25"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "R,P_D1,P_D2,P_DB,C_q,C,p1_prime"
        assert len(lines) == 4
        assert lines[2].startswith("0.5,0.125,0.625,0.25,8,")
