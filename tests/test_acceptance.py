"""End-to-end acceptance suite.

Each criterion prints one summary line; run with ``pytest -s`` to see them
inline.  Random draws are seeded so every run checks the same inputs.
"""

import math
import time
from contextlib import contextmanager
from itertools import product as iter_product

import numpy as np

from conftest import random_amplitude_pair, two_link_bruteforce
from cfqsim.costs import cost_profile, minimize_classical_cost, monte_carlo, total_qst_cost
from cfqsim.michelson import (
    ALICE_DEVICE,
    BOB_DEVICE,
    BeamSplitter,
    RoundConfig,
    run_round,
)
from cfqsim.star import StarConfig, cat_fidelity, run_star
from cfqsim.states import PureState, Qubit, entanglement_entropy, fidelity_up_to_phase, sector
from cfqsim.transfer import transfer_alice_to_bob, transfer_bob_to_alice
from cfqsim.zeno import (
    OBSTACLE,
    ChainConfig,
    convergence_scan,
    mode_register,
    run_chain,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def basis_qubit(basis, symbol):
    return Qubit(
        tuple(basis),
        1.0 if symbol == basis[0] else 0.0,
        1.0 if symbol == basis[1] else 0.0,
    )


def random_round_config(rng):
    mu, nu = random_amplitude_pair(rng)
    alpha, beta = random_amplitude_pair(rng)
    return RoundConfig(
        BeamSplitter(rng.uniform(0.02, 0.98)),
        Qubit(("V", "H"), mu, nu),
        Qubit(("P", "B"), alpha, beta),
    )


def test_criterion_1_classical_table_regression():
    with criterion(1, "classical-table regression"):
        start = time.perf_counter()
        for R in (0.1, 0.3, 0.5, 0.7, 0.9):
            bs = BeamSplitter(R)
            T = bs.T
            for a_sym, b_sym in (("V", "P"), ("H", "B")):
                cfg = RoundConfig(bs, basis_qubit(("V", "H"), a_sym), basis_qubit(("P", "B"), b_sym))
                p1, p2, pb = (o.probability for o in run_round(cfg))
                assert abs(p1 - 0.0) <= 1e-12
                assert abs(p2 - 1.0) <= 1e-12
                assert abs(pb - 0.0) <= 1e-12
            for a_sym, b_sym in (("V", "B"), ("H", "P")):
                cfg = RoundConfig(bs, basis_qubit(("V", "H"), a_sym), basis_qubit(("P", "B"), b_sym))
                p1, p2, pb = (o.probability for o in run_round(cfg))
                assert abs(p1 - R * T) <= 1e-12
                assert abs(p2 - R * R) <= 1e-12
                assert abs(pb - T) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_closed_form_equivalence():
    with criterion(2, "closed-form equivalence over 1000 random rounds"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260809)
        for _ in range(1000):
            cfg = random_round_config(rng)
            R, T = cfg.bs.R, cfg.bs.T
            mu, nu = cfg.alice.amp0, cfg.alice.amp1
            alpha, beta = cfg.bob.amp0, cfg.bob.amp1
            outcomes = run_round(cfg)
            p1, p2, pb = (o.probability for o in outcomes)
            cross = abs(alpha * nu) ** 2 + abs(beta * mu) ** 2
            assert abs(pb - cross * T) <= 1e-10
            assert abs(p1 - R * T * cross) <= 1e-10
            expected_p2 = abs(alpha) ** 2 * (abs(mu) ** 2 + abs(nu) ** 2 * R**2) + abs(
                beta
            ) ** 2 * (abs(nu) ** 2 + abs(mu) ** 2 * R**2)
            assert abs(p2 - expected_p2) <= 1e-10
            assert abs(p1 + p2 + pb - 1.0) <= 1e-10
            pair = outcomes[0].posterior.restrict((ALICE_DEVICE, BOB_DEVICE))
            ideal = PureState(
                (ALICE_DEVICE, BOB_DEVICE),
                {("H", "P"): alpha * nu, ("V", "B"): beta * mu},
            ).normalized()
            assert fidelity_up_to_phase(pair, ideal) >= 1.0 - 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_3_entanglement_reflectance_invariance():
    with criterion(3, "entanglement independent of reflectance"):
        alice = Qubit(("V", "H"), 0.48, math.sqrt(1 - 0.48**2) * 1j)
        bob = Qubit(("P", "B"), 0.71, math.sqrt(1 - 0.71**2))
        entropies = []
        for R in (0.1, 0.3, 0.5, 0.7, 0.9):
            outcomes = run_round(RoundConfig(BeamSplitter(R), alice, bob))
            entropies.append(entanglement_entropy(outcomes[0].posterior, [ALICE_DEVICE]))
        assert max(entropies) - min(entropies) < 1e-10


def test_criterion_4_cost_numbers():
    with criterion(4, "resource-cost landmarks"):
        start = time.perf_counter()
        assert abs(cost_profile(0.5).C_q - 8.0) <= 1e-9
        r_star, c_star = minimize_classical_cost()
        assert abs(r_star - (math.sqrt(2.0) - 1.0)) <= 1e-6
        assert abs(c_star - 3.85) <= 0.01
        assert abs(cost_profile(0.5).C - 3.9) <= 0.05
        assert abs(total_qst_cost(r_star) - 4.85) <= 0.01
        assert time.perf_counter() - start < 1.0


def test_criterion_5_monte_carlo():
    with criterion(5, "Monte Carlo statistics and reproducibility"):
        start = time.perf_counter()
        n, seed = 1_000_000, 12345
        report = monte_carlo(0.5, n, seed)
        sigma_db = math.sqrt(0.25 * 0.75 / n)
        assert abs(report.counts[2] / n - 0.25) < 3 * sigma_db
        assert abs(report.empirical_C - cost_profile(0.5).C) < 3 * report.std_error
        assert monte_carlo(0.5, n, seed) == report
        assert time.perf_counter() - start < 10.0


def _inline_chain_oracle(obstacle, L, theta, layers, readout):
    """Unabsorbed-sector amplitudes from the trigonometric closed form."""
    amps = {}
    c_l, s_l = math.cos(L * theta), math.sin(L * theta)
    for bits in iter_product(("0", "1"), repeat=layers):
        amp = obstacle.amp0
        for b in bits:
            amp *= c_l if b == "0" else s_l
        amps[("pass", *bits)] = amp
    c, s = math.cos(theta), math.sin(theta)
    if readout == "after_final_bs":
        decay = c ** ((L - 1) * layers)
        for bits in iter_product(("0", "1"), repeat=layers):
            amp = obstacle.amp1 * decay
            for b in bits:
                amp *= c if b == "0" else s
            amps[("block", *bits)] = amps.get(("block", *bits), 0j) + amp
    else:
        amps[("block", *("0",) * layers)] = obstacle.amp1 * c ** (L * layers)
    regs = (OBSTACLE, *(mode_register(j) for j in range(layers)))
    return PureState(regs, amps)


def test_criterion_6_chained_zeno():
    with criterion(6, "chained-interferometer closed form and convergence"):
        rng = np.random.default_rng(60)
        for _ in range(60):
            a = rng.uniform(0.0, 1.0)
            obstacle = Qubit(("pass", "block"), a, math.sqrt(1.0 - a * a))
            L = int(rng.integers(1, 65))
            theta = rng.uniform(0.01, math.pi / 2)
            layers = int(rng.integers(1, 4))
            for readout in ("after_final_bs", "after_final_obstacle"):
                result = run_chain(
                    ChainConfig(L=L, theta=theta, obstacle=obstacle, layers=layers), readout
                )
                got = sector(result.final, mode_register(0), ("0", "1"))
                want = _inline_chain_oracle(obstacle, L, theta, layers, readout)
                for label in got.amps.keys() | want.amps.keys():
                    assert abs(got.amps.get(label, 0j) - want.amps.get(label, 0j)) <= 1e-12

        block = Qubit(("pass", "block"), 0.0, 1.0)
        result = run_chain(
            ChainConfig(L=1000, theta=math.pi / 2000, obstacle=block), "after_final_obstacle"
        )
        assert abs(result.survival - math.cos(math.pi / 2000) ** 2000) <= 1e-9

        rows = convergence_scan(Qubit.balanced(("pass", "block")), 3, [10, 100, 1000])
        assert rows[0].fidelity < rows[1].fidelity < rows[2].fidelity


def test_criterion_7_multiparty_oracle():
    with criterion(7, "star network versus brute-force composition"):
        rng = np.random.default_rng(70)
        for _ in range(200):
            alices = []
            for _ in range(2):
                mu, nu = random_amplitude_pair(rng)
                alices.append(Qubit(("V", "H"), mu, nu))
            alpha, beta = random_amplitude_pair(rng)
            cfg = StarConfig(
                BeamSplitter(rng.uniform(0.05, 0.95)),
                tuple(alices),
                Qubit(("P", "B"), alpha, beta),
            )
            result = run_star(cfg)
            y_ref, state_ref = two_link_bruteforce(cfg)
            assert abs(result.yield_probability - y_ref) <= 1e-10
            if state_ref is not None:
                assert fidelity_up_to_phase(result.state, state_ref) >= 1.0 - 1e-10

        balanced = StarConfig(
            BeamSplitter(0.5),
            tuple(Qubit.balanced(("V", "H")) for _ in range(3)),
            Qubit.balanced(("P", "B")),
        )
        result = run_star(balanced)
        assert abs(result.yield_probability - (0.25 / 2) ** 3) <= 1e-12
        assert abs(cat_fidelity(result) - 1.0) <= 1e-10


def test_criterion_8_state_transfer():
    with criterion(8, "deterministic transfer over the shared pair"):
        rng = np.random.default_rng(80)
        for _ in range(100):
            a0, a1 = random_amplitude_pair(rng)
            bs = BeamSplitter(rng.uniform(0.05, 0.95))
            for branch in ("V", "H"):
                t = transfer_alice_to_bob(Qubit(("V", "H"), a0, a1), bs, branch)
                assert abs(t.fidelity - 1.0) <= 1e-12
                assert abs(t.branch_probability - 0.5) <= 1e-12
            for branch in ("P", "B"):
                t = transfer_bob_to_alice(Qubit(("P", "B"), a0, a1), bs, branch)
                assert abs(t.fidelity - 1.0) <= 1e-12
                assert abs(t.branch_probability - 0.5) <= 1e-12
