import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    AMPLITUDES,
    REFLECTANCES,
    partial_propagator_reference,
    random_amplitude_pair,
    run_star_reference,
    star_bruteforce,
    states_close,
)
from cfqsim.michelson import BOB_DEVICE, BeamSplitter, RoundConfig, d1_state_closed_form
from cfqsim.star import (
    StarConfig,
    alice_register,
    cat_fidelity,
    ideal_cat,
    partial_propagator,
    run_star,
)
from cfqsim.states import (
    PureState,
    Qubit,
    entanglement_entropy,
    fidelity_up_to_phase,
    product_state,
)

SQ2 = 1.0 / math.sqrt(2.0)


def balanced_star(n, R=0.5):
    return StarConfig(
        BeamSplitter(R),
        tuple(Qubit.balanced(("V", "H")) for _ in range(n)),
        Qubit.balanced(("P", "B")),
    )


def random_star(rng, n=2, R=None) -> StarConfig:
    alices = []
    for _ in range(n):
        mu, nu = random_amplitude_pair(rng)
        alices.append(Qubit(("V", "H"), mu, nu))
    alpha, beta = random_amplitude_pair(rng)
    return StarConfig(
        BeamSplitter(rng.uniform(0.05, 0.95) if R is None else R),
        tuple(alices),
        Qubit(("P", "B"), alpha, beta),
    )


# Reflectances in [5e-324, 1), log-uniform, down to the smallest subnormal.
TINY_REFLECTANCES = (
    st.floats(min_value=-323.3, max_value=0.0, exclude_max=True).map(lambda x: 10.0**x).filter(lambda R: R < 1.0)
)


def tiny_qubit(rng, basis) -> Qubit:
    """A qubit whose smaller amplitude is log-uniform in [5e-324, 1], phases random."""
    small = 10.0 ** -rng.uniform(0.0, 323.3)
    amps = [small * np.exp(1j * rng.uniform(0, 6)), math.sqrt(1.0 - small * small) * np.exp(1j * rng.uniform(0, 6))]
    rng.shuffle(amps)
    return Qubit(basis, complex(amps[0]), complex(amps[1]))


def pinned_or_tiny_qubit(rng, basis, p_pinned) -> Qubit:
    """A basis state with probability ``p_pinned``; else a complex qubit
    whose smaller amplitude is log-uniform in [1e-300, 1]."""
    if rng.random() < p_pinned:
        return Qubit(basis, *rng.permutation([1.0, 0.0]))
    small = 10.0 ** -rng.uniform(0.0, 300.0)
    amps = [small * np.exp(1j * rng.uniform(0, 6)), math.sqrt(1.0 - small * small) * np.exp(1j * rng.uniform(0, 6))]
    rng.shuffle(amps)
    return Qubit(basis, complex(amps[0]), complex(amps[1]))


def log10_abs(a: complex) -> float:
    """log10 |a|, taken after an exact 2**600 scaling: the modulus of an
    amplitude with subnormal parts would itself round to a few digits."""
    return math.log10(abs(a * 2.0**600)) - 600 * math.log10(2.0)


def closed_form_log10_weights(cfg: StarConfig) -> tuple[float, float]:
    """log10 |alpha prod nu|^2 and log10 |beta prod mu|^2, the two cat terms,
    summed from the amplitudes' own logs so that nothing underflows."""
    log_p = 2 * (log10_abs(cfg.bob.amp0) + sum(log10_abs(q.amp1) for q in cfg.alices))
    log_b = 2 * (log10_abs(cfg.bob.amp1) + sum(log10_abs(q.amp0) for q in cfg.alices))
    return log_p, log_b


def closed_form_log10_yield(cfg: StarConfig) -> float:
    """log10 of (RT)^N (|alpha prod nu|^2 + |beta prod mu|^2)."""
    log_p, log_b = closed_form_log10_weights(cfg)
    top = max(log_p, log_b)
    log_rt = math.log10(cfg.bs.R) + math.log10(cfg.bs.T)
    return cfg.n_links * log_rt + top + math.log10(10 ** (log_p - top) + 10 ** (log_b - top))


class TestPartialPropagator:
    def setup_method(self):
        self.regs = (BOB_DEVICE, alice_register(0))

    def one_component(self, b_sym, a_sym):
        return PureState(self.regs, {(b_sym, a_sym): 1.0})

    def test_compatible_pass_branch(self):
        # the N09 maps' D1 factor: (i sqrt(R)) (i sqrt(T)) = -sqrt(R) sqrt(T)
        out = partial_propagator(self.one_component("P", "H"), 0, BeamSplitter(0.5))
        assert out.amps == {("P", "H"): pytest.approx(-0.5)}

    def test_incompatible_branch_dropped(self):
        out = partial_propagator(self.one_component("P", "V"), 0, BeamSplitter(0.5))
        assert out.amps == {}

    def test_compatible_block_branch_scales(self):
        s = PureState(self.regs, {("B", "V"): 0.3j})
        out = partial_propagator(s, 0, BeamSplitter(0.5))
        assert out.amps[("B", "V")] == pytest.approx(-0.15j)

    def test_link_out_of_range(self):
        with pytest.raises(ValueError):
            partial_propagator(self.one_component("P", "H"), 3, BeamSplitter(0.5))


# The four (device_b, device_a) pairs of one link.
DEVICE_PAIRS = [(b, a) for b in ("P", "B") for a in ("V", "H")]


@settings(max_examples=300, deadline=None)
@given(REFLECTANCES, st.integers(0, 3), st.dictionaries(st.sampled_from(DEVICE_PAIRS), AMPLITUDES, min_size=1))
@example(0.5, 0, dict.fromkeys(DEVICE_PAIRS, 1.0))
def test_propagator_matches_the_hand_written_table(R, link, amps):
    """The link step read off the N09 maps keeps exactly the hand-written
    table's labels, each at -1 times its amplitude (-sqrt(R) sqrt(T)
    against +sqrt(RT)), within 4 ulp wherever the products are normal."""
    state = PureState((BOB_DEVICE, alice_register(link)), amps)
    got = partial_propagator(state, link, BeamSplitter(R))
    want = partial_propagator_reference(state, link, BeamSplitter(R))
    assert got.registers == want.registers
    assert got.amps.keys() == want.amps.keys()
    for label, w in want.amps.items():
        g = got.amps[label]
        for g_part, w_part in ((g.real, w.real), (g.imag, w.imag)):
            if w_part == 0.0 or abs(w_part) >= sys.float_info.min:
                assert abs(g_part + w_part) <= 4 * math.ulp(w_part), (label, g, w)


class TestRunStar:
    def test_two_link_balanced_yield(self):
        result = run_star(balanced_star(2))
        assert result.yield_probability == pytest.approx((0.25 / 2) ** 2, abs=1e-12)
        assert cat_fidelity(result) == pytest.approx(1.0, abs=1e-10)

    def test_single_link_reduces_to_pair_closed_form(self):
        rng = np.random.default_rng(401)
        for _ in range(50):
            cfg = random_star(rng, n=1)
            result = run_star(cfg)
            pair_cfg = RoundConfig(cfg.bs, cfg.alices[0], cfg.bob)
            ideal = d1_state_closed_form(pair_cfg)
            assert result.yield_probability == pytest.approx(ideal.norm2(), rel=1e-12)
            # registers differ only in naming convention; compare amplitudes
            got = {label: amp for label, amp in result.state.amps.items()}
            want = ideal.normalized()
            overlap = sum(
                want.amps.get(label, 0j).conjugate() * amp for label, amp in got.items()
            )
            assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_incompatible_config_yields_nothing(self):
        cfg = StarConfig(
            BeamSplitter(0.5),
            (Qubit(("V", "H"), 1.0, 0.0), Qubit.balanced(("V", "H"))),
            Qubit(("P", "B"), 1.0, 0.0),
        )
        result = run_star(cfg)
        assert result.yield_probability == 0.0
        assert result.state.amps == {}
        assert cat_fidelity(result) == 0.0

    def test_bruteforce_oracle_equivalence(self):
        rng = np.random.default_rng(402)
        for _ in range(200):
            cfg = random_star(rng, n=2)
            result = run_star(cfg)
            y_ref, state_ref = star_bruteforce(cfg)
            assert result.yield_probability == pytest.approx(y_ref, abs=1e-10)
            if state_ref is not None:
                assert fidelity_up_to_phase(result.state, state_ref) >= 1.0 - 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), REFLECTANCES)
    def test_three_link_bruteforce_oracle(self, seed, R):
        cfg = random_star(np.random.default_rng(seed), n=3, R=R)
        result = run_star(cfg)
        y_ref, state_ref = star_bruteforce(cfg)
        # below the normal range the oracle's own amplitudes lose digits
        if y_ref >= sys.float_info.min:
            assert result.yield_probability == pytest.approx(y_ref, rel=1e-9)
            assert abs(fidelity_up_to_phase(result.state, state_ref) - 1.0) <= 1e-10

    def test_yield_formula(self):
        rng = np.random.default_rng(403)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            cfg = random_star(rng, n=n)
            result = run_star(cfg)
            rt = cfg.bs.R * cfg.bs.T
            prod_nu = 1.0
            prod_mu = 1.0
            for q in cfg.alices:
                prod_mu *= q.amp0
                prod_nu *= q.amp1
            expected = rt**n * (
                abs(cfg.bob.amp0 * prod_nu) ** 2 + abs(cfg.bob.amp1 * prod_mu) ** 2
            )
            assert result.yield_probability == pytest.approx(expected, abs=1e-12)

    def test_balanced_yield_falls_off_exponentially(self):
        for R in (0.3, 0.5):
            rt = R * (1 - R)
            previous = run_star(balanced_star(1, R)).yield_probability
            for n in (2, 3, 4):
                current = run_star(balanced_star(n, R)).yield_probability
                assert current / previous == pytest.approx(rt / 2, abs=1e-12)
                previous = current

    @settings(max_examples=60, deadline=None)
    @given(REFLECTANCES, st.integers(1, 12))
    @example(1e-300, 12)
    @example(1e-31, 2)
    def test_balanced_log10_yield_at_any_reflectance(self, R, n):
        # balanced devices: (RT/2)^N, with both cat terms kept
        result = run_star(balanced_star(n, R))
        assert result.log10_yield == pytest.approx(n * math.log10(R * (1.0 - R) / 2.0), rel=1e-12)
        assert cat_fidelity(result) == pytest.approx(1.0, abs=1e-12)

    def test_three_link_balanced(self):
        result = run_star(balanced_star(3))
        assert result.yield_probability == pytest.approx((0.25 / 2) ** 3, abs=1e-12)
        assert cat_fidelity(result) == pytest.approx(1.0, abs=1e-10)
        assert entanglement_entropy(result.state, [alice_register(1)]) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_link_order_irrelevant(self):
        rng = np.random.default_rng(404)
        cfg = random_star(rng, n=3)
        parts = [(alice_register(j), q) for j, q in enumerate(cfg.alices)]
        parts.append((BOB_DEVICE, cfg.bob))
        initial = product_state(parts)
        forward = initial
        for j in (0, 1, 2):
            forward = partial_propagator(forward, j, cfg.bs)
        backward = initial
        for j in (2, 1, 0):
            backward = partial_propagator(backward, j, cfg.bs)
        assert states_close(forward, backward, 1e-12)

    @pytest.mark.parametrize("n", [16, 64, 256, 600])
    def test_large_star_against_closed_form(self, n):
        rng = np.random.default_rng(405 + n)
        R = rng.uniform(0.3, 0.7)
        alices = []
        for _ in range(n):
            w = rng.uniform(0.3, 0.7)
            alices.append(Qubit(("V", "H"), math.sqrt(w), math.sqrt(1 - w) * np.exp(1j * rng.uniform(0, 6))))
        alpha, beta = random_amplitude_pair(rng)
        cfg = StarConfig(BeamSplitter(R), tuple(alices), Qubit(("P", "B"), alpha, beta))
        result = run_star(cfg)
        want_log10 = closed_form_log10_yield(cfg)
        assert result.log10_yield == pytest.approx(want_log10, abs=1e-9)
        want_yield = 10.0**want_log10
        if want_yield > 1e-300:  # below that the double loses digits or underflows
            assert result.yield_probability == pytest.approx(want_yield, rel=1e-9)
        else:
            assert result.yield_probability < 1e-290
        # the two-term cat: |H..H P> carries alpha prod nu, |V..V B> beta prod mu
        assert set(result.state.amps) == {("H",) * n + ("P",), ("V",) * n + ("B",)}
        log_p, log_b = closed_form_log10_weights(cfg)
        top = max(log_p, log_b)
        arg_p = np.angle(alpha) + sum(np.angle(q.amp1) for q in alices)
        arg_b = np.angle(beta) + sum(np.angle(q.amp0) for q in alices)
        cat = PureState(
            result.state.registers,
            {
                ("H",) * n + ("P",): math.sqrt(10 ** (log_p - top)) * np.exp(1j * arg_p),
                ("V",) * n + ("B",): math.sqrt(10 ** (log_b - top)) * np.exp(1j * arg_b),
            },
        )
        assert fidelity_up_to_phase(result.state, cat) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), TINY_REFLECTANCES, st.integers(1, 6))
    @example(0, 5e-324, 3)
    @example(1, 1e-315, 3)
    def test_log10_yield_closed_form_down_to_tiny_amplitudes(self, seed, R, n):
        rng = np.random.default_rng(seed)
        alices = tuple(tiny_qubit(rng, ("V", "H")) for _ in range(n))
        cfg = StarConfig(BeamSplitter(R), alices, tiny_qubit(rng, ("P", "B")))
        assert run_star(cfg).log10_yield == pytest.approx(closed_form_log10_yield(cfg), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), REFLECTANCES, st.integers(1, 40))
    def test_matches_the_full_label_reference(self, seed, R, n):
        # a pinned spoke kills one hub branch, two opposite pins the whole star
        rng = np.random.default_rng(seed)
        p_pinned = rng.choice([0.0, 1.0 / n, 2.0 / n])
        alices = tuple(pinned_or_tiny_qubit(rng, ("V", "H"), p_pinned) for _ in range(n))
        cfg = StarConfig(BeamSplitter(R), alices, pinned_or_tiny_qubit(rng, ("P", "B"), 0.1))
        got, want = run_star(cfg), run_star_reference(cfg)
        assert got.state.registers == want.state.registers
        assert set(got.state.amps) == set(want.state.amps)
        assert math.isclose(got.yield_probability, want.yield_probability, rel_tol=1e-13)
        assert math.isclose(got.log10_yield, want.log10_yield, rel_tol=1e-13)
        if want.state.amps:
            assert fidelity_up_to_phase(got.state, want.state) >= 1.0 - 1e-13

    def test_every_propagator_call_sees_at_most_four_labels(self, monkeypatch):
        import cfqsim.star as star

        seen = []
        original = star.partial_propagator

        def counting(state, link, bs):
            seen.append(len(state.amps))
            return original(state, link, bs)

        monkeypatch.setattr(star, "partial_propagator", counting)
        rng = np.random.default_rng(406)
        for n in (1, 5, 40):
            seen.clear()
            result = run_star(random_star(rng, n=n))
            assert len(seen) == n
            assert max(seen) <= 4
            assert len(result.state.amps) == 2
        cfg = StarConfig(
            BeamSplitter(0.5),
            (Qubit.balanced(("V", "H")), Qubit(("V", "H"), 1.0, 0.0), Qubit.balanced(("V", "H"))),
            Qubit.balanced(("P", "B")),
        )
        seen.clear()
        run_star(cfg)
        assert seen == [4, 2, 2]  # the spoke pinned to V kills the P branch

    def test_empty_star_rejected(self):
        with pytest.raises(ValueError):
            StarConfig(BeamSplitter(0.5), (), Qubit.balanced(("P", "B")))


class TestCatFidelity:
    def test_one_branch_config(self):
        cfg = StarConfig(
            BeamSplitter(0.5),
            (Qubit.balanced(("V", "H")), Qubit.balanced(("V", "H"))),
            Qubit(("P", "B"), 1.0, 0.0),
        )
        result = run_star(cfg)
        assert cat_fidelity(result) == pytest.approx(0.5, abs=1e-12)

    def test_bell_case(self):
        result = run_star(balanced_star(1))
        assert cat_fidelity(result) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_cat_normalized(self):
        for n in (1, 2, 4):
            assert ideal_cat(n).norm2() == pytest.approx(1.0, abs=1e-12)
