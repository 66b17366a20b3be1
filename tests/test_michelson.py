import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    AMPLITUDES,
    MAGNITUDES,
    REFLECTANCES,
    forward_beamsplitter_reference,
    outcomes_reference,
    pass_block_switches_reference,
    random_amplitude_pair,
    restrict_reference,
    return_beamsplitter_reference,
    states_close,
    switch_interaction_reference,
)
from cfqsim import cli, michelson, star, transfer
from cfqsim.michelson import (
    ABSORBER_ALICE,
    ABSORBER_BOB,
    ALICE_DEVICE,
    ARM_ALICE,
    ARM_BOB,
    BOB_DETECTOR,
    BOB_DEVICE,
    DETECTOR,
    SWITCH_ALICE,
    SWITCH_BOB,
    VARIANTS,
    BeamSplitter,
    RoundConfig,
    closed_form_probs,
    d1_state_closed_form,
    forward_beamsplitter,
    return_beamsplitter,
    round_record,
    run_round,
    run_scqkd_round,
    switch_interaction,
)
from cfqsim.states import (
    PureState,
    Qubit,
    Register,
    entanglement_entropy,
    fidelity_up_to_phase,
    postselect,
    product_state,
    sector,
)
from cfqsim.transfer import transfer_alice_to_bob, transfer_bob_to_alice, transfer_without_correction

SQ2 = 1.0 / math.sqrt(2.0)


def basis_qubit(basis, symbol):
    return Qubit(tuple(basis), 1.0 if symbol == basis[0] else 0.0, 1.0 if symbol == basis[1] else 0.0)


def n09_input(alice, bob):
    """The N09 round's input: the two device qubits, every other register at rest."""
    parts = [(ALICE_DEVICE, alice), (BOB_DETECTOR, "0"), (BOB_DEVICE, bob)]
    return product_state(parts + [(ARM_ALICE, "vac"), (ARM_BOB, "vac"), (DETECTOR, "none")])


def balanced_config(R):
    return RoundConfig(BeamSplitter(R), Qubit.balanced(("V", "H")), Qubit.balanced(("P", "B")))


def random_config(rng) -> RoundConfig:
    mu, nu = random_amplitude_pair(rng)
    alpha, beta = random_amplitude_pair(rng)
    R = rng.uniform(0.02, 0.98)
    return RoundConfig(BeamSplitter(R), Qubit(("V", "H"), mu, nu), Qubit(("P", "B"), alpha, beta))


class TestBeamSplitter:
    def test_domain(self):
        BeamSplitter(0.0)
        BeamSplitter(1.0)
        with pytest.raises(ValueError):
            BeamSplitter(1.5)

    def test_t_derived(self):
        assert BeamSplitter(0.3).T == 0.7


class TestForwardBeamsplitter:
    def photon_state(self, pol):
        return product_state([(ALICE_DEVICE, pol), (ARM_ALICE, "vac"), (ARM_BOB, "vac")])

    def test_full_reflection(self):
        out = forward_beamsplitter(self.photon_state("V"), BeamSplitter(1.0))
        assert out.amps == {("V", "V", "vac"): pytest.approx(1j)}

    def test_full_transmission(self):
        out = forward_beamsplitter(self.photon_state("H"), BeamSplitter(0.0))
        assert out.amps == {("H", "vac", "H"): pytest.approx(1.0 + 0j)}

    def test_balanced_split(self):
        out = forward_beamsplitter(self.photon_state("V"), BeamSplitter(0.5))
        assert out.amps[("V", "V", "vac")] == pytest.approx(1j * SQ2)
        assert out.amps[("V", "vac", "V")] == pytest.approx(SQ2 + 0j)
        assert out.norm2() == pytest.approx(1.0, abs=1e-12)


class TestSwitchInteraction:
    @pytest.mark.parametrize(
        "label, image",
        [
            (("P", "V", "0"), ("P", "V", "0")),
            (("P", "H", "0"), ("P", "vac", "Y")),
            (("B", "V", "0"), ("B", "vac", "Y")),
            (("B", "H", "0"), ("B", "H", "0")),
        ],
    )
    def test_four_lines(self, label, image):
        s = PureState((BOB_DEVICE, ARM_BOB, BOB_DETECTOR), {label: 1.0})
        out = switch_interaction(s)
        assert out.amps == {image: 1.0 + 0j}

    def test_superposed_device(self):
        s = PureState(
            (BOB_DEVICE, ARM_BOB, BOB_DETECTOR),
            {("P", "V", "0"): 0.6, ("B", "V", "0"): 0.8},
        )
        out = switch_interaction(s)
        assert out.amps[("P", "V", "0")] == pytest.approx(0.6 + 0j)
        assert out.amps[("B", "vac", "Y")] == pytest.approx(0.8 + 0j)
        assert out.norm2() == pytest.approx(1.0, abs=1e-12)


class TestReturnBeamsplitter:
    def channel_state(self, arm_a, arm_b):
        return product_state(
            [(ARM_ALICE, arm_a), (ARM_BOB, arm_b), (BOB_DETECTOR, "0"), (DETECTOR, "none")]
        )

    def test_full_reflection(self):
        out = return_beamsplitter(self.channel_state("vac", "V"), BeamSplitter(1.0))
        assert out.amps == {("vac", "vac", "0", "D1V"): pytest.approx(1.0 + 0j)}

    def test_full_transmission(self):
        out = return_beamsplitter(self.channel_state("vac", "V"), BeamSplitter(0.0))
        assert out.amps == {("vac", "vac", "0", "D2V"): pytest.approx(1j)}

    def test_balanced_internal_arm(self):
        out = return_beamsplitter(self.channel_state("H", "vac"), BeamSplitter(0.5))
        assert out.amps[("vac", "vac", "0", "D1H")] == pytest.approx(1j * SQ2)
        assert out.amps[("vac", "vac", "0", "D2H")] == pytest.approx(SQ2 + 0j)

    def test_identity_on_absorbed_sector(self):
        s = PureState(
            (ARM_ALICE, ARM_BOB, BOB_DETECTOR, DETECTOR),
            {("vac", "vac", "Y", "none"): 1.0},
        )
        out = return_beamsplitter(s, BeamSplitter(0.5))
        assert states_close(out, s)


class TestRunRound:
    @pytest.mark.parametrize("R", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_classical_basis_regression(self, R):
        bs = BeamSplitter(R)
        T = bs.T
        for a_sym, b_sym in (("V", "P"), ("H", "B")):
            cfg = RoundConfig(bs, basis_qubit(("V", "H"), a_sym), basis_qubit(("P", "B"), b_sym))
            p = [o.probability for o in run_round(cfg)]
            assert p[0] == pytest.approx(0.0, abs=1e-12)
            assert p[1] == pytest.approx(1.0, abs=1e-12)
            assert p[2] == pytest.approx(0.0, abs=1e-12)
        for a_sym, b_sym in (("V", "B"), ("H", "P")):
            cfg = RoundConfig(bs, basis_qubit(("V", "H"), a_sym), basis_qubit(("P", "B"), b_sym))
            p = [o.probability for o in run_round(cfg)]
            assert p[0] == pytest.approx(R * T, abs=1e-12)
            assert p[1] == pytest.approx(R * R, abs=1e-12)
            assert p[2] == pytest.approx(T, abs=1e-12)

    def test_balanced_half(self):
        p = [o.probability for o in run_round(balanced_config(0.5))]
        assert p[0] == pytest.approx(0.125, abs=1e-12)
        assert p[1] == pytest.approx(0.625, abs=1e-12)
        assert p[2] == pytest.approx(0.25, abs=1e-12)

    def test_postselect_on_mid_round_state(self):
        # absorption probability read directly off the pre-return state
        cfg = balanced_config(0.5)
        state = n09_input(cfg.alice, cfg.bob)
        state = forward_beamsplitter(state, cfg.bs)
        state = switch_interaction(state)
        p, _ = postselect(state, BOB_DETECTOR, "Y")
        assert p == pytest.approx(0.25, abs=1e-12)

    def test_closed_form_equivalence(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            cfg = random_config(rng)
            outcomes = run_round(cfg)
            probs = closed_form_probs(cfg)
            assert outcomes[0].probability == pytest.approx(probs.P_D1, abs=1e-10)
            assert outcomes[1].probability == pytest.approx(probs.P_D2, abs=1e-10)
            assert outcomes[2].probability == pytest.approx(probs.P_DB, abs=1e-10)
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)
            pair = outcomes[0].posterior.restrict((ALICE_DEVICE, BOB_DEVICE))
            ideal = d1_state_closed_form(cfg).normalized()
            assert fidelity_up_to_phase(pair, ideal) >= 1.0 - 1e-10

    def test_blocked_posterior_matches_counterfactual_posterior(self):
        rng = np.random.default_rng(203)
        for _ in range(50):
            cfg = random_config(rng)
            outcomes = run_round(cfg)
            d1 = outcomes[0].posterior.restrict((ALICE_DEVICE, BOB_DEVICE))
            db = outcomes[2].posterior
            assert fidelity_up_to_phase(d1, db) == pytest.approx(1.0, abs=1e-10)

    def test_entropy_independent_of_reflectance(self):
        alice = Qubit(("V", "H"), 0.6, 0.8)
        bob = Qubit(("P", "B"), 0.8, 0.6j)
        values = []
        for R in (0.1, 0.3, 0.5, 0.7, 0.9):
            outcomes = run_round(RoundConfig(BeamSplitter(R), alice, bob))
            values.append(entanglement_entropy(outcomes[0].posterior, [ALICE_DEVICE]))
        assert max(values) - min(values) < 1e-10

    def test_blocked_probability_is_transmittance_for_basis_inputs(self):
        # Bayesian cross-check: conditioned on the two blocking basis pairs,
        # the absorption probability is exactly T
        for R in (0.2, 0.5, 0.8):
            bs = BeamSplitter(R)
            for a_sym, b_sym in (("H", "P"), ("V", "B")):
                cfg = RoundConfig(bs, basis_qubit(("V", "H"), a_sym), basis_qubit(("P", "B"), b_sym))
                assert closed_form_probs(cfg).P_DB == pytest.approx(bs.T, abs=1e-12)

    def test_degenerate_reflectance_rejected(self):
        with pytest.raises(ValueError):
            run_round(balanced_config(1.0))
        with pytest.raises(ValueError):
            run_round(balanced_config(0.0))

    def test_errors_keep_their_order(self):
        """Each entry point checks its qubits, then R; run_round checks R
        before the split flag."""
        degenerate = "^degenerate beam splitter: R must lie strictly inside \\(0, 1\\)$"
        pb, vh = Qubit.balanced(("pass", "block")), Qubit.balanced(("V", "H"))
        for R in (0.0, 1.0):
            bs = BeamSplitter(R)
            with pytest.raises(ValueError, match="^pass/block round needs qubits declared over"):
                run_scqkd_round(vh, pb, bs)
            with pytest.raises(ValueError, match="^payload must be declared over"):
                transfer_alice_to_bob(pb, bs, "V")
            with pytest.raises(ValueError, match="^sender branch must be"):
                transfer_alice_to_bob(vh, bs, "P")
            for call in (
                lambda: run_scqkd_round(pb, pb, bs),
                lambda: transfer_alice_to_bob(vh, bs, "V"),
                lambda: transfer_bob_to_alice(Qubit.balanced(("P", "B")), bs, "B"),
                lambda: run_round(balanced_config(R)._replace(variant="ScQKD"), split_detector_polarization=True),
            ):
                with pytest.raises(ValueError, match=degenerate):
                    call()
        with pytest.raises(ValueError, match="^the pass/block variant has no polarization-resolved detectors$"):
            run_round(balanced_config(0.5)._replace(variant="ScQKD"), split_detector_polarization=True)

    def test_polarization_resolved_outcomes(self):
        outcomes = run_round(balanced_config(0.5), split_detector_polarization=True)
        names = [o.outcome for o in outcomes]
        assert names == ["D1V", "D1H", "D2V", "D2H", "DB"]
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)
        # each counterfactual tag carries half of the counterfactual yield
        assert outcomes[0].probability == pytest.approx(0.0625, abs=1e-12)
        assert outcomes[1].probability == pytest.approx(0.0625, abs=1e-12)

    def test_variant_dispatch(self):
        cfg = RoundConfig(
            BeamSplitter(0.5),
            Qubit.balanced(("V", "H")),
            Qubit.balanced(("P", "B")),
            variant="ScQKD",
        )
        outcomes = run_round(cfg)
        assert outcomes[0].posterior.registers == (SWITCH_ALICE, SWITCH_BOB)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            RoundConfig(BeamSplitter(0.5), Qubit.balanced(("V", "H")), Qubit.balanced(("P", "B")), variant="N10")


class TestClosedForms:
    def test_blocking_basis_case(self):
        cfg = RoundConfig(BeamSplitter(0.3), basis_qubit(("V", "H"), "V"), basis_qubit(("P", "B"), "B"))
        probs = closed_form_probs(cfg)
        assert probs.P_DB == pytest.approx(0.7, abs=1e-12)
        assert probs.P_D1 == pytest.approx(0.21, abs=1e-12)
        assert probs.P_D2 == pytest.approx(0.09, abs=1e-12)

    def test_pass_only_receiver(self):
        cfg = RoundConfig(BeamSplitter(0.4), Qubit(("V", "H"), 0.6, 0.8), basis_qubit(("P", "B"), "P"))
        probs = closed_form_probs(cfg)
        assert probs.P_D1 == pytest.approx(0.4 * 0.6 * 0.64, abs=1e-12)
        assert probs.P_DB == pytest.approx(0.6 * 0.64, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(204)
        for _ in range(200):
            probs = closed_form_probs(random_config(rng))
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_d1_state_empty_when_no_counterfactual_branch(self):
        cfg = RoundConfig(BeamSplitter(0.5), basis_qubit(("V", "H"), "V"), basis_qubit(("P", "B"), "P"))
        assert d1_state_closed_form(cfg).amps == {}

    def test_d1_state_balanced(self):
        s = d1_state_closed_form(balanced_config(0.5))
        assert s.amps[("H", "P")] == pytest.approx(0.25)
        assert s.amps[("V", "B")] == pytest.approx(0.25)

    def test_d1_state_products(self):
        cfg = RoundConfig(BeamSplitter(0.5), Qubit(("V", "H"), 0.6, 0.8), Qubit(("P", "B"), 0.8, 0.6))
        s = d1_state_closed_form(cfg)
        scale = math.sqrt(0.25)
        assert s.amps[("H", "P")] == pytest.approx(0.64 * scale)
        assert s.amps[("V", "B")] == pytest.approx(0.36 * scale)

    def test_d1_norm_matches_probability(self):
        rng = np.random.default_rng(205)
        for _ in range(100):
            cfg = random_config(rng)
            assert d1_state_closed_form(cfg).norm2() == pytest.approx(
                closed_form_probs(cfg).P_D1, abs=1e-12
            )


class TestScqkdRound:
    def test_no_polarization_resolved_detectors(self):
        config = RoundConfig(BeamSplitter(0.5), Qubit.balanced(("V", "H")), Qubit.balanced(("P", "B")), "ScQKD")
        with pytest.raises(ValueError, match="polarization"):
            run_round(config, split_detector_polarization=True)
        assert [o.outcome for o in run_round(config)] == ["D1", "D2", "DB"]

    def test_both_pass_interferes_into_second_detector(self):
        alice = Qubit(("pass", "block"), 1.0, 0.0)
        outcomes = run_scqkd_round(alice, alice, BeamSplitter(0.5))
        assert outcomes[0].probability == pytest.approx(0.0, abs=1e-12)
        assert outcomes[1].probability == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("R", [0.2, 0.5, 0.8])
    def test_single_blocker(self, R):
        alice = Qubit(("pass", "block"), 1.0, 0.0)
        bob = Qubit(("pass", "block"), 0.0, 1.0)
        outcomes = run_scqkd_round(alice, bob, BeamSplitter(R))
        T = 1.0 - R
        assert outcomes[0].probability == pytest.approx(R * T, abs=1e-12)
        assert outcomes[1].probability == pytest.approx(R * R, abs=1e-12)
        assert outcomes[2].probability == pytest.approx(T, abs=1e-12)

    def test_balanced_entangles_with_fixed_phase(self):
        q = Qubit.balanced(("pass", "block"))
        outcomes = run_scqkd_round(q, q, BeamSplitter(0.5))
        post = outcomes[0].posterior
        # the beam splitter convention fixes the relative phase at pi
        target = PureState(
            (SWITCH_ALICE, SWITCH_BOB),
            {("pass", "block"): SQ2, ("block", "pass"): -SQ2},
        )
        assert fidelity_up_to_phase(post, target) == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(post, [SWITCH_ALICE]) == pytest.approx(1.0, abs=1e-10)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(206)
        for _ in range(100):
            a0, a1 = random_amplitude_pair(rng)
            b0, b1 = random_amplitude_pair(rng)
            outcomes = run_scqkd_round(
                Qubit(("pass", "block"), a0, a1),
                Qubit(("pass", "block"), b0, b1),
                BeamSplitter(rng.uniform(0.05, 0.95)),
            )
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_d1_posterior_amplitude_structure(self):
        rng = np.random.default_rng(207)
        for _ in range(50):
            a0, a1 = random_amplitude_pair(rng)
            b0, b1 = random_amplitude_pair(rng)
            R = rng.uniform(0.1, 0.9)
            outcomes = run_scqkd_round(
                Qubit(("pass", "block"), a0, a1),
                Qubit(("pass", "block"), b0, b1),
                BeamSplitter(R),
            )
            if outcomes[0].probability < 1e-12:
                continue
            expected = PureState(
                (SWITCH_ALICE, SWITCH_BOB),
                {("pass", "block"): a0 * b1, ("block", "pass"): -a1 * b0},
            )
            assert fidelity_up_to_phase(outcomes[0].posterior, expected) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_absorbed_posterior_keeps_absorbers(self):
        q = Qubit.balanced(("pass", "block"))
        outcomes = run_scqkd_round(q, q, BeamSplitter(0.5))
        regs = outcomes[2].posterior.registers
        assert SWITCH_ALICE in regs and SWITCH_BOB in regs
        assert len(regs) == 4

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError):
            run_scqkd_round(Qubit.balanced(("V", "H")), Qubit.balanced(("pass", "block")), BeamSplitter(0.5))


class TestRoundRecord:
    def test_record_fields_and_values(self):
        record = round_record(balanced_config(0.5))
        assert set(record) == {
            "R", "alpha", "beta", "mu", "nu", "variant",
            "P_D1", "P_D2", "P_DB", "entropy_D1",
        }
        assert record["P_D1"] == pytest.approx(0.125, abs=1e-12)
        assert record["entropy_D1"] == pytest.approx(1.0, abs=1e-10)
        assert record["variant"] == "N09"

    def test_record_zero_yield(self):
        cfg = RoundConfig(BeamSplitter(0.5), basis_qubit(("V", "H"), "V"), basis_qubit(("P", "B"), "P"))
        record = round_record(cfg)
        assert record["P_D1"] == 0.0
        assert record["entropy_D1"] == 0.0


@settings(max_examples=100, deadline=None)
@given(REFLECTANCES, st.sampled_from(("N09", "ScQKD")))
@example(1e-300, "N09")  # the smallest R in scope
@example(1e-300, "ScQKD")
@example(1e-13, "N09")  # P_D1 below 1e-12, once read as zero yield
@example(1e-31, "N09")  # D1 amplitude below 1e-15, once pruned as dust
@example(0.5, "ScQKD")
@example(1.0 - 2.0**-53, "N09")
def test_balanced_entropy_is_one_at_any_reflectance(R, variant):
    """The D1 pair of balanced devices holds one ebit for every R, however small the yield."""
    config = balanced_config(R)._replace(variant=variant)
    record = round_record(config)
    assert record["P_D1"] > 0.0
    assert abs(record["entropy_D1"] - 1.0) <= 1e-12
    assert abs(sum(o.probability for o in run_round(config)) - 1.0) <= 1e-12


ANGLES = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def unit_pairs(draw):
    """Any normalized amplitude pair: (cos t e^{ia}, sin t e^{ib})."""
    t, a, b = draw(ANGLES), draw(ANGLES), draw(ANGLES)
    return math.cos(t) * complex(math.cos(a), math.sin(a)), math.sin(t) * complex(math.cos(b), math.sin(b))


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    unit_pairs(),
    unit_pairs(),
    st.sampled_from(("N09", "ScQKD")),
)
@example(0.5, (1.0, 0.0), (1.0, 2.2e-308), "N09")  # a posterior whose norm**2 underflows
@example(0.5, (1.0, 0.0), (1.0, 2.2e-308), "ScQKD")
def test_outcome_probabilities_sum_to_one(R, alice, bob, variant):
    config = RoundConfig(BeamSplitter(R), Qubit(("V", "H"), *alice), Qubit(("P", "B"), *bob), variant)
    outcomes = run_round(config)
    assert [o.outcome for o in outcomes] == ["D1", "D2", "DB"]
    assert abs(sum(o.probability for o in outcomes) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(REFLECTANCES, unit_pairs(), unit_pairs())
@example(1e-300, (SQ2, SQ2), (SQ2, SQ2))  # the smallest R in scope, both parties superposed
@example(0.3, (0.6, 0.8j), (0.8, -0.6))
def test_scqkd_matches_closed_form(R, alice, bob):
    """Every pass/block outcome against its closed form, derived by hand.

    A blocker absorbs its own arm's amplitude: the internal arm carries
    i*sqrt(R), the channel arm sqrt(T).  An arm that passes returns to D1
    with sqrt(R) from the channel arm and i*sqrt(T) from the internal arm.
    """
    (ap, ab), (bp, bb) = alice, bob
    T = 1.0 - R
    alice_only, bob_only = abs(ap * bb) ** 2, abs(ab * bp) ** 2  # the one party that passes
    outcomes = run_scqkd_round(Qubit(("pass", "block"), ap, ab), Qubit(("pass", "block"), bp, bb), BeamSplitter(R))
    p_d1 = R * T * (bob_only + alice_only)
    assert abs(outcomes[0].probability - p_d1) <= 1e-12
    assert abs(outcomes[1].probability - (abs(ap * bp) ** 2 + T**2 * bob_only + R**2 * alice_only)) <= 1e-12
    assert abs(outcomes[2].probability - (R * bob_only + T * alice_only + abs(ab * bb) ** 2)) <= 1e-12
    if p_d1 > 0.0:  # below that the D1 amplitudes leave the normal float range
        expected = PureState((SWITCH_ALICE, SWITCH_BOB), {("pass", "block"): ap * bb, ("block", "pass"): -ab * bp})
        assert abs(fidelity_up_to_phase(outcomes[0].posterior, expected) - 1.0) <= 1e-12



@settings(max_examples=150, deadline=None)
@given(REFLECTANCES, unit_pairs(), unit_pairs())
@example(0.5, (1.0, 0.0), (0.0, 1.0))  # V meets B: the channel photon is absorbed
def test_silent_detector_is_the_absorbed_sector(R, alice, bob):
    # DB is read as the silent output detector; that is the absorbed sector.
    config = RoundConfig(BeamSplitter(R), Qubit(("V", "H"), *alice), Qubit(("P", "B"), *bob))
    state = n09_input(config.alice, config.bob)
    state = forward_beamsplitter(state, config.bs)
    state = switch_interaction(state)
    state = return_beamsplitter(state, config.bs)
    assert sector(state, DETECTOR, ("none",)).amps == sector(state, BOB_DETECTOR, ("Y",)).amps


# ---- the maps against their references: rules rebuilt and checked on every
# call, and run through the reference label loop

LINK_KINDS = ("device_a", "arm_a", "arm_b", "bob_detector", "alice_detector")
MAP_REFLECTANCES = st.one_of(st.sampled_from((0.0, 1.0)), REFLECTANCES)


def link_registers(link):
    return (BOB_DEVICE, *(Register(kind, link) for kind in LINK_KINDS))


@st.composite
def link_states(draw):
    """A state on a random subset of the labels of the maps' link (link 0;
    registers in random order), amplitudes down to 1e-300."""
    registers = tuple(draw(st.permutations(link_registers(0))))
    labels = list(itertools.product(*(r.alphabet for r in registers)))
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=60, unique=True))
    return PureState(registers, {label: draw(AMPLITUDES) for label in chosen})


def exact(state):
    """Registers and amplitude items in order, every float bit included."""
    return state.registers, repr(list(state.amps.items()))


def run_recording_rules(fn, loop, state, *args):
    """``fn(state, *args)`` exactly, and the rule dicts that it hands to the
    label loop ``loop`` (a global of its module), as item lists in order."""
    real, handed = fn.__globals__[loop], []

    def spy(state, where, rules):
        handed.append(repr(list(rules.items())))
        return real(state, where, rules)

    with mock.patch.dict(fn.__globals__, {loop: spy}):
        return exact(fn(state, *args)), handed


@settings(max_examples=300, deadline=None)
@given(link_states(), MAP_REFLECTANCES)
@example(PureState(link_registers(0), {("P", "V", "vac", "vac", "0", "none"): 1e-300j}), 1e-300)
def test_maps_match_their_references(state, R):
    bs = BeamSplitter(R)
    pairs = [
        (forward_beamsplitter, forward_beamsplitter_reference, (bs,)),
        (switch_interaction, switch_interaction_reference, ()),
        (return_beamsplitter, return_beamsplitter_reference, (bs,)),
    ]
    new = ref = state
    for fast, slow, args in pairs:
        # the same rules, insertion and branch order included, and the same output
        assert run_recording_rules(fast, "_map_labels", state, *args) == run_recording_rules(
            slow, "apply_map_reference", state, *args
        )
        new, ref = fast(new, *args), slow(ref, *args)  # and the three in sequence
        assert exact(new) == exact(ref)


@st.composite
def unit_pairs_down_to_tiny(draw):
    """A normalized amplitude pair whose smaller entry may be as small as 1e-300."""
    t = draw(st.one_of(MAGNITUDES, st.floats(min_value=0.0, max_value=math.pi / 2)))
    a, b = draw(ANGLES), draw(ANGLES)
    pair = (math.cos(t) * complex(math.cos(a), math.sin(a)), math.sin(t) * complex(math.cos(b), math.sin(b)))
    return pair if draw(st.booleans()) else pair[::-1]


def outcomes_exact(outcomes):
    return [(o.outcome, repr(o.probability), *exact(o.posterior)) for o in outcomes]


@settings(max_examples=150, deadline=None)
@given(REFLECTANCES, unit_pairs_down_to_tiny(), unit_pairs_down_to_tiny(), st.sampled_from(VARIANTS))
@example(1e-300, (SQ2, SQ2), (SQ2, SQ2), "ScQKD")
@example(0.37, (0.6, 0.8j), (0.6j, 0.8), "ScQKD")
def test_rounds_match_the_reference_maps(R, alice, bob, variant):
    config = RoundConfig(BeamSplitter(R), Qubit(("V", "H"), *alice), Qubit(("P", "B"), *bob), variant)
    pass_block = Qubit(("pass", "block"), *alice), Qubit(("pass", "block"), *bob)

    def results():
        rounds = [run_round(config), run_scqkd_round(*pass_block, config.bs)]
        if variant == "N09":
            rounds.append(run_round(config, split_detector_polarization=True))
        return [outcomes_exact(r) for r in rounds], repr(list(round_record(config).items()))

    def counted(name, reference):
        def run(*args):
            ran.append(name)
            return reference(*args)

        return run

    def clear_caches():
        michelson._round_table.cache_clear()
        star._d1_rules.cache_clear()

    new = results()
    ran = []
    with mock.patch.multiple(
        michelson,
        forward_beamsplitter=counted("forward", forward_beamsplitter_reference),
        switch_interaction=counted("switch", switch_interaction_reference),
        return_beamsplitter=counted("return", return_beamsplitter_reference),
        _pass_block_switches=counted("pass_block", pass_block_switches_reference),
    ):
        clear_caches()  # else the table cached above would answer for the references
        try:
            assert results() == new
        finally:
            clear_caches()  # nor may a table of the references outlive the patch
    # both variants' tables ran on the references; the N09 one only if a round needed it
    assert {"forward", "return", "pass_block"} <= set(ran)
    assert ("switch" in ran) == (variant == "N09")


# Each variant's D1 pairs, as (sender, receiver) symbols, with the sign of
# their D1 coefficient, sqrt(R) sqrt(T) times it: the closed forms'.
D1_SIGNS = {
    "N09": {("V", "B"): -1.0, ("H", "P"): -1.0},
    "ScQKD": {("pass", "block"): -1.0, ("block", "pass"): 1.0},
}


# Reflectances log-uniform in [5e-324, 1).
SUBNORMAL_REFLECTANCES = st.floats(min_value=-1074.0, max_value=0.0).map(lambda e: 2.0**e).filter(lambda R: R < 1.0)


@settings(max_examples=300, deadline=None)
@given(SUBNORMAL_REFLECTANCES)
@example(5e-324)
@example(0.37)
@example(0.5)
def test_the_table_clicks_d1_only_where_the_closed_forms_allow(R):
    """The unit-pair table of each variant holds D1 rows on the closed
    forms' pairs alone, each at exactly +-sqrt(R) sqrt(T): the passing
    pairs' two D1 terms cancel to an exact zero, so no residue row is left
    for a rule to drop, at R down to 5e-324."""
    bs = BeamSplitter(R)
    s = math.sqrt(bs.R) * math.sqrt(bs.T)
    for variant, signs in D1_SIGNS.items():
        sender, receiver = (ALICE_DEVICE, BOB_DEVICE) if variant == "N09" else (SWITCH_ALICE, SWITCH_BOB)
        table = michelson._round_table(bs, variant)
        assert all(symbol == label[-1] for label, symbol, *_ in table)  # the row's DETECTOR symbol
        rows = [
            ((sender.alphabet[i], receiver.alphabet[j]), c)
            for _, symbol, i, j, c in table
            if symbol in ("D1V", "D1H")
        ]
        assert len(rows) == len(signs), (variant, rows)
        assert dict(rows) == {pair: complex(sign * s) for pair, sign in signs.items()}, (variant, rows)


@settings(max_examples=300, deadline=None)
@given(SUBNORMAL_REFLECTANCES)
@example(5e-324)
@example(0.37)
def test_a_click_tag_is_its_outcome_and_the_senders_symbol(R):
    """Every D1 and D2 row of the N09 table carries the detector tag D1 or
    D2 followed by device_a's symbol.  So the tag is a function of the
    outcome and the device pair, and ``_outcomes`` may drop it from the
    transfers' D1 posterior without merging two labels."""
    registers = michelson._N09_PAIRS.registers
    a, d = registers.index(ALICE_DEVICE), registers.index(DETECTOR)
    clicks = [row for row in michelson._round_table(BeamSplitter(R), "N09") if row[1] != "none"]
    assert {symbol[:2] for _, symbol, *_ in clicks} == {"D1", "D2"}
    for label, symbol, i, *_ in clicks:
        assert symbol == label[d] in (f"D1{label[a]}", f"D2{label[a]}"), label
        assert label[a] == ALICE_DEVICE.alphabet[i], label


# Each variant's D1 pairs, as (sender, receiver) symbols, and the arm that
# the photon clicking D1 on that pair took: the paper's counterfactual claim.
D1_ARMS = {
    "N09": {("H", "P"): "internal", ("V", "B"): "internal"},
    "ScQKD": {("pass", "block"): "internal", ("block", "pass"): "channel"},
}


@settings(max_examples=300, deadline=None)
@given(SUBNORMAL_REFLECTANCES)
@example(5e-324)
@example(0.37)
def test_a_d1_click_comes_from_one_arm(R):
    """On the reference maps, each variant's unit device pairs are split
    just before the return splitter into their channel part (``arm_b``
    occupied) and their internal part, and the return splitter runs on
    each.  N09 clicks D1 on the blocked pairs alone, and there the channel
    part is exactly 0: the photon was never in the channel.  The pass/block
    round's D1 on (pass, block) comes from the internal arm alone, and on
    (block, pass) from the channel arm alone."""
    bs = BeamSplitter(R)
    for variant, arms in D1_ARMS.items():
        n09 = variant == "N09"
        pairs, switches = (
            (michelson._N09_PAIRS, switch_interaction_reference)
            if n09
            else (michelson._SCQKD_PAIRS, pass_block_switches_reference)
        )
        before = switches(forward_beamsplitter_reference(pairs, bs))
        parts = {
            arm: return_beamsplitter_reference(sector(before, ARM_BOB, symbols), bs).amps
            for arm, symbols in (("channel", ("V", "H")), ("internal", ("vac",)))
        }
        d1 = sector(return_beamsplitter_reference(before, bs), DETECTOR, ("D1V", "D1H"))
        devices = (ALICE_DEVICE, BOB_DEVICE) if n09 else (SWITCH_ALICE, SWITCH_BOB)
        s, r = (d1.registers.index(reg) for reg in devices)
        assert {(label[s], label[r]) for label in d1.amps} == set(arms), variant
        for label, amp in d1.amps.items():
            arm = arms[(label[s], label[r])]
            other = "internal" if arm == "channel" else "channel"
            assert (parts[arm][label], parts[other].get(label, 0j)) == (amp, 0j), (variant, label)


DEGENERATE = "^degenerate beam splitter: R must lie strictly inside \\(0, 1\\)$"


@pytest.mark.parametrize("R", [0.0, 1.0])
def test_every_reader_of_the_link_refuses_a_degenerate_splitter(R, capsys):
    """The rounds, the transfers and the star all read the one unit-pair
    table, which refuses R = 0 and 1 with one message; the CLI's star
    exits 1 with that message on one ``error:`` line."""
    bs = BeamSplitter(R)
    vh, pb, hub = Qubit.balanced(("V", "H")), Qubit.balanced(("pass", "block")), Qubit.balanced(("P", "B"))
    cat = star.StarConfig(bs, (vh, vh), hub)
    link = PureState((BOB_DEVICE, star.alice_register(0)), {("P", "H"): 1.0})
    for call in (
        lambda: run_round(balanced_config(R)),
        lambda: run_round(balanced_config(R), split_detector_polarization=True),
        lambda: run_round(balanced_config(R)._replace(variant="ScQKD")),
        lambda: run_scqkd_round(pb, pb, bs),
        lambda: transfer_alice_to_bob(vh, bs, "V"),
        lambda: transfer_bob_to_alice(hub, bs, "B"),
        lambda: star.partial_propagator(link, 0, bs),
        lambda: star.run_star(cat),
        lambda: star.exact_cat_columns(cat),
    ):
        with pytest.raises(ValueError, match=DEGENERATE):
            call()
    capsys.readouterr()
    assert cli.main(["star", "--R", f"{R:g}", "--N", "2"]) == 1
    assert capsys.readouterr() == ("", "error: degenerate beam splitter: R must lie strictly inside (0, 1)\n")


@settings(max_examples=150, deadline=None)
@given(REFLECTANCES, unit_pairs_down_to_tiny(), unit_pairs_down_to_tiny(), st.sampled_from(VARIANTS))
@example(1e-300, (SQ2, SQ2), (SQ2, SQ2), "ScQKD")
@example(0.37, (0.6, 0.8j), (0.6j, 0.8), "N09")
@example(0.5, (1.0, 0.0), (0.0, 1.0), "N09")
def test_rounds_and_transfers_match_the_reference_restrict(R, alice, bob, variant):
    """The posteriors' restrictions, on cached plans, against the reference
    that looks every kept register up on each call.  ``_outcomes`` makes
    every restriction, the transfers' shared pair's too."""
    bs = BeamSplitter(R)
    config = RoundConfig(bs, Qubit(("V", "H"), *alice), Qubit(("P", "B"), *bob), variant)
    pass_block = Qubit(("pass", "block"), *alice), Qubit(("pass", "block"), *bob)

    def attempt(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:  # a transfer with no counterfactual branch
            return str(exc)

    def transcript(t):
        if isinstance(t, str):
            return t
        numbers = repr((tuple(t.receiver_state), t.fidelity, t.branch_probability))
        return (*exact(t.shared), t.sender_outcome, t.classical_bit, numbers)

    def results():
        split = run_round(config._replace(variant="N09"), split_detector_polarization=True)
        rounds = [run_round(config), run_scqkd_round(*pass_block, bs), split]
        transfers = [transcript(attempt(transfer_alice_to_bob, config.alice, bs, b)) for b in ("V", "H")]
        transfers += [transcript(attempt(transfer_bob_to_alice, config.bob, bs, b)) for b in ("P", "B")]
        return (
            [outcomes_exact(r) for r in rounds],
            repr(list(round_record(config).items())),
            transfers,
            repr(attempt(transfer_without_correction, config.alice)),
        )

    new = results()
    with mock.patch.object(michelson, "_restricted", restrict_reference):
        assert results() == new


# ---- the round's outcome read against its generic form

# The transfers' read: D1 alone, every other detector symbol skipped, its
# posterior on the device pair.
D1_CLICKS = {"D1V": "D1", "D1H": "D1"}
PAIR = (ALICE_DEVICE, BOB_DEVICE)

# Each variant's DB posterior registers; a click's are its reader's.
BLOCKED_KEEPS = {"N09": PAIR, "ScQKD": (SWITCH_ALICE, SWITCH_BOB, ABSORBER_ALICE, ABSORBER_BOB)}


@settings(max_examples=300, deadline=None)
@given(REFLECTANCES, unit_pairs_down_to_tiny(), unit_pairs_down_to_tiny())
@example(1e-300, (1.0, 1e-20), (1.0, 0.0))  # D1's norm**2, about 1e-340, underflows
@example(1e-300, (SQ2, SQ2), (SQ2, SQ2))
@example(0.37, (0.6, 0.8j), (0.6j, 0.8))
def test_rounds_match_the_reference_outcomes(R, alice, bob):
    """Both round variants, split and unsplit, and the transfers' D1 read,
    which skips every other detector symbol, read their outcomes as the
    reference does, each sector apart, bit for bit."""
    bs = BeamSplitter(R)
    config = RoundConfig(bs, Qubit(("V", "H"), *alice), Qubit(("P", "B"), *bob))
    pass_block = Qubit(("pass", "block"), *alice), Qubit(("pass", "block"), *bob)

    def results():
        rounds = [run_round(config), run_round(config, split_detector_polarization=True)]
        d1_only = michelson._outcomes(bs, "N09", config.alice, config.bob, D1_CLICKS, PAIR)
        rounds += [run_scqkd_round(*pass_block, bs), d1_only]
        transfers = [transfer_alice_to_bob(config.alice, bs, "V"), transfer_bob_to_alice(config.bob, bs, "B")]
        return [outcomes_exact(r) for r in rounds], [exact(t.shared) for t in transfers]

    def reference(bs, variant, sender, receiver, clicks, keep):
        mu, alpha = list(sender.amplitudes().values()), list(receiver.amplitudes().values())
        registers = (michelson._N09_PAIRS if variant == "N09" else michelson._SCQKD_PAIRS).registers
        rows = michelson._round_table(bs, variant)
        state = PureState(registers, {label: mu[i] * alpha[j] * c for label, _, i, j, c in rows})
        return outcomes_reference(state, list(dict.fromkeys(clicks.values())), keep, BLOCKED_KEEPS[variant])

    new = results()
    with mock.patch.object(michelson, "_outcomes", reference), mock.patch.object(transfer, "_outcomes", reference):
        assert results() == new


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_underflowed_sector_keeps_its_posterior(variant):
    """D1's one amplitude, about 1e-170, squares to below the smallest
    float: its probability is 0.0, and its posterior the one label at unit
    magnitude."""
    config = RoundConfig(BeamSplitter(1e-300), Qubit(("V", "H"), 1.0, 1e-20), Qubit(("P", "B"), 1.0, 0.0), variant)
    d1 = run_round(config)[0]
    assert d1.probability == 0.0
    [amp] = d1.posterior.amps.values()
    assert abs(abs(amp) - 1.0) <= 1e-15


# ---- the checks every call still makes

BS = BeamSplitter(0.3)
MAPS = {
    "forward": (lambda state: forward_beamsplitter(state, BS), ("device_a", "arm_a", "arm_b")),
    "switch": (switch_interaction, ("device_b", "arm_b", "bob_detector")),
    "return": (lambda state: return_beamsplitter(state, BS), ("arm_a", "arm_b", "alice_detector")),
}


def full_link_state(registers):
    return product_state([(r, r.alphabet[0]) for r in registers])


@pytest.mark.parametrize("name", MAPS)
def test_map_rejects_a_state_without_one_of_its_registers(name):
    apply, kinds = MAPS[name]
    registers = link_registers(0)
    apply(full_link_state(registers))  # the whole link: fine
    for kind in kinds:
        partial = [r for r in registers if r.kind != kind]
        with pytest.raises(ValueError, match="^map touches a register absent from the state$"):
            apply(full_link_state(partial))
    with pytest.raises(ValueError, match="^map touches a register absent from the state$"):
        apply(full_link_state(link_registers(1)))  # another link's registers


def test_pass_block_switches_reject_a_state_without_an_absorber():
    state = product_state([(SWITCH_ALICE, "block"), (ARM_ALICE, "V"), (SWITCH_BOB, "pass"), (ARM_BOB, "vac")])
    with pytest.raises(ValueError, match="^map touches a register absent from the state$"):
        michelson._pass_block_switches(state)
