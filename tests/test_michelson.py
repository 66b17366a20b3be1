import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    REFLECTANCES,
    forward_beamsplitter_reference,
    pass_block_switches_reference,
    random_amplitude_pair,
    return_beamsplitter_reference,
    states_close,
    switch_interaction_reference,
)
from cfqsim import michelson
from cfqsim.michelson import (
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
    initial_round_state,
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

SQ2 = 1.0 / math.sqrt(2.0)


def basis_qubit(basis, symbol):
    return Qubit(tuple(basis), 1.0 if symbol == basis[0] else 0.0, 1.0 if symbol == basis[1] else 0.0)


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
        state = initial_round_state(cfg.alice, cfg.bob)
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
    state = initial_round_state(config.alice, config.bob)
    state = forward_beamsplitter(state, config.bs)
    state = switch_interaction(state)
    state = return_beamsplitter(state, config.bs)
    assert sector(state, DETECTOR, ("none",)).amps == sector(state, BOB_DETECTOR, ("Y",)).amps


def test_maps_at_link_one_leave_link_zero_alone():
    bs = BeamSplitter(0.3)
    kinds = ("device_a", "arm_a", "arm_b", "bob_detector", "alice_detector")
    link0, link1 = ([Register(kind, j) for kind in kinds] for j in (0, 1))
    parts = [(BOB_DEVICE, Qubit(("P", "B"), 0.6, 0.8))]
    for regs in (link0, link1):
        parts += [(regs[0], Qubit(("V", "H"), 0.8, 0.6j)), (regs[1], "vac"), (regs[2], "vac")]
        parts += [(regs[3], "0"), (regs[4], "none")]
    # Link 0 mid-round: its photon sits in its arms, where any link-0 map would move it.
    before = forward_beamsplitter(product_state(parts), bs, 0)
    after = return_beamsplitter(switch_interaction(forward_beamsplitter(before, bs, 1), 1), bs, 1)

    def link0_weights(state):
        idx = [state.registers.index(r) for r in (BOB_DEVICE, *link0)]
        weights = {}
        for label, amp in state.amps.items():
            key = tuple(label[i] for i in idx)
            weights[key] = weights.get(key, 0.0) + abs(amp) ** 2
        return weights

    want = link0_weights(before)
    got = link0_weights(after)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key] == pytest.approx(w, abs=1e-12)
    # Link 1 ran its whole round: both arms empty, a click or an absorption.
    assert all(label[after.registers.index(r)] == "vac" for label in after.amps for r in link1[1:3])
    assert sector(after, link1[4], ("none",)).amps == sector(after, link1[3], ("Y",)).amps
    assert sector(after, link1[3], ("Y",)).amps


# ---- the maps against their references: rules rebuilt and checked on every call

LINK_KINDS = ("device_a", "arm_a", "arm_b", "bob_detector", "alice_detector")
MAGNITUDES = st.floats(min_value=-300.0, max_value=0.0).map(lambda x: 10.0**x)
PARTS = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda x: -x))
AMPLITUDES = st.builds(complex, PARTS, PARTS).filter(bool)
MAP_REFLECTANCES = st.one_of(st.sampled_from((0.0, 1.0)), REFLECTANCES)


def link_registers(link):
    return (BOB_DEVICE, *(Register(kind, link) for kind in LINK_KINDS))


@st.composite
def link_states(draw):
    """A link index in 0-3 and a state on a random subset of that link's
    labels (registers in random order), amplitudes down to 1e-300."""
    link = draw(st.integers(min_value=0, max_value=3))
    registers = tuple(draw(st.permutations(link_registers(link))))
    labels = list(itertools.product(*(r.alphabet for r in registers)))
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=60, unique=True))
    return link, PureState(registers, {label: draw(AMPLITUDES) for label in chosen})


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
@example((0, PureState(link_registers(0), {("P", "V", "vac", "vac", "0", "none"): 1e-300j})), 1e-300)
def test_maps_match_their_references(case, R):
    link, state = case
    bs = BeamSplitter(R)
    pairs = [
        (forward_beamsplitter, forward_beamsplitter_reference, (bs, link)),
        (switch_interaction, switch_interaction_reference, (link,)),
        (return_beamsplitter, return_beamsplitter_reference, (bs, link)),
    ]
    new = ref = state
    for fast, slow, args in pairs:
        # the same rules, insertion and branch order included, and the same output
        assert run_recording_rules(fast, "_map_labels", state, *args) == run_recording_rules(
            slow, "apply_map", state, *args
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

    new = results()
    with mock.patch.multiple(
        michelson,
        forward_beamsplitter=forward_beamsplitter_reference,
        switch_interaction=switch_interaction_reference,
        return_beamsplitter=return_beamsplitter_reference,
        _pass_block_switches=pass_block_switches_reference,
    ):
        assert results() == new


# ---- the checks every call still makes

BS = BeamSplitter(0.3)
MAPS = {
    "forward": (lambda state, link: forward_beamsplitter(state, BS, link), ("device_a", "arm_a", "arm_b")),
    "switch": (switch_interaction, ("device_b", "arm_b", "bob_detector")),
    "return": (lambda state, link: return_beamsplitter(state, BS, link), ("arm_a", "arm_b", "alice_detector")),
}


def full_link_state(registers):
    return product_state([(r, r.alphabet[0]) for r in registers])


@pytest.mark.parametrize("name", MAPS)
@pytest.mark.parametrize("link", [0, 2])
def test_map_rejects_a_state_without_one_of_its_registers(name, link):
    apply, kinds = MAPS[name]
    registers = link_registers(link)
    apply(full_link_state(registers), link)  # the whole link: fine
    for kind in kinds:
        partial = [r for r in registers if r.kind != kind]
        with pytest.raises(ValueError, match="^map touches a register absent from the state$"):
            apply(full_link_state(partial), link)
    with pytest.raises(ValueError, match="^map touches a register absent from the state$"):
        apply(full_link_state(registers), link + 1)  # another link's registers


@pytest.mark.parametrize("name", MAPS)
def test_map_rejects_a_negative_link(name):
    apply, _ = MAPS[name]
    with pytest.raises(ValueError, match="^register index must be nonnegative$"):
        apply(full_link_state(link_registers(0)), -1)


def test_pass_block_switches_reject_a_state_without_an_absorber():
    state = product_state([(SWITCH_ALICE, "block"), (ARM_ALICE, "V"), (SWITCH_BOB, "pass"), (ARM_BOB, "vac")])
    with pytest.raises(ValueError, match="^map touches a register absent from the state$"):
        michelson._pass_block_switches(state)
