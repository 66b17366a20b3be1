import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_unitary
from cfqsim.states import (
    PRUNE_TOL,
    PureState,
    Qubit,
    Register,
    apply_map,
    entanglement_entropy,
    fidelity_up_to_phase,
    format_complex,
    parse_complex,
    postselect,
    product_state,
    sector,
    states_close,
    unitary_rules,
)

A = Register("device_a")
B = Register("device_b")
DB = Register("bob_detector")
ARM_A = Register("arm_a")
ARM_B = Register("arm_b")

SQ2 = 1.0 / math.sqrt(2.0)


def amplitudes(draw_count=8):
    return st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=draw_count,
        max_size=draw_count,
    )


def build_ab_state(amps) -> PureState:
    labels = [(x, y) for x in A.alphabet for y in B.alphabet]
    return PureState((A, B), dict(zip(labels, amps[: len(labels)])))


class TestRegister:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Register("flux_capacitor")

    def test_negative_index(self):
        with pytest.raises(ValueError):
            Register("device_a", -1)


class TestQubit:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            Qubit(("V", "H"), 0.6, 0.9)

    def test_complex_amplitudes_ok(self):
        Qubit(("V", "H"), 0.6, 0.8j)

    def test_degenerate_basis(self):
        with pytest.raises(ValueError):
            Qubit(("V", "V"), 1.0, 0.0)

    @pytest.mark.parametrize(
        "amp0, amp1",
        [
            (math.nan, 1.0),
            (1.0, complex(0.0, math.nan)),
            (math.inf, 0.0),
            (0.0, complex(-math.inf, 1.0)),
        ],
    )
    def test_non_finite_rejected(self, amp0, amp1):
        with pytest.raises(ValueError, match="finite"):
            Qubit(("V", "H"), amp0, amp1)


class TestProductState:
    def test_basis_product(self):
        s = product_state(
            [
                (A, Qubit(("V", "H"), 1.0, 0.0)),
                (DB, "0"),
                (B, Qubit(("P", "B"), 1.0, 0.0)),
                (ARM_A, "vac"),
                (ARM_B, "vac"),
            ]
        )
        assert s.amps == {("V", "0", "P", "vac", "vac"): 1.0 + 0j}

    def test_balanced_pair(self):
        s = product_state([(A, Qubit.balanced(("V", "H"))), (B, Qubit.balanced(("P", "B")))])
        assert len(s.amps) == 4
        for amp in s.amps.values():
            assert amp == pytest.approx(0.5)
        assert s.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_direct_embedding(self):
        s = product_state([(A, Qubit(("V", "H"), 0.6, 0.8)), (B, Qubit(("P", "B"), 1.0, 0.0))])
        assert s.amps[("V", "P")] == pytest.approx(0.6)
        assert s.amps[("H", "P")] == pytest.approx(0.8)

    def test_duplicate_register(self):
        with pytest.raises(ValueError):
            product_state([(A, "V"), (A, "H")])

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            product_state([(A, "P")])

    def test_qubit_basis_outside_alphabet(self):
        with pytest.raises(ValueError):
            product_state([(A, Qubit(("P", "B"), 1.0, 0.0))])


class TestApplyMap:
    def test_identity(self):
        s = product_state([(A, Qubit(("V", "H"), 0.6, 0.8))])
        out = apply_map(s, (A,), {})
        assert states_close(out, s)

    def test_involution(self):
        s = product_state([(A, Qubit(("V", "H"), 0.6, 0.8)), (B, "P")])
        flip = {("V",): [(("H",), 1.0)], ("H",): [(("V",), 1.0)]}
        out = apply_map(apply_map(s, (A,), flip), (A,), flip)
        assert states_close(out, s)

    def test_block_absorption_line(self):
        s = PureState((B, ARM_B, DB), {("B", "V", "0"): 0.5})
        rules = {("B", "V", "0"): [(("B", "vac", "Y"), 1.0)]}
        out = apply_map(s, (B, ARM_B, DB), rules)
        assert out.amps == {("B", "vac", "Y"): 0.5 + 0j}
        assert out.norm2() == pytest.approx(s.norm2(), abs=1e-12)

    def test_output_symbol_outside_alphabet(self):
        s = product_state([(A, "V")])
        with pytest.raises(ValueError):
            apply_map(s, (A,), {("V",): [(("Q",), 1.0)]})

    def test_absent_register(self):
        s = product_state([(A, "V")])
        with pytest.raises(ValueError):
            apply_map(s, (B,), {})

    @settings(max_examples=40, deadline=None)
    @given(amplitudes(), amplitudes())
    def test_linearity(self, amps_s, amps_t):
        s, t = build_ab_state(amps_s), build_ab_state(amps_t)
        rules = {
            ("V", "P"): [(("H", "P"), 0.3j), (("V", "B"), 0.7)],
            ("H", "B"): [],
        }
        lhs = apply_map(s + t, (A, B), rules)
        rhs = apply_map(s, (A, B), rules) + apply_map(t, (A, B), rules)
        assert states_close(lhs, rhs, 1e-12)

    def test_sequential_equals_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = random_state((A, B), rng)
            u1 = random_unitary(2, rng)
            u2 = random_unitary(2, rng)
            seq = apply_map(apply_map(s, (A,), unitary_rules(A, u1)), (A,), unitary_rules(A, u2))
            combined = apply_map(s, (A,), unitary_rules(A, u2 @ u1))
            assert states_close(seq, combined, 1e-12)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            s = random_state((A, ARM_B), rng)
            u = random_unitary(3, rng)
            out = apply_map(s, (ARM_B,), unitary_rules(ARM_B, u))
            assert out.norm2() == pytest.approx(1.0, abs=1e-12)


class TestPostselect:
    def test_uniform_two_label(self):
        s = PureState((A,), {("V",): SQ2, ("H",): SQ2})
        p, post = postselect(s, A, "V")
        assert p == pytest.approx(0.5, abs=1e-12)
        assert post.amps == {("V",): pytest.approx(1.0)}

    def test_absent_symbol_keeps_state(self):
        s = product_state([(A, Qubit(("V", "H"), 0.6, 0.8)), (DB, "0")])
        p, post = postselect(s, DB, "0")
        assert p == pytest.approx(1.0, abs=1e-12)
        assert states_close(post, s, 1e-12)

    def test_empty_match(self):
        s = product_state([(DB, "0")])
        p, post = postselect(s, DB, "Y")
        assert p == 0.0
        assert post.amps == {}

    @settings(max_examples=40, deadline=None)
    @given(amplitudes())
    def test_completeness(self, amps):
        s = build_ab_state(amps)
        if s.norm2() < 1e-6:
            return
        total = sum(postselect(s, A, sym)[0] for sym in A.alphabet)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestFidelity:
    def test_self(self):
        rng = np.random.default_rng(3)
        s = random_state((A, B), rng)
        assert fidelity_up_to_phase(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        s = random_state((A, B), rng)
        t = np.exp(1j * math.pi / 7) * s
        assert fidelity_up_to_phase(s, t) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        s = PureState((A,), {("V",): 1.0})
        t = PureState((A,), {("H",): 1.0})
        assert fidelity_up_to_phase(s, t) == 0.0

    def test_mismatched_registers(self):
        s = PureState((A,), {("V",): 1.0})
        t = PureState((B,), {("P",): 1.0})
        with pytest.raises(ValueError):
            fidelity_up_to_phase(s, t)


class TestEntanglementEntropy:
    def test_product_state(self):
        s = product_state([(A, Qubit(("V", "H"), 0.6, 0.8)), (B, Qubit.balanced(("P", "B")))])
        assert entanglement_entropy(s, [A]) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair(self):
        s = PureState((A, B), {("V", "P"): SQ2, ("H", "B"): SQ2})
        assert entanglement_entropy(s, [A]) == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_pair(self):
        # Schmidt weights 0.64 / 0.36: binary entropy of 0.64
        s = PureState((A, B), {("H", "P"): 0.8, ("V", "B"): 0.6})
        expected = -(0.64 * math.log2(0.64) + 0.36 * math.log2(0.36))
        assert entanglement_entropy(s, [A]) == pytest.approx(expected, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(5)
        s = random_state((A, B, DB), rng)
        assert entanglement_entropy(s, [A]) == pytest.approx(
            entanglement_entropy(s, [B, DB]), abs=1e-10
        )

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_state((A, B), rng)
            base = entanglement_entropy(s, [A])
            ua = unitary_rules(A, random_unitary(2, rng))
            ub = unitary_rules(B, random_unitary(2, rng))
            rotated = apply_map(apply_map(s, (A,), ua), (B,), ub)
            assert entanglement_entropy(rotated, [A]) == pytest.approx(base, abs=1e-10)

    def test_bad_partitions(self):
        s = PureState((A, B), {("V", "P"): 1.0})
        with pytest.raises(ValueError):
            entanglement_entropy(s, [])
        with pytest.raises(ValueError):
            entanglement_entropy(s, [A, B])
        with pytest.raises(ValueError):
            entanglement_entropy(s, [DB])


class TestStateUtilities:
    def test_restrict_drops_correlated_register(self):
        s = PureState((A, B, DB), {("V", "P", "0"): 0.6, ("H", "B", "0"): 0.8})
        out = s.restrict((A, B))
        assert out.amps == {("V", "P"): 0.6 + 0j, ("H", "B"): 0.8 + 0j}

    def test_restrict_functional_tag(self):
        # tag is determined by the kept label, so dropping it is coherent
        s = PureState((A, DB), {("V", "0"): SQ2, ("H", "Y"): SQ2})
        out = s.restrict((A,))
        assert out.amps[("V",)] == pytest.approx(SQ2)

    def test_restrict_rejects_independent_info(self):
        s = PureState((A, DB), {("V", "0"): 0.5, ("V", "Y"): 0.5})
        with pytest.raises(ValueError):
            s.restrict((A,))

    def test_tensor(self):
        s = PureState((A,), {("V",): 0.6, ("H",): 0.8})
        t = PureState((B,), {("P",): 1.0})
        st_ = s.tensor(t)
        assert st_.amps == {("V", "P"): 0.6 + 0j, ("H", "P"): 0.8 + 0j}
        with pytest.raises(ValueError):
            s.tensor(s)

    def test_sector_is_unnormalized_projection(self):
        s = PureState((A,), {("V",): 0.6, ("H",): 0.8})
        out = sector(s, A, ("H",))
        assert out.amps == {("H",): 0.8 + 0j}
        assert out.norm2() == pytest.approx(0.64)

    def test_to_text_sorted_and_stable(self):
        s = PureState((A, B), {("V", "P"): 0.5, ("H", "B"): -0.5j})
        text = s.to_text()
        assert text.splitlines() == ["H,B : -0 + -0.5i", "V,P : 0.5 + 0i"]
        assert s.to_text() == text

    def test_pruning(self):
        s = PureState((A,), {("V",): 1.0, ("H",): 1e-16})
        assert ("H",) not in s.amps

    def test_normalize_zero_state(self):
        with pytest.raises(ValueError):
            PureState((A,), {}).normalized()


class TestComplexLiterals:
    @pytest.mark.parametrize("z", [0.5 + 0j, -0.25 + 0.75j, 1j, 0j])
    def test_round_trip(self, z):
        assert parse_complex(format_complex(z)) == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("text", ["abc", "1,2,3", "", "1;2"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)


# Registers for the trusted-path properties: alphabets of size 2, 2, 2, 3.
PROP_REGS = (A, B, DB, ARM_B)
COEFFS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def labeled_states(draw, registers=PROP_REGS):
    """Any sparse state over ``registers``, built through the public constructor."""
    labels = list(itertools.product(*(r.alphabet for r in registers)))
    chosen = draw(st.lists(st.sampled_from(labels), unique=True, max_size=len(labels)))
    amps = draw(st.lists(COEFFS, min_size=len(chosen), max_size=len(chosen)))
    return PureState(registers, dict(zip(chosen, amps)))


@st.composite
def map_rules(draw):
    """Registers to act on and sparse rules over their joint alphabet."""
    on = tuple(draw(st.lists(st.sampled_from(PROP_REGS), unique=True, min_size=1, max_size=3)))
    patterns = list(itertools.product(*(r.alphabet for r in on)))
    inputs = draw(st.lists(st.sampled_from(patterns), unique=True, max_size=len(patterns)))
    branch = st.tuples(st.sampled_from(patterns), COEFFS)
    rules = {p: draw(st.lists(branch, max_size=3)) for p in inputs}
    return on, rules


def assert_publicly_valid(s: PureState) -> None:
    """The public constructor accepts ``s`` as it stands and rebuilds it equal."""
    rebuilt = PureState(s.registers, s.amps)
    assert rebuilt.registers == s.registers
    assert rebuilt.amps == s.amps
    assert all(type(l) is tuple and isinstance(a, complex) for l, a in s.amps.items())
    assert all(abs(a) >= PRUNE_TOL for a in s.amps.values())


class TestTrustedPath:
    """Every internally built state would pass the public constructor's checks."""

    @settings(max_examples=60, deadline=None)
    @given(labeled_states(), map_rules())
    def test_apply_map(self, s, on_rules):
        on, rules = on_rules
        assert_publicly_valid(apply_map(s, on, rules))

    @settings(max_examples=60, deadline=None)
    @given(labeled_states(), st.sampled_from(PROP_REGS), st.data())
    def test_sector_and_restrict(self, s, reg, data):
        symbols = data.draw(st.lists(st.sampled_from(reg.alphabet), unique=True))
        assert_publicly_valid(sector(s, reg, symbols))
        # a register fixed to one symbol carries no information: drop it
        fixed = sector(s, reg, symbols[:1])
        keep = [r for r in PROP_REGS if r != reg]
        keep = data.draw(st.permutations(keep))
        assert_publicly_valid(fixed.restrict(keep))
        assert_publicly_valid(s.restrict(data.draw(st.permutations(PROP_REGS))))

    @settings(max_examples=60, deadline=None)
    @given(labeled_states(), labeled_states(), COEFFS)
    def test_algebra(self, s, t, scalar):
        assert_publicly_valid(s + t)
        assert_publicly_valid(s - t)
        assert_publicly_valid(s * scalar)
        assert_publicly_valid(scalar * s)
        if s.norm() >= PRUNE_TOL:
            assert_publicly_valid(s.normalized())

    @settings(max_examples=60, deadline=None)
    @given(labeled_states((A, B)), labeled_states((DB, ARM_B, ARM_A)))
    def test_tensor(self, s, t):
        assert_publicly_valid(s.tensor(t))
        assert_publicly_valid(t.tensor(s))

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="duplicate"):
            PureState((A, A), {})
        with pytest.raises(ValueError, match="outside alphabet"):
            PureState((A, B), {("V", "V"): 1.0})
        with pytest.raises(ValueError, match="does not match"):
            PureState((A, B), {("V",): 1.0})

    def test_restrict_rejects_duplicate_registers(self):
        s = PureState((A, B), {("V", "P"): 1.0})
        with pytest.raises(ValueError, match="duplicate"):
            s.restrict((A, A))

