import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    def test_fields_and_tuple_identity(self):
        reg = Register("arm_a", 2)
        assert (reg.kind, reg.index, reg.alphabet) == ("arm_a", 2, ("vac", "V", "H"))
        assert reg == ("arm_a", 2) and hash(reg) == hash(("arm_a", 2))
        assert repr(reg) == "arm_a[2]"
        assert copy.deepcopy(reg) == reg and type(copy.deepcopy(reg)) is Register
        assert pickle.loads(pickle.dumps(reg)) == reg
        with pytest.raises(AttributeError):
            reg.extra = 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda r: PureState((r,), {}),
            lambda r: PureState((r,), {("V",): 1.0}),
            lambda r: product_state([(r, "V")]),
            lambda r: product_state([(r, Qubit.balanced(("V", "H")))]),
            lambda r: product_state([(A, "V")]).restrict((r,)),
        ],
    )
    def test_bare_tuple_is_not_a_register(self, build):
        with pytest.raises(ValueError, match="Register"):
            build(("device_a", 0))

    def test_bare_tuple_looks_up_its_equal_register(self):
        state = product_state([(A, Qubit.balanced(("V", "H"))), (B, "P")])
        flipped = apply_map(state, [("device_a", 0)], {("V",): [(("H",), 1.0)]})
        assert flipped.amps == {("H", "P"): pytest.approx(2 * SQ2)}
        assert sector(state, ("device_a", 0), ("V",)).amps == {("V", "P"): pytest.approx(SQ2)}


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

    @pytest.mark.parametrize("amp0, amp1", [(1e200, 0.0), (0.0, complex(1e155, 1e155))])
    def test_overflowing_norm_rejected(self, amp0, amp1):
        with pytest.raises(ValueError, match="normalized"):
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


# Registers with the 3-symbol arm and 5-symbol detector alphabets, so
# multi-register partitions give Gram matrices of dimension 3 to 15.
ARM_A1 = Register("arm_a", 1)
DET0 = Register("alice_detector", 0)
DET1 = Register("alice_detector", 1)
WIDE_REGS = (ARM_A, DET0, ARM_A1, DET1)
WIDE_PARTITIONS = (
    (ARM_A,),  # d = 3
    (DET0,),  # d = 5
    (ARM_A, ARM_A1),  # d = 9
    (ARM_A, DET0),  # d = 15
    (DET0, ARM_A1),  # d = 15
    (ARM_A, DET1),  # d = 15
)


def svd_entropy(state: PureState, partition) -> float:
    """Test oracle: the entropy from numpy's singular values."""
    part = set(partition)
    row_idx = [i for i, r in enumerate(state.registers) if r in part]
    col_idx = [i for i, r in enumerate(state.registers) if r not in part]
    rows = sorted({tuple(l[i] for i in row_idx) for l in state.amps})
    cols = sorted({tuple(l[i] for i in col_idx) for l in state.amps})
    m = np.zeros((len(rows), len(cols)), dtype=complex)
    for label, amp in state.amps.items():
        r = rows.index(tuple(label[i] for i in row_idx))
        m[r, cols.index(tuple(label[i] for i in col_idx))] = amp
    m /= state.norm()
    p = np.linalg.svd(m, compute_uv=False) ** 2
    p = p[p > PRUNE_TOL]
    p = p / p.sum()
    return float(-(p * np.log2(p)).sum()) + 0.0


def schmidt_dimension(state: PureState, partition) -> int:
    part = set(partition)
    rows = {tuple(s for s, r in zip(l, state.registers) if r in part) for l in state.amps}
    cols = {tuple(s for s, r in zip(l, state.registers) if r not in part) for l in state.amps}
    return min(len(rows), len(cols))


def locally_rotated(state: PureState, rng) -> PureState:
    """The state after an independent random unitary on every register."""
    for reg in state.registers:
        state = apply_map(state, (reg,), unitary_rules(reg, random_unitary(len(reg.alphabet), rng)))
    return state


def schmidt_pair(weights) -> PureState:
    """sum_k sqrt(w_k) |k>|k> over arm_a x arm_a (up to 3 weights) or
    detector x detector (up to 5): Schmidt weights exactly ``weights``."""
    left, right = (ARM_A, ARM_A1) if len(weights) <= 3 else (DET0, DET1)
    amps = {
        (left.alphabet[k], right.alphabet[k]): math.sqrt(w) for k, w in enumerate(weights)
    }
    return PureState((left, right), amps)


def schmidt_state(weights, rng) -> PureState:
    """``schmidt_pair`` after random local unitaries: same Schmidt weights."""
    return locally_rotated(schmidt_pair(weights), rng)


class TestEntropyAgainstSvd:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(WIDE_PARTITIONS),
        st.floats(0.0, 0.6),
    )
    def test_random_states_match_svd(self, seed, partition, sparsity):
        rng = np.random.default_rng(seed)
        s = random_state(WIDE_REGS, rng)
        keep = {l: a for l, a in s.amps.items() if rng.random() >= sparsity}
        s = PureState(WIDE_REGS, keep)
        assume(s.norm2() > 1e-6 and schmidt_dimension(s, partition) > 2)
        assert entanglement_entropy(s, partition) == pytest.approx(
            svd_entropy(s, partition), abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDE_PARTITIONS))
    def test_complement_symmetry_above_two(self, seed, partition):
        s = random_state(WIDE_REGS, np.random.default_rng(seed))
        rest = [r for r in WIDE_REGS if r not in partition]
        assert schmidt_dimension(s, partition) > 2
        assert entanglement_entropy(s, partition) == pytest.approx(
            entanglement_entropy(s, rest), abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equal_schmidt_weights(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(10):
            s = schmidt_state([1.0 / d] * d, rng)
            assert entanglement_entropy(s, s.registers[:1]) == pytest.approx(
                math.log2(d), abs=1e-12
            )
            assert entanglement_entropy(s, s.registers[:1]) == pytest.approx(
                svd_entropy(s, s.registers[:1]), abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDE_PARTITIONS))
    def test_product_states(self, seed, partition):
        rng = np.random.default_rng(seed)
        factors = [random_state((reg,), rng) for reg in WIDE_REGS]
        s = factors[0]
        for f in factors[1:]:
            s = s.tensor(f)
        assert entanglement_entropy(s, partition) == pytest.approx(0.0, abs=1e-12)
        assert entanglement_entropy(s, partition) == pytest.approx(
            svd_entropy(s, partition), abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_weight_near_prune_tol(self, d):
        above, below = 1.5 * PRUNE_TOL, PRUNE_TOL / 1.5
        rest = [1.0 / (d - 1)] * (d - 1)
        for tiny in (above, below):
            weights = [w * (1.0 - tiny) for w in rest] + [tiny]
            s = schmidt_pair(weights)
            kept = [w for w in weights if w > PRUNE_TOL]
            expected = -sum(w / sum(kept) * math.log2(w / sum(kept)) for w in kept)
            got = entanglement_entropy(s, s.registers[:1])
            # the tiny weight adds about 5e-14 bits: kept above PRUNE_TOL only
            assert got == pytest.approx(expected, abs=1e-14)
            assert got == pytest.approx(svd_entropy(s, s.registers[:1]), abs=1e-12)
            rotated = schmidt_state(weights, np.random.default_rng(9))
            assert entanglement_entropy(rotated, rotated.registers[:1]) == pytest.approx(
                svd_entropy(rotated, rotated.registers[:1]), abs=1e-12
            )


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
        assert s.amps[("H",)] == 1e-16
        s = PureState((A,), {("V",): 1.0, ("H",): 0.0})
        assert ("H",) not in s.amps

    def test_cancellation_dust_dropped(self):
        c, s_ = math.cos(math.pi / 4), math.sin(math.pi / 4)
        assert c * c - s_ * s_ != 0.0  # one rounding step apart
        quarter = {("V",): [(("V",), c), (("H",), s_)], ("H",): [(("V",), -s_), (("H",), c)]}
        s = PureState((A,), {("V",): 1.0})
        out = apply_map(apply_map(s, (A,), quarter), (A,), quarter)
        assert set(out.amps) == {("H",)}
        assert (s - 0.9999999999999999 * s).amps == {}
        assert set((s + PureState((A,), {("H",): 1e-300})).amps) == {("V",), ("H",)}

    def test_single_tiny_term_kept(self):
        s = PureState((A, B), {("V", "P"): 1.0})
        out = apply_map(s, (B,), {("P",): [(("P",), 1e-200), (("B",), 1.0)]})
        assert out.amps[("V", "P")] == 1e-200
        assert apply_map(s, (B,), {("P",): [(("P",), 1e-200 * 1e-200)]}).amps == {}

    def test_normalize_underflowing_norm(self):
        s = PureState((A,), {("V",): 3e-170, ("H",): 4e-170})
        assert s.norm2() == 0.0
        out = s.normalized()
        assert out.amps[("V",)] == pytest.approx(0.6, abs=1e-15)
        assert out.amps[("H",)] == pytest.approx(0.8, abs=1e-15)

    def test_normalize_zero_state(self):
        with pytest.raises(ValueError):
            PureState((A,), {}).normalized()


class TestUnderflowingNorm:
    """A state with labels whose norm**2 underflows to 0 is not zero."""

    s = PureState((A, B), {("V", "P"): 3e-170, ("H", "B"): 4e-170})

    def test_norm_underflows(self):
        assert self.s.norm2() == 0.0

    def test_fidelity(self):
        assert fidelity_up_to_phase(self.s, self.s) == pytest.approx(1.0, abs=1e-15)
        t = PureState((A, B), {("V", "P"): 0.6, ("H", "B"): 0.8})
        assert fidelity_up_to_phase(self.s, t) == pytest.approx(1.0, abs=1e-15)
        assert fidelity_up_to_phase(t, self.s) == pytest.approx(1.0, abs=1e-15)

    def test_entropy(self):
        want = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))
        assert entanglement_entropy(self.s, [A]) == pytest.approx(want, abs=1e-12)

    def test_postselect(self):
        p, post = postselect(self.s, A, "V")
        assert p == pytest.approx(0.36, abs=1e-15)
        assert post.amps == {("V", "P"): pytest.approx(1.0 + 0j, abs=1e-15)}

    def test_empty_state_still_zero(self):
        empty = PureState((A, B), {})
        assert fidelity_up_to_phase(empty, self.s) == 0.0
        p, post = postselect(empty, A, "V")
        assert (p, post.amps) == (0.0, {})
        with pytest.raises(ValueError, match="zero state"):
            entanglement_entropy(empty, [A])


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
    assert all(a != 0 for a in s.amps.values())


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
        if s.amps:
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

