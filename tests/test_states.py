import cmath
import contextlib
import copy
import importlib
import itertools
import math
import pickle
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    AMPLITUDES,
    TINY_AMPLITUDES,
    TINY_MAGNITUDES,
    applied,
    map_labels_reference,
    random_state,
    random_unitary,
    restrict_reference,
    state_sum,
    states_close,
    tensor,
    unitary_rules,
)
from exact import abs2, entropy_bits, within_one_unit
import cfqsim
from cfqsim import cli, states
from cfqsim.costs import cost_profile, monte_carlo
from cfqsim.michelson import BeamSplitter, RoundConfig, closed_form_probs, round_record, run_round, run_scqkd_round
from cfqsim.star import StarConfig, cat_fidelity, run_star
from cfqsim.states import (
    PureState,
    Qubit,
    Register,
    _map_labels,
    apply_map,
    entanglement_entropy,
    fidelity_up_to_phase,
    postselect,
    product_state,
    sector,
)
from cfqsim.transfer import transfer_alice_to_bob, transfer_bob_to_alice, transfer_without_correction
from cfqsim.zeno import ChainConfig, run_chain

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


# Each validated value type: a valid instance, one field, a value that
# its __new__ rejects and the start of that error's message.
BAL_VH = Qubit.balanced(("V", "H"))
BAL_PB = Qubit.balanced(("P", "B"))
VALIDATED = [
    (Register("arm_a", 1), "kind", "flux_capacitor", "unknown register kind"),
    (Qubit(("V", "H"), 0.6, 0.8), "amp0", 2.0, "qubit amplitudes not normalized"),
    (BeamSplitter(0.5), "R", 1.5, "reflectance must lie"),
    (RoundConfig(BeamSplitter(0.5), BAL_VH, BAL_PB), "variant", "bogus", "unknown variant"),
    (StarConfig(BeamSplitter(0.5), (BAL_VH,), BAL_PB), "alices", (), "a star needs"),
    (ChainConfig(L=10), "layers", 0, "layer count"),
]


def _pickled(value, protocol):
    return pickle.loads(pickle.dumps(value, protocol))


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
REBUILDS = [copy.copy, copy.deepcopy] + [lambda v, p=p: _pickled(v, p) for p in PROTOCOLS]
REBUILD_IDS = ["copy", "deepcopy"] + [f"pickle{p}" for p in PROTOCOLS]


@pytest.mark.parametrize("value, field, bad, message", VALIDATED, ids=[type(v[0]).__name__ for v in VALIDATED])
class TestValidatedTuple:
    """Every construction path of a validated named tuple runs its checks."""

    def test_constructor(self, value, field, bad, message):
        with pytest.raises(ValueError, match=message):
            type(value)(**{**value._asdict(), field: bad})

    def test_replace_and_make(self, value, field, bad, message):
        with pytest.raises(ValueError, match=message):
            value._replace(**{field: bad})
        with pytest.raises(ValueError, match=message):
            type(value)._make({**value._asdict(), field: bad}.values())

    @pytest.mark.parametrize("rebuild", REBUILDS, ids=REBUILD_IDS)
    def test_copies_and_pickles(self, value, field, bad, message, rebuild):
        rebuilt = rebuild(value)
        assert rebuilt == value and type(rebuilt) is type(value)
        corrupt = tuple.__new__(type(value), {**value._asdict(), field: bad}.values())
        with pytest.raises(ValueError, match=message):
            rebuild(corrupt)


def _value_types():
    """One instance of every value type: validated types and result records."""
    config = RoundConfig(BeamSplitter(0.5), BAL_VH, BAL_PB)
    records = [
        run_round(config)[0],
        run_star(StarConfig(BeamSplitter(0.5), (BAL_VH, BAL_VH), BAL_PB)),
        run_chain(ChainConfig(L=10)),
        transfer_alice_to_bob(Qubit(("V", "H"), 0.6, 0.8), BeamSplitter(0.5), "V"),
        cost_profile(0.5),
        monte_carlo(0.5, 10, 1),
    ]
    return [v[0] for v in VALIDATED] + records


@pytest.mark.parametrize("value", _value_types(), ids=lambda v: type(v).__name__)
def test_value_fields_are_read_only(value):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


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

    def test_duplicate_register(self):
        """A register named twice in ``on`` would get two output symbols,
        one of which must silently win: refused, as ``restrict`` does."""
        s = product_state([(A, "V"), (B, "P")])
        with pytest.raises(ValueError, match="duplicate"):
            apply_map(s, (A, A), {("V", "V"): [(("V", "H"), 1.0)]})
        with pytest.raises(ValueError, match="duplicate"):
            apply_map(s, (A, B, ("device_a", 0)), {})

    @pytest.mark.parametrize("out_pat", [["H"], "H"])
    def test_output_pattern_not_a_tuple(self, out_pat):
        s = product_state([(A, "V")])
        with pytest.raises(ValueError, match="not a tuple"):
            apply_map(s, (A,), {("V",): [(out_pat, 1.0)]})

    @settings(max_examples=40, deadline=None)
    @given(amplitudes(), amplitudes())
    def test_linearity(self, amps_s, amps_t):
        s, t = build_ab_state(amps_s), build_ab_state(amps_t)
        rules = {
            ("V", "P"): [(("H", "P"), 0.3j), (("V", "B"), 0.7)],
            ("H", "B"): [],
        }
        lhs = apply_map(state_sum(s, t), (A, B), rules)
        rhs = state_sum(apply_map(s, (A, B), rules), apply_map(t, (A, B), rules))
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
        t = s * cmath.exp(1j * math.pi / 7)
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
# multi-register partitions have 3 to 15 distinct labels on both sides.
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
# Wide sides of up to 15 labels, and registers for a side with two labels.
WIDE_SIDES = ((ARM_A,), (DET0,), (ARM_A, ARM_A1), (DET0, ARM_A1), (ARM_A, DET1))
TWO_LABEL_REGS = (A, ARM_B, Register("alice_detector", 2))
RANK_ABOVE_TWO = "two distinct labels"


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
    m /= np.abs(m).max()  # amplitudes down to 1e-300 have a norm**2 that underflows
    m /= np.linalg.norm(m)
    p = np.linalg.svd(m, compute_uv=False) ** 2
    p = p[p > 1e-15]  # numpy's own rounding leaves singular values of about 1e-16
    p = p / p.sum()
    return float(-(p * np.log2(p)).sum()) + 0.0


def locally_rotated(state: PureState, rng) -> PureState:
    """The state after an independent random unitary on every register."""
    for reg in state.registers:
        state = apply_map(state, (reg,), unitary_rules(reg, random_unitary(len(reg.alphabet), rng)))
    return state


def schmidt_pair(weights) -> PureState:
    """sum_k sqrt(w_k) |k>|k> over device_a x device_b (up to 2 weights),
    arm_a x arm_a (up to 3) or detector x detector (up to 5): Schmidt
    weights exactly ``weights``."""
    d = len(weights)
    left, right = (A, B) if d <= 2 else (ARM_A, ARM_A1) if d <= 3 else (DET0, DET1)
    amps = {
        (left.alphabet[k], right.alphabet[k]): math.sqrt(w) for k, w in enumerate(weights)
    }
    return PureState((left, right), amps)


def schmidt_state(weights, rng) -> PureState:
    """``schmidt_pair`` after random local unitaries: same Schmidt weights."""
    return locally_rotated(schmidt_pair(weights), rng)


def assert_rank_above_two_rejected(state: PureState, partition) -> None:
    rest = [r for r in state.registers if r not in partition]
    for side in (partition, rest):
        with pytest.raises(ValueError, match=RANK_ABOVE_TWO):
            entanglement_entropy(state, side)


class TestEntropyAgainstSvd:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(TWO_LABEL_REGS),
        st.sampled_from(WIDE_SIDES),
        st.integers(0, 2),
        st.tuples(st.floats(-300.0, 0.0), st.floats(-300.0, 0.0)),
        st.tuples(st.floats(-12.0, 0.0), st.floats(-12.0, 0.0)),
        st.floats(0.0, 0.6),
    )
    def test_random_states_match_svd(self, seed, two, wide, at, log_amps, log_mix, sparsity):
        """alpha|x>|u> + beta|y>|w>: a register holding two of its symbols
        against up to 15 labels, with |alpha|, |beta| down to 1e-300 and
        complex branches w = c u + e r (r orthogonal to u) from nearly
        parallel to nearly orthogonal, |c| and |e| in [1e-12, 1]."""
        rng = np.random.default_rng(seed)
        registers = wide[:at] + (two,) + wide[at:]
        x, y = rng.choice(len(two.alphabet), size=2, replace=False)
        labels = list(itertools.product(*(r.alphabet for r in wide)))
        u = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        r = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        r -= np.vdot(u, r) / np.vdot(u, u) * u
        c, e = (10.0**m * cmath.exp(2j * math.pi * rng.random()) for m in log_mix)
        w = c * u + e * r
        amps = {}
        for sym, log_amp, vec in ((x, log_amps[0], u), (y, log_amps[1], w)):
            coeff = 10.0**log_amp * cmath.exp(2j * math.pi * rng.random())
            for label, a in zip(labels, vec):
                if rng.random() >= sparsity:
                    amps[label[:at] + (two.alphabet[sym],) + label[at:]] = coeff * complex(a)
        s = PureState(registers, amps)
        assume(s.amps)
        for side in ((two,), wide):
            assert entanglement_entropy(s, side) == pytest.approx(svd_entropy(s, side), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDE_PARTITIONS))
    def test_complement_symmetry_above_two(self, seed, partition):
        """Both sides of a dense wide state have over two labels: both raise."""
        rng = np.random.default_rng(seed)
        s = random_state(WIDE_REGS, rng)
        assert_rank_above_two_rejected(s, partition)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equal_schmidt_weights(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(10):
            s = schmidt_state([1.0 / d] * d, rng)
            if d > 2:
                assert_rank_above_two_rejected(s, s.registers[:1])
                continue
            assert entanglement_entropy(s, s.registers[:1]) == pytest.approx(
                math.log2(d), abs=1e-12
            )
            assert entanglement_entropy(s, s.registers[:1]) == pytest.approx(
                svd_entropy(s, s.registers[:1]), abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDE_PARTITIONS))
    def test_product_states(self, seed, partition):
        """A product with a two-symbol factor: entropy 0 across that factor;
        the wide partitions have over two labels on both sides."""
        rng = np.random.default_rng(seed)
        factors = [random_state((reg,), rng) for reg in (A,) + WIDE_REGS]
        s = factors[0]
        for f in factors[1:]:
            s = tensor(s, f)
        for side in ((A,), WIDE_REGS):
            assert entanglement_entropy(s, side) == pytest.approx(0.0, abs=1e-12)
            assert entanglement_entropy(s, side) == pytest.approx(
                svd_entropy(s, side), abs=1e-12
            )
        assert_rank_above_two_rejected(s, partition)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_weight_near_prune_tol(self, d):
        above, below = 1.5e-15, 1e-15 / 1.5
        rest = [1.0 / (d - 1)] * (d - 1)
        for tiny in (above, below):
            weights = [w * (1.0 - tiny) for w in rest] + [tiny]
            s = schmidt_pair(weights)
            if d > 2:
                assert_rank_above_two_rejected(s, s.registers[:1])
                continue
            got = entanglement_entropy(s, s.registers[:1])
            # the tiny weight, kept however small, adds about 5e-14 bits on
            # either side of 1e-15: the state's own weights, exactly
            assert within_one_unit(got, entropy_bits(tuple(abs2(a) for a in s.amps.values())))
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

    def test_restrict_rejects_an_absent_register(self):
        s = PureState((A, DB), {("V", "0"): 0.6, ("H", "Y"): 0.8})
        with pytest.raises(ValueError, match="^restrict keeps a register absent from the state$"):
            s.restrict((A, B))

    def test_sector_rejects_an_absent_register(self):
        s = PureState((A, DB), {("V", "0"): 0.6, ("H", "Y"): 0.8})
        with pytest.raises(ValueError, match="^sector reads a register absent from the state$"):
            sector(s, B, ("P",))

    def test_postselect_rejects_an_absent_register(self):
        s = PureState((A, DB), {("V", "0"): 0.6, ("H", "Y"): 0.8})
        with pytest.raises(ValueError, match="^sector reads a register absent from the state$"):
            postselect(s, B, "P")

    def test_sector_is_unnormalized_projection(self):
        s = PureState((A,), {("V",): 0.6, ("H",): 0.8})
        out = sector(s, A, ("H",))
        assert out.amps == {("H",): 0.8 + 0j}
        assert out.norm2() == pytest.approx(0.64)

    def test_pruning(self):
        s = PureState((A,), {("V",): 1.0, ("H",): 1e-16})
        assert s.amps[("H",)] == 1e-16
        s = PureState((A,), {("V",): 1.0, ("H",): 0.0})
        assert ("H",) not in s.amps

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
    """Amplitude literals, which only the command line reads and prints:
    ``cli._round12`` writes 're' or 're,im', ``cli.parse_qubit`` reads a pair."""

    @pytest.mark.parametrize("z", [0.5 + 0j, -0.25 + 0.75j, 1j, 0j])
    def test_round_trip(self, z):
        partner = complex(math.sqrt(1.0 - abs(z) ** 2))
        qubit = cli.parse_qubit(("V", "H"), [cli._round12(z), cli._round12(partner)], "--alice")
        assert qubit.amp0 == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("text", ["abc", "1,2,3", "", "1;2"])
    def test_malformed(self, text):
        with pytest.raises(ValueError, match="malformed"):
            cli.parse_qubit(("V", "H"), [text, "1"], "--alice")


# Registers for the trusted-path properties: alphabets of size 2, 2, 2, 3.
PROP_REGS = (A, B, DB, ARM_B)
COEFFS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def labeled_states(draw, registers=PROP_REGS, coeffs=COEFFS):
    """Any sparse state over ``registers``, built through the public constructor."""
    labels = list(itertools.product(*(r.alphabet for r in registers)))
    chosen = draw(st.lists(st.sampled_from(labels), unique=True, max_size=len(labels)))
    amps = draw(st.lists(coeffs, min_size=len(chosen), max_size=len(chosen)))
    return PureState(registers, dict(zip(chosen, amps)))


@st.composite
def map_rules(draw, coeffs=COEFFS):
    """Registers to act on and sparse rules over their joint alphabet."""
    on = tuple(draw(st.lists(st.sampled_from(PROP_REGS), unique=True, min_size=1, max_size=3)))
    patterns = list(itertools.product(*(r.alphabet for r in on)))
    inputs = draw(st.lists(st.sampled_from(patterns), unique=True, max_size=len(patterns)))
    branch = st.tuples(st.sampled_from(patterns), coeffs)
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
    @given(labeled_states(), COEFFS)
    def test_algebra(self, s, scalar):
        assert_publicly_valid(s * scalar)
        if s.amps:
            assert_publicly_valid(s.normalized())

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


# ---- ownership: PureState._trusted keeps the dict it is handed

# A qubit with a TINY_MAGNITUDES magnitude on either symbol, its partner
# making the pair unit norm.
TINY_QUBITS = st.builds(
    lambda m, phase, swap: (m * phase, complex(math.sqrt(1.0 - m * m)))[::swap],
    TINY_MAGNITUDES.filter(lambda m: m <= 1.0),
    st.sampled_from((1 + 0j, -1j, 0.6 + 0.8j)),
    st.sampled_from((1, -1)),
)


def kernel_results(s, on_rules, scalar, data):
    """``applied`` to each kernel operation that derives a state from ``s``."""
    on, rules = on_rules
    reg = data.draw(st.sampled_from(PROP_REGS))
    symbols = data.draw(st.lists(st.sampled_from(reg.alphabet), unique=True, min_size=1))
    fixed = sector(s, reg, symbols[:1])
    ops = [
        ("sector", s, lambda t: sector(t, reg, symbols)),
        ("*", s, lambda t: t * scalar),
        ("restrict", s, lambda t: t.restrict(data.draw(st.permutations(PROP_REGS)))),
        ("restrict, one register dropped", fixed, lambda t: t.restrict([r for r in PROP_REGS if r != reg])),
        ("apply_map", s, lambda t: apply_map(t, on, rules)),
        ("postselect", s, lambda t: postselect(t, reg, symbols[0])[1]),
    ]
    if s.amps:
        ops.append(("normalized", s, PureState.normalized))
    return applied(ops)


def product_parts(qubits):
    """``product_state`` parts: a device_a and a device_b qubit, then a fixed symbol."""
    (a0, a1), (b0, b1) = qubits
    return [(A, Qubit(("V", "H"), a0, a1)), (B, Qubit(("P", "B"), b0, b1)), (DB, "0")]


OWNED = (
    labeled_states(coeffs=TINY_AMPLITUDES),
    map_rules(coeffs=TINY_AMPLITUDES),
    TINY_AMPLITUDES,
    st.tuples(TINY_QUBITS, TINY_QUBITS),
    st.data(),
)


@settings(max_examples=300, deadline=None)
@given(*OWNED)
def test_derived_states_own_their_amplitudes(s, on_rules, scalar, qubits, data):
    # _trusted keeps the dict it is handed: an operation that passed on its
    # input's amps would alias them, and one that edited them would mutate
    # its input
    for name, unchanged, shared, out in kernel_results(s, on_rules, scalar, data):
        assert unchanged and not shared, name
    parts = product_parts(qubits)
    first, second = product_state(parts), product_state(parts)
    assert first.amps is not second.amps
    assert list(first.amps.items()) == list(second.amps.items())


@settings(max_examples=300, deadline=None)
@given(*OWNED)
def test_derived_states_hold_no_exact_zero(s, on_rules, scalar, qubits, data):
    # products that underflow to 0j and quotients a / n that round to 0
    # must be dropped, as the public constructor drops an exact zero
    for name, _, _, out in kernel_results(s, on_rules, scalar, data):
        assert all(out.amps.values()), (name, out.amps)
    assert all(product_state(product_parts(qubits)).amps.values())


# ---- restrict against its reference: positions looked up on every call

# Eight registers with alphabets of 2 to 5 symbols; a state takes 1-6 of them.
RESTRICT_REGS = (A, B, DB, ARM_A, ARM_B, Register("alice_detector"), Register("device_a", 1), Register("zeno_mode"))


@st.composite
def restrict_cases(draw):
    """A sparse state over 1-6 registers in random order, amplitudes down
    to 1e-300, and a keep tuple of any size (empty and all included) in
    random order."""
    registers = tuple(draw(st.lists(st.sampled_from(RESTRICT_REGS), unique=True, min_size=1, max_size=6)))
    label = st.tuples(*(st.sampled_from(r.alphabet) for r in registers))
    labels = draw(st.lists(label, unique=True, max_size=10))
    state = PureState(registers, {l: draw(AMPLITUDES) for l in labels})
    keep = draw(st.permutations(registers))[: draw(st.integers(min_value=0, max_value=len(registers)))]
    return state, tuple(keep)


def restricted_exactly(restrict, state, keep):
    """Registers and amplitude items in order, every float bit included, or
    the message of the ``ValueError`` raised."""
    try:
        out = restrict(state, keep)
    except ValueError as exc:
        return str(exc)
    return out.registers, repr(list(out.amps.items()))


ONE_LABEL = PureState((A, DB, ARM_B), {("H", "Y", "V"): 1e-300 - 2e-300j})
TAGGED = PureState((A, DB, ARM_B), {("V", "0", "vac"): 0.6, ("H", "Y", "vac"): 0.8j, ("H", "Y", "H"): 1e-300})


@settings(max_examples=400, deadline=None)
@given(restrict_cases())
@example((ONE_LABEL, ()))
@example((ONE_LABEL, (DB,)))
@example((ONE_LABEL, (ARM_B, A, DB)))
@example((TAGGED, ()))
@example((TAGGED, (ARM_B, A)))
@example((TAGGED, (A,)))
@example((TAGGED, (ARM_B, A, DB)))
def test_restrict_matches_its_reference(case):
    state, keep = case
    got = restricted_exactly(PureState.restrict, state, keep)
    assert got == restricted_exactly(restrict_reference, state, keep)
    assert got == restricted_exactly(PureState.restrict, state, list(keep))  # a list keep: the same plan


# ---- the label loop against its reference: rule keys built position by position

# Values whose sums cancel: opposite terms to an exact zero, 1 against
# -(1 + 2**-52) to a 2**-52 residue, which is kept.
CANCELLING = st.sampled_from((1.0, -1.0, 1j, -1j, 0.5, 1.0 + 2.0**-52, -(1.0 + 2.0**-52)))
MAP_VALUES = st.one_of(AMPLITUDES, CANCELLING)


@st.composite
def map_label_cases(draw):
    """A sparse state over 1-6 registers in random order, amplitudes down
    to 1e-300 or from ``CANCELLING``; distinct positions in any order,
    from none to all of them; and rules on some patterns there, mostly ones
    the labels carry, each fanning out into 0-4 branches.  Labels that
    match no rule pass."""
    registers = tuple(draw(st.lists(st.sampled_from(RESTRICT_REGS), unique=True, min_size=1, max_size=6)))
    label = st.tuples(*(st.sampled_from(r.alphabet) for r in registers))
    labels = draw(st.lists(label, unique=True, min_size=1, max_size=12))
    state = PureState(registers, {l: draw(MAP_VALUES) for l in labels})
    idx = tuple(draw(st.permutations(range(len(registers))))[: draw(st.integers(0, len(registers)))])
    any_pattern = st.tuples(*(st.sampled_from(registers[i].alphabet) for i in idx))
    pattern = st.one_of(st.sampled_from([tuple(l[i] for i in idx) for l in labels]), any_pattern)
    rules = draw(st.dictionaries(pattern, st.lists(st.tuples(pattern, MAP_VALUES), max_size=4), max_size=6))
    return state, idx, rules


def mapped_exactly(loop, state, idx, rules):
    """Registers, and the labels in order with both parts of each amplitude
    as ``float.hex``, so that every bit and the sign of a zero count."""
    out = loop(state, idx, rules)
    return out.registers, [(label, a.real.hex(), a.imag.hex()) for label, a in out.amps.items()]


TWO = PureState((A,), {("V",): 1.0, ("H",): 1.0})
LINK = PureState((B, ARM_B, DB), {("P", "H", "0"): 1e-300, ("B", "V", "0"): -1e-300j, ("P", "vac", "Y"): 1e-300})
FOUR = PureState((A, B, ARM_B, DB), {("V", "P", "H", "0"): 0.6, ("H", "B", "vac", "0"): -0.8j})


@settings(max_examples=400, deadline=None)
@given(map_label_cases())
@example((TWO, (0,), {("H",): [(("V",), -1.0)]}))  # a passing label cancelled to zero
@example((TWO, (0,), {("V",): [(("V",), 1.0)], ("H",): [(("V",), -(1.0 + 2.0**-52))]}))  # to 2**-52, kept
@example((TWO, (), {(): [((), 1j), ((), 0.5)]}))  # no positions: one rule for every label
@example((LINK, (2, 0, 1), {("0", "P", "H"): [(("Y", "P", "vac"), -1.0)], ("0", "B", "V"): [(("Y", "P", "vac"), 1j)]}))
@example((FOUR, (3, 1, 0, 2), {("0", "P", "V", "H"): [(("Y", "B", "H", "vac"), 1.0), (("0", "P", "V", "V"), -0.5j)]}))  # all positions, unsorted
@example((FOUR, (2,), {("vac",): [(("H",), 1j)], ("H",): [(("vac",), 1.0)]}))  # one position
def test_map_labels_matches_its_reference(case):
    """``_map_labels``, which splices each output label from the input
    label and the output pattern, against the reference's symbol-by-symbol
    build: the same labels in the same order, every amplitude bit for bit."""
    state, idx, rules = case
    assert mapped_exactly(_map_labels, state, idx, rules) == mapped_exactly(map_labels_reference, state, idx, rules)


# ---- the checked library API stays off the runtime path

# The library API that the tests' references use and no runtime path calls:
# the maps run ``_map_labels``, the rounds and transfers restrict through
# ``_restricted``.
REFERENCE_API = {
    "product_state": states.product_state,
    "apply_map": states.apply_map,
    "sector": states.sector,
    "postselect": states.postselect,
    "restrict": PureState.restrict,
}


def _refused(*args, **kwargs):
    raise AssertionError("a runtime path called the reference API")


def test_no_runtime_path_runs_the_reference_api(capsys):
    """The rounds, the transfers, the star, the chain and the CLI give their
    answers with ``product_state``, ``apply_map``, ``sector``,
    ``postselect`` and ``PureState.restrict`` patched to raise, and no
    ``cfqsim`` module but ``states`` binds any of them."""
    bs = BeamSplitter(0.2 + 0.1 * math.pi)  # a fresh R: the rounds build their table under the patch
    alice, bob = Qubit(("V", "H"), 0.6, 0.8j), Qubit(("P", "B"), 0.8, -0.6)
    pb = Qubit.balanced(("pass", "block"))
    with contextlib.ExitStack() as patches:
        for name in REFERENCE_API:
            owner = PureState if name == "restrict" else states
            patches.enter_context(mock.patch.object(owner, name, _refused))
        records = [round_record(RoundConfig(bs, alice, bob, variant)) for variant in ("N09", "ScQKD")]
        split = run_round(RoundConfig(bs, alice, bob), split_detector_polarization=True)
        scqkd = run_scqkd_round(pb, pb, bs)
        transfers = [transfer_alice_to_bob(alice, bs, "V"), transfer_bob_to_alice(bob, bs, "B")]
        uncorrected = transfer_without_correction(alice)
        star = run_star(StarConfig(bs, (alice, Qubit.balanced(("V", "H"))), Qubit.balanced(("P", "B"))))
        fidelity = cat_fidelity(star)
        chain = run_chain(ChainConfig(40, layers=2))
        for argv in ("round --R 0.37", "scqkd --R 0.37", "table --R 0.37", "star --R 0.37 --N 3",
                     "czqe --L 40 --N 2", "qst --R 0.37 --payload 0.6 0,0.8"):
            assert cli.main(argv.split()) == 0, argv
    capsys.readouterr()
    assert records[0]["P_D1"] == pytest.approx(closed_form_probs(RoundConfig(bs, alice, bob)).P_D1, rel=1e-12)
    for outcomes in ([records[1][f"P_{o}"] for o in ("D1", "D2", "DB")], [o.probability for o in split],
                     [o.probability for o in scqkd]):
        assert sum(outcomes) == pytest.approx(1.0, abs=1e-12)
    assert [t.fidelity for t in transfers] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert 0.5 <= uncorrected < 1.0
    assert star.yield_probability > 0.0 and 0.0 < fidelity <= 1.0
    assert 0.0 < chain.survival <= 1.0
    for info in pkgutil.iter_modules(cfqsim.__path__):
        if info.name != "states":
            bound = vars(importlib.import_module(f"cfqsim.{info.name}"))
            assert not set(REFERENCE_API) & set(bound), info.name
            assert not any(any(v is f for f in REFERENCE_API.values()) for v in bound.values()), info.name
