import csv
import math
import pathlib

import numpy as np
import pytest

from conftest import random_amplitude_pair
from cfqsim.michelson import BeamSplitter
from cfqsim.states import Qubit
from cfqsim.transfer import (
    transcript_record,
    transfer_alice_to_bob,
    transfer_bob_to_alice,
    transfer_without_correction,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "no_correction_fidelity.csv"


def payload_at(theta, phi=0.0):
    return Qubit(
        ("V", "H"),
        math.cos(theta / 2),
        math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi)),
    )


class TestForwardTransfer:
    def test_basis_payload_lands_on_flipped_symbol(self):
        payload = Qubit(("V", "H"), 1.0, 0.0)
        for branch in ("V", "H"):
            t = transfer_alice_to_bob(payload, BeamSplitter(0.5), branch)
            assert abs(t.receiver_state.amp1) == pytest.approx(1.0, abs=1e-12)  # lands on B
            assert t.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_balanced_payload(self):
        payload = Qubit.balanced(("V", "H"))
        t = transfer_alice_to_bob(payload, BeamSplitter(0.5), "H")
        assert t.fidelity == pytest.approx(1.0, abs=1e-12)
        assert abs(t.receiver_state.amp0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_complex_payload(self):
        payload = Qubit(("V", "H"), 0.6, 0.8j)
        t = transfer_alice_to_bob(payload, BeamSplitter(0.5), "V")
        assert t.fidelity == pytest.approx(1.0, abs=1e-12)
        # receiver holds 0.6|B> + 0.8i|P> up to a global phase
        ratio = t.receiver_state.amp1 / t.receiver_state.amp0
        assert ratio == pytest.approx(0.6 / 0.8j, abs=1e-12)

    def test_correction_table(self):
        payload = Qubit(("V", "H"), 0.6, 0.8)
        t_v = transfer_alice_to_bob(payload, BeamSplitter(0.5), "V")
        t_h = transfer_alice_to_bob(payload, BeamSplitter(0.5), "H")
        assert t_v.classical_bit == 1
        assert t_h.classical_bit == 0

    def test_smallest_reflectance(self):
        # P_D1 underflows to 0, yet the D1 posterior carries the shared pair
        payload = Qubit(("V", "H"), 0.6, 0.8)
        for branch in ("V", "H"):
            t = transfer_alice_to_bob(payload, BeamSplitter(5e-324), branch)
            assert t.fidelity == pytest.approx(1.0, abs=1e-12)
            assert t.branch_probability == pytest.approx(0.5, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            transfer_alice_to_bob(Qubit.balanced(("P", "B")), BeamSplitter(0.5), "V")
        with pytest.raises(ValueError):
            transfer_alice_to_bob(Qubit.balanced(("V", "H")), BeamSplitter(0.5), "P")


class TestBothDirectionsExhaustive:
    def test_random_payloads_all_branches_and_directions(self):
        rng = np.random.default_rng(501)
        for _ in range(100):
            a0, a1 = random_amplitude_pair(rng)
            R = rng.uniform(0.05, 0.95)
            bs = BeamSplitter(R)
            forward_payload = Qubit(("V", "H"), a0, a1)
            for branch in ("V", "H"):
                t = transfer_alice_to_bob(forward_payload, bs, branch)
                assert t.fidelity == pytest.approx(1.0, abs=1e-12)
                assert t.branch_probability == pytest.approx(0.5, abs=1e-12)
            backward_payload = Qubit(("P", "B"), a0, a1)
            for branch in ("P", "B"):
                t = transfer_bob_to_alice(backward_payload, bs, branch)
                assert t.fidelity == pytest.approx(1.0, abs=1e-12)
                assert t.branch_probability == pytest.approx(0.5, abs=1e-12)

    def test_shared_state_present_in_transcript(self):
        t = transfer_alice_to_bob(Qubit.balanced(("V", "H")), BeamSplitter(0.3), "V")
        assert t.shared.norm2() == pytest.approx(1.0, abs=1e-12)
        assert len(t.shared.registers) == 2


class TestWithoutCorrection:
    def test_polar_payloads_perfect(self):
        assert transfer_without_correction(Qubit(("V", "H"), 1.0, 0.0)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert transfer_without_correction(Qubit(("V", "H"), 0.0, 1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_equatorial_is_worst_case(self):
        # polar angle grid over [0, pi/2]
        thetas = [i * math.pi / 80 for i in range(41)]
        values = [transfer_without_correction(payload_at(th)) for th in thetas]
        assert min(values) == pytest.approx(values[-1], abs=1e-12)
        assert values[-1] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_nonincreasing(self):
        thetas = [i * math.pi / 80 for i in range(41)]
        values = [transfer_without_correction(payload_at(th)) for th in thetas]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-12

    def test_azimuth_invariant(self):
        base = transfer_without_correction(payload_at(0.9))
        for phi in (0.5, 1.7, 3.0):
            assert transfer_without_correction(payload_at(0.9, phi)) == pytest.approx(
                base, abs=1e-12
            )

    def test_golden_curve(self):
        with open(GOLDEN, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            theta = float(row["theta"])
            expected = float(row["fidelity"])
            assert transfer_without_correction(payload_at(theta)) == pytest.approx(
                expected, abs=1e-12
            )


class TestTranscriptRecord:
    def test_fields(self):
        payload = Qubit(("V", "H"), 0.6, 0.8)
        t = transfer_alice_to_bob(payload, BeamSplitter(0.5), "V")
        record = transcript_record(t, payload)
        assert record == {
            "mu": "0.6",
            "nu": "0.8",
            "branch": "V",
            "bit": 1,
            "fidelity": pytest.approx(1.0, abs=1e-12),
        }
