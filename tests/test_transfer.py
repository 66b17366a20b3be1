import csv
import json
import math
import pathlib

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AMPLITUDES, REFLECTANCES, random_amplitude_pair, steer_reference
from cfqsim import cli, transfer
from cfqsim.michelson import BeamSplitter
from cfqsim.states import Qubit
from cfqsim.transfer import (
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
    def test_fields(self, capsys):
        # qst prints the V branch's record first
        assert cli.main(["qst", "--R", "0.5", "--payload", "0.6", "0.8"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record == {
            "mu": "0.6",
            "nu": "0.8",
            "branch": "V",
            "bit": 1,
            "fidelity": pytest.approx(1.0, abs=1e-12),
        }


# ---- steering on the D1 sector alone against the whole round's D1 posterior


def unit_pair(a, b):
    """``(a, b)`` scaled to unit norm, the larger part first brought near 1."""
    m = max(abs(a), abs(b))
    a, b = a / m, b / m
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / n, b / n


def transcripts(payload_amps, R):
    """Every transfer of the payload (both directions, every branch, and a
    wrong basis and an unknown branch in each direction) and the
    uncorrected average, each as every float bit of its fields, item order
    included, or the message of the ``ValueError`` raised."""

    def attempt(fn, *args):
        try:
            out = fn(*args)
        except ValueError as exc:
            return str(exc)
        if isinstance(out, float):
            return repr(out)
        numbers = (tuple(out.receiver_state), out.fidelity, out.branch_probability)
        shared = (out.shared.registers, repr(list(out.shared.amps.items())))
        return (*shared, out.sender_outcome, out.classical_bit, repr(numbers))

    bs = BeamSplitter(R)
    forward, backward = Qubit(("V", "H"), *payload_amps), Qubit(("P", "B"), *payload_amps)
    calls = [(transfer_alice_to_bob, forward, b) for b in ("V", "H", "P")]
    calls += [(transfer_bob_to_alice, backward, b) for b in ("P", "B", "V")]
    calls += [(transfer_alice_to_bob, backward, "V"), (transfer_bob_to_alice, forward, "P")]
    return [attempt(fn, payload, bs, b) for fn, payload, b in calls] + [attempt(transfer_without_correction, forward)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from((0.0, 1.0)), REFLECTANCES), AMPLITUDES, AMPLITUDES)
@example(1e-300, 0.6, 0.8j)
@example(5e-324, 0.6, 0.8)
@example(0.37, 1e-300, 1.0)
@example(0.0, 0.6, 0.8)
def test_transfers_match_the_reference_steer(R, a, b):
    new = transcripts(unit_pair(a, b), R)
    with mock.patch.object(transfer, "_steer", steer_reference):
        assert transcripts(unit_pair(a, b), R) == new
