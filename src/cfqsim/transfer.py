"""Deterministic state transfer over a counterfactually shared device pair.

The receiver prepares a balanced device, one counterfactual round leaves
the two devices in a payload-dependent entangled pair, and a Hadamard plus
measurement on the sender's device steers the receiver into the payload up
to a known Pauli correction announced with one classical bit.  Only the
round's D1 sector is read: the D2 and DB outcomes are never built.  The
sender's Hadamard and the post-selection on its outcome run on the
pair's labels (at most two), not through ``states``' label kernel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .michelson import ALICE_DEVICE, BOB_DEVICE, _D1_CLICKS, _DEVICES, BeamSplitter, _outcomes
from .states import PureState, Qubit, Register, _rescued

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class TransferTranscript(NamedTuple):
    shared: PureState  # normalized device pair before the sender's Hadamard
    sender_outcome: str
    classical_bit: int  # 0: receiver applies identity, 1: phase flip
    receiver_state: Qubit
    fidelity: float
    branch_probability: float


def _steer(
    payload: Qubit, bs: BeamSplitter, sender: Register, branches: tuple[str, ...]
) -> tuple[PureState, Register, list[tuple[float, list[complex]]]]:
    """Shared pair -> sender's Hadamard -> post-selection -> receiver's qubit.

    ``sender`` is the device holding the payload; the receiver's device
    starts balanced.  The shared pair is a|H, P> + b|V, B>, and the
    Hadamard puts its minus sign on the sender's symbol of the |V, B> term.
    The Hadamard and the post-selection run on the pair's labels, in
    ``apply_map``'s and ``postselect``'s operation order.  Returns the
    pair, the receiver's device and, per sender outcome in ``branches``,
    its probability and the receiver's uncorrected amplitudes in the
    receiver's alphabet order.
    """
    basis = sender.alphabet
    if tuple(payload.basis) != basis:
        raise ValueError(f"payload must be declared over ({', '.join(basis)})")
    if any(branch not in basis for branch in branches):
        raise ValueError(f"sender branch must be {basis[0]!r} or {basis[1]!r}")
    if sender == ALICE_DEVICE:
        receiver, minus, plus = BOB_DEVICE, "V", "H"
        alice, bob = payload, Qubit.balanced(("P", "B"))
    else:
        receiver, minus, plus = ALICE_DEVICE, "B", "P"
        alice, bob = Qubit.balanced(("V", "H")), payload
    [d1] = _outcomes(bs, "N09", alice, bob, _D1_CLICKS, _DEVICES)
    shared = d1.posterior  # on the device pair: ``_outcomes`` drops the detector tag
    if not shared.amps:
        raise ValueError("configuration admits no counterfactual branch")
    s = _DEVICES.index(sender)  # the sender's position in the pair's labels
    # Each label fans out to its plus and its minus label at amp * (+-1/sqrt2);
    # the two labels differ in the receiver's symbol, so no two outputs meet.
    amps = {}
    for label, amp in shared.amps.items():
        other = label[1 - s]
        for sym, coeff in ((plus, _SQRT_HALF), (minus, -_SQRT_HALF if label[s] == minus else _SQRT_HALF)):
            amps[(sym, other) if s == 0 else (other, sym)] = amp * coeff
    rotated, total = _rescued(PureState._trusted(_DEVICES, amps))
    results = []
    for branch in branches:
        post = PureState._trusted(_DEVICES, {l: a for l, a in rotated.amps.items() if l[s] == branch})
        received = {l[1 - s]: a for l, a in post.normalized().amps.items()}
        results.append((post.norm2() / total, [received.get(sym, 0j) for sym in receiver.alphabet]))
    return shared, receiver, results


def _fidelity(payload: Qubit, amps: list[complex]) -> float:
    """Fidelity of receiver amplitudes to the payload.  The receiver's
    alphabet lists the images of the payload's second and first symbols
    (H -> P and V -> B, or B -> V and P -> H)."""
    return abs(payload.amp1.conjugate() * amps[0] + payload.amp0.conjugate() * amps[1]) ** 2


def _transfer(payload: Qubit, bs: BeamSplitter, sender: Register, branch: str) -> TransferTranscript:
    shared, receiver, [(prob, amps)] = _steer(payload, bs, sender, (branch,))
    # After the sender's V or B outcome the receiver phase-flips its own
    # symbol of the |V, B> term.
    bit = int(branch in ("V", "B"))
    amps = [-a if bit and sym in ("V", "B") else a for sym, a in zip(receiver.alphabet, amps)]
    receiver_state = Qubit(receiver.alphabet, *amps)
    return TransferTranscript(shared, branch, bit, receiver_state, _fidelity(payload, amps), prob)


def transfer_alice_to_bob(
    payload: Qubit, bs: BeamSplitter, sender_branch: str
) -> TransferTranscript:
    """Transfer the sender's (V, H) payload onto the receiver's (P, B) device.

    ``sender_branch`` selects which measurement outcome to follow; both
    yield the payload exactly (fidelity 1) after the dictated correction,
    each with probability 1/2.
    """
    return _transfer(payload, bs, ALICE_DEVICE, sender_branch)


def transfer_bob_to_alice(
    payload: Qubit, bs: BeamSplitter, sender_branch: str
) -> TransferTranscript:
    """Mirrored direction: a (P, B) payload lands on the (V, H) device."""
    return _transfer(payload, bs, BOB_DEVICE, sender_branch)


def transfer_without_correction(payload: Qubit) -> float:
    """Average fidelity when the receiver never applies the correction.

    Averaged over both equally likely measurement branches; equals 1 for
    polar payloads and degrades towards 1/2 at the equator of the device
    Bloch sphere.  Independent of the beam splitter, which only rescales
    the shared pair's yield.
    """
    _, _, branches = _steer(payload, BeamSplitter(0.5), ALICE_DEVICE, ("V", "H"))
    return sum(prob * _fidelity(payload, amps) for prob, amps in branches)

