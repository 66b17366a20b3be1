"""Single-round engine for the polarization-switched Michelson link.

One round: a sender device chooses (possibly in superposition) the photon
polarization, the photon splits over an internal arm and a channel arm,
the receiver's switch passes or absorbs it depending on polarization, and
the returning amplitudes interfere back onto two output detectors.  The
three maps take a ``link`` operand and act on that link's registers
``Register(kind, link)``; every link shares the hub switch ``BOB_DEVICE``,
so a multi-link setup composes them on one joint state.

The pass/block variant runs on the same link with a fixed-polarization
source: the sender device is held at V, and the receiver's polarization
switch gives way to two pass/block switches, each absorbing its own
arm's photon into its ``pb_absorber``; the two beam-splitter maps are
shared.  DB is the ``none`` sector of ``alice_detector`` in both
variants: an absorbed photon leaves both arms empty, which the return
beam splitter leaves alone.

Beam splitter phase convention: reflection picks up a factor i on the way
out, transmission stays real; on the return pass the roles swap so that a
blocked-nothing round interferes deterministically into the second
detector.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .states import (
    PureState,
    Qubit,
    Register,
    ValidatedTuple,
    apply_map,
    entanglement_entropy,
    product_state,
    sector,
)

# Registers of the standard bipartite round (link index 0).
ALICE_DEVICE = Register("device_a")
BOB_DEVICE = Register("device_b")
BOB_DETECTOR = Register("bob_detector")
ARM_ALICE = Register("arm_a")
ARM_BOB = Register("arm_b")
DETECTOR = Register("alice_detector")

# The pass/block (semi-counterfactual) variant's switches and absorbers.
SWITCH_ALICE = Register("pb_device", 0)
SWITCH_BOB = Register("pb_device", 1)
ABSORBER_ALICE = Register("pb_absorber", 0)
ABSORBER_BOB = Register("pb_absorber", 1)

VARIANTS = ("N09", "ScQKD")


class BeamSplitter(ValidatedTuple, namedtuple("BeamSplitter", "R")):
    """Lossless beam splitter; transmittance is derived so R + T = 1 exactly."""

    __slots__ = ()

    def __new__(cls, R: float) -> BeamSplitter:
        self = super().__new__(cls, R)
        if not 0.0 <= self.R <= 1.0:
            raise ValueError("reflectance must lie in [0, 1]")
        return self

    @property
    def T(self) -> float:
        return 1.0 - self.R


class RoundConfig(ValidatedTuple, namedtuple("RoundConfig", "bs alice bob variant")):
    __slots__ = ()

    def __new__(cls, bs: BeamSplitter, alice: Qubit, bob: Qubit, variant: str = "N09") -> RoundConfig:
        self = super().__new__(cls, bs, alice, bob, variant)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if tuple(self.alice.basis) != ("V", "H"):
            raise ValueError("sender qubit must be declared over (V, H)")
        if tuple(self.bob.basis) != ("P", "B"):
            raise ValueError("receiver qubit must be declared over (P, B)")
        return self


class RoundOutcome(NamedTuple):
    outcome: str  # D1 | D2 | DB (or a polarization-resolved tag)
    probability: float
    posterior: PureState


def initial_round_state(alice: Qubit, bob: Qubit) -> PureState:
    return product_state(
        [
            (ALICE_DEVICE, alice),
            (BOB_DETECTOR, "0"),
            (BOB_DEVICE, bob),
            (ARM_ALICE, "vac"),
            (ARM_BOB, "vac"),
            (DETECTOR, "none"),
        ]
    )


def forward_beamsplitter(state: PureState, bs: BeamSplitter, link: int = 0) -> PureState:
    """Emit the photon with the device's polarization and split it over the arms."""
    r, t = math.sqrt(bs.R), math.sqrt(bs.T)
    rules = {}
    for x in ("V", "H"):
        rules[(x, "vac", "vac")] = [
            ((x, x, "vac"), 1j * r),
            ((x, "vac", x), t),
        ]
    on = (Register("device_a", link), Register("arm_a", link), Register("arm_b", link))
    return apply_map(state, on, rules)


def switch_interaction(state: PureState, link: int = 0) -> PureState:
    """Polarization-dependent pass/absorb at the receiver.

    Setting P passes V and absorbs H, setting B the reverse.  Absorption
    re-routes the amplitude into the detector's Y sector with the arm
    reset to vacuum, so the map stays norm-preserving and probabilities
    can be read off as sector norms.  Passed photons match no rule and
    are left alone.
    """
    rules = {
        ("P", "H", "0"): [(("P", "vac", "Y"), 1.0)],
        ("B", "V", "0"): [(("B", "vac", "Y"), 1.0)],
    }
    return apply_map(state, (BOB_DEVICE, Register("arm_b", link), Register("bob_detector", link)), rules)


def return_beamsplitter(state: PureState, bs: BeamSplitter, link: int = 0) -> PureState:
    """Recombine the returning arms onto the two output detectors.

    Acts only where a photon is in an arm; the absorbed sector has both
    arms empty and is left untouched.
    """
    r, t = math.sqrt(bs.R), math.sqrt(bs.T)
    rules = {}
    for x in ("V", "H"):
        rules[("vac", x, "none")] = [
            (("vac", "vac", f"D1{x}"), r),
            (("vac", "vac", f"D2{x}"), 1j * t),
        ]
        rules[(x, "vac", "none")] = [
            (("vac", "vac", f"D1{x}"), 1j * t),
            (("vac", "vac", f"D2{x}"), r),
        ]
    on = (Register("arm_a", link), Register("arm_b", link), Register("alice_detector", link))
    return apply_map(state, on, rules)


# Polarization-summed clicks: one outcome per output detector.
_CLICKS = [("D1", ("D1V", "D1H")), ("D2", ("D2V", "D2H"))]


def _outcomes(
    state: PureState,
    clicks: list[tuple[str, tuple[str, ...]]],
    tagged: tuple[Register, ...],
    blocked_keep: tuple[Register, ...],
) -> list[RoundOutcome]:
    """One outcome per ``clicks`` entry (a name and its ``DETECTOR`` tags,
    posterior on ``tagged``), then DB, the silent detector (posterior on
    ``blocked_keep``).  Each is the sector's norm**2 and its normalized
    posterior; every kept amplitude is nonzero, so a sector with labels
    has a posterior even where its probability underflows."""
    outcomes = []
    for name, syms in [*clicks, ("DB", ("none",))]:
        part = sector(state, DETECTOR, syms)
        keep = blocked_keep if name == "DB" else tagged
        posterior = part.normalized().restrict(keep) if part.amps else PureState(keep, {})
        outcomes.append(RoundOutcome(name, part.norm2(), posterior))
    return outcomes


def run_round(
    config: RoundConfig, *, split_detector_polarization: bool = False
) -> list[RoundOutcome]:
    """Evolve one full round and report all detector outcomes with posteriors.

    Returns outcomes in the order D1, D2, DB; the D1/D2 posteriors keep the
    (device_a, device_b, detector-tag) registers, the DB posterior keeps
    only the two devices.  Probabilities sum to 1.
    """
    if not 0.0 < config.bs.R < 1.0:
        raise ValueError("degenerate beam splitter: R must lie strictly inside (0, 1)")
    if config.variant == "ScQKD":
        if split_detector_polarization:
            raise ValueError("the pass/block variant has no polarization-resolved detectors")
        alice = Qubit(("pass", "block"), config.alice.amp0, config.alice.amp1)
        bob = Qubit(("pass", "block"), config.bob.amp0, config.bob.amp1)
        return run_scqkd_round(alice, bob, config.bs)
    state = initial_round_state(config.alice, config.bob)
    state = forward_beamsplitter(state, config.bs)
    state = switch_interaction(state)
    state = return_beamsplitter(state, config.bs)

    if split_detector_polarization:
        clicks = [(sym, (sym,)) for sym in ("D1V", "D1H", "D2V", "D2H")]
    else:
        clicks = _CLICKS
    devices = (ALICE_DEVICE, BOB_DEVICE)
    return _outcomes(state, clicks, (*devices, DETECTOR), devices)


class ClosedFormProbs(NamedTuple):
    """Detector probabilities of one round, computed without simulating it."""

    P_DB: float
    P_D1: float
    P_D2: float


def closed_form_probs(config: RoundConfig) -> ClosedFormProbs:
    """Detector probabilities without simulating the round."""
    R, T = config.bs.R, config.bs.T
    mu, nu = config.alice.amp0, config.alice.amp1
    alpha, beta = config.bob.amp0, config.bob.amp1
    cross = abs(alpha * nu) ** 2 + abs(beta * mu) ** 2
    p_db = cross * T
    p_d1 = R * T * cross
    p_d2 = abs(alpha) ** 2 * (abs(mu) ** 2 + abs(nu) ** 2 * R**2) + abs(beta) ** 2 * (
        abs(nu) ** 2 + abs(mu) ** 2 * R**2
    )
    return ClosedFormProbs(p_db, p_d1, p_d2)


def d1_state_closed_form(config: RoundConfig) -> PureState:
    """Unnormalized device-pair state conditioned on a counterfactual click.

    Its norm**2 equals the D1 probability of ``closed_form_probs``.
    """
    s = math.sqrt(config.bs.R * config.bs.T)
    mu, nu = config.alice.amp0, config.alice.amp1
    alpha, beta = config.bob.amp0, config.bob.amp1
    return PureState(
        (ALICE_DEVICE, BOB_DEVICE),
        {("H", "P"): s * alpha * nu, ("V", "B"): s * beta * mu},
    )


def run_scqkd_round(
    alice: Qubit, bob: Qubit, bs: BeamSplitter
) -> list[RoundOutcome]:
    """One round of the pass/block variant with both parties superposed.

    The N09 link with a fixed-polarization source: the sender device is
    held at V, the photon passes through ``forward_beamsplitter`` and
    ``return_beamsplitter``, and in between each party's pass/block switch
    absorbs the photon in its own arm (the sender's internal arm, the
    receiver's channel arm) into that party's ``pb_absorber``.  Outcomes
    follow the same D1/D2/DB accounting, with DB, the silent detector,
    meaning "absorbed by either party".
    """
    if tuple(alice.basis) != ("pass", "block") or tuple(bob.basis) != ("pass", "block"):
        raise ValueError("pass/block round needs qubits declared over (pass, block)")
    if not 0.0 < bs.R < 1.0:
        raise ValueError("degenerate beam splitter: R must lie strictly inside (0, 1)")
    state = product_state(
        [
            (ALICE_DEVICE, "V"),
            (SWITCH_ALICE, alice),
            (SWITCH_BOB, bob),
            (ARM_ALICE, "vac"),
            (ARM_BOB, "vac"),
            (ABSORBER_ALICE, "0"),
            (ABSORBER_BOB, "0"),
            (DETECTOR, "none"),
        ]
    )
    state = forward_beamsplitter(state, bs)
    for switch, arm, absorber in (
        (SWITCH_ALICE, ARM_ALICE, ABSORBER_ALICE),
        (SWITCH_BOB, ARM_BOB, ABSORBER_BOB),
    ):
        state = apply_map(state, (switch, arm, absorber), {("block", "V", "0"): [(("block", "vac", "Y"), 1.0)]})
    state = return_beamsplitter(state, bs)

    switches = (SWITCH_ALICE, SWITCH_BOB)
    return _outcomes(state, _CLICKS, switches, (*switches, ABSORBER_ALICE, ABSORBER_BOB))


def round_record(config: RoundConfig) -> dict:
    """Flat record of one round's statistics: the four input amplitudes as
    complex numbers, the outcome probabilities and the D1 entropy."""
    outcomes = run_round(config)
    d1 = outcomes[0]
    if d1.posterior.amps:
        part = SWITCH_ALICE if config.variant == "ScQKD" else ALICE_DEVICE
        entropy = entanglement_entropy(d1.posterior, [part])
    else:
        entropy = 0.0
    return {
        "R": config.bs.R,
        "alpha": complex(config.bob.amp0),
        "beta": complex(config.bob.amp1),
        "mu": complex(config.alice.amp0),
        "nu": complex(config.alice.amp1),
        "variant": config.variant,
        "P_D1": outcomes[0].probability,
        "P_D2": outcomes[1].probability,
        "P_DB": outcomes[2].probability,
        "entropy_D1": entropy,
    }
