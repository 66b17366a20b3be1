"""Single-round engine for the polarization-switched Michelson link.

One round: a sender device chooses (possibly in superposition) the photon
polarization, the photon splits over an internal arm and a channel arm,
the receiver's switch passes or absorbs it depending on polarization, and
the returning amplitudes interfere back onto two output detectors.  The
three maps are exposed separately so multi-link setups can compose them
on shared joint states.

Beam splitter phase convention: reflection picks up a factor i on the way
out, transmission stays real; on the return pass the roles swap so that a
blocked-nothing round interferes deterministically into the second
detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .states import (
    PureState,
    Qubit,
    Register,
    apply_map,
    entanglement_entropy,
    format_complex,
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

# Registers of the pass/block (semi-counterfactual) variant.
SWITCH_ALICE = Register("pb_device", 0)
SWITCH_BOB = Register("pb_device", 1)
PLAIN_ARM_ALICE = Register("plain_arm", 0)
PLAIN_ARM_BOB = Register("plain_arm", 1)
ABSORBER_ALICE = Register("pb_absorber", 0)
ABSORBER_BOB = Register("pb_absorber", 1)
PLAIN_DETECTOR = Register("plain_detector", 0)

VARIANTS = ("N09", "ScQKD")


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless beam splitter; transmittance is derived so R + T = 1 exactly."""

    R: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.R <= 1.0:
            raise ValueError("reflectance must lie in [0, 1]")

    @property
    def T(self) -> float:
        return 1.0 - self.R


@dataclass(frozen=True)
class RoundConfig:
    bs: BeamSplitter
    alice: Qubit  # over (V, H)
    bob: Qubit  # over (P, B)
    variant: str = "N09"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if tuple(self.alice.basis) != ("V", "H"):
            raise ValueError("sender qubit must be declared over (V, H)")
        if tuple(self.bob.basis) != ("P", "B"):
            raise ValueError("receiver qubit must be declared over (P, B)")


@dataclass(frozen=True)
class RoundOutcome:
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


def forward_beamsplitter(
    state: PureState,
    bs: BeamSplitter,
    *,
    device: Register = ALICE_DEVICE,
    arm_a: Register = ARM_ALICE,
    arm_b: Register = ARM_BOB,
) -> PureState:
    """Emit the photon with the device's polarization and split it over the arms."""
    r, t = math.sqrt(bs.R), math.sqrt(bs.T)
    rules = {}
    for x in ("V", "H"):
        rules[(x, "vac", "vac")] = [
            ((x, x, "vac"), 1j * r),
            ((x, "vac", x), t),
        ]
    return apply_map(state, (device, arm_a, arm_b), rules)


def switch_interaction(
    state: PureState,
    *,
    switch: Register = BOB_DEVICE,
    arm_b: Register = ARM_BOB,
    detector: Register = BOB_DETECTOR,
) -> PureState:
    """Polarization-dependent pass/absorb at the receiver.

    Setting P passes V and absorbs H, setting B the reverse.  Absorption
    re-routes the amplitude into the detector's Y sector with the arm
    reset to vacuum, so the map stays norm-preserving and probabilities
    can be read off as sector norms.
    """
    rules = {
        ("P", "V", "0"): [(("P", "V", "0"), 1.0)],
        ("P", "H", "0"): [(("P", "vac", "Y"), 1.0)],
        ("B", "V", "0"): [(("B", "vac", "Y"), 1.0)],
        ("B", "H", "0"): [(("B", "H", "0"), 1.0)],
    }
    return apply_map(state, (switch, arm_b, detector), rules)


def return_beamsplitter(
    state: PureState,
    bs: BeamSplitter,
    *,
    arm_a: Register = ARM_ALICE,
    arm_b: Register = ARM_BOB,
    bob_detector: Register = BOB_DETECTOR,
    detector: Register = DETECTOR,
) -> PureState:
    """Recombine the returning arms onto the two output detectors.

    Acts only where the receiver's detector is still silent; the absorbed
    sector is left untouched.
    """
    r, t = math.sqrt(bs.R), math.sqrt(bs.T)
    rules = {}
    for x in ("V", "H"):
        rules[("vac", x, "0", "none")] = [
            (("vac", "vac", "0", f"D1{x}"), r),
            (("vac", "vac", "0", f"D2{x}"), 1j * t),
        ]
        rules[(x, "vac", "0", "none")] = [
            (("vac", "vac", "0", f"D1{x}"), 1j * t),
            (("vac", "vac", "0", f"D2{x}"), r),
        ]
    return apply_map(state, (arm_a, arm_b, bob_detector, detector), rules)


def _outcome(name: str, sector_state: PureState, keep: tuple[Register, ...]) -> RoundOutcome:
    """One detector outcome: the sector's norm**2 and its normalized
    posterior on ``keep``.  Every kept amplitude is nonzero, so a sector
    with labels has a posterior even where its probability underflows."""
    if not sector_state.amps:
        return RoundOutcome(name, 0.0, PureState(keep, {}))
    return RoundOutcome(name, sector_state.norm2(), sector_state.normalized().restrict(keep))


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
        clicks = [("D1", ("D1V", "D1H")), ("D2", ("D2V", "D2H"))]
    tagged = (ALICE_DEVICE, BOB_DEVICE, DETECTOR)
    outcomes = [_outcome(name, sector(state, DETECTOR, syms), tagged) for name, syms in clicks]
    blocked = sector(state, BOB_DETECTOR, ("Y",))
    outcomes.append(_outcome("DB", blocked, (ALICE_DEVICE, BOB_DEVICE)))
    return outcomes


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

    The fixed mirror at the top of the sender's station is replaced by a
    polarization-independent pass/block module, so the photon is a single
    unpolarized mode and each party's block action routes its own arm's
    amplitude into that party's absorption register.  Outcomes follow the
    same D1/D2/DB accounting, with DB meaning "absorbed by either party".
    """
    if tuple(alice.basis) != ("pass", "block") or tuple(bob.basis) != ("pass", "block"):
        raise ValueError("pass/block round needs qubits declared over (pass, block)")
    if not 0.0 < bs.R < 1.0:
        raise ValueError("degenerate beam splitter: R must lie strictly inside (0, 1)")
    r, t = math.sqrt(bs.R), math.sqrt(bs.T)
    state = product_state(
        [
            (SWITCH_ALICE, alice),
            (SWITCH_BOB, bob),
            (PLAIN_ARM_ALICE, "vac"),
            (PLAIN_ARM_BOB, "vac"),
            (ABSORBER_ALICE, "0"),
            (ABSORBER_BOB, "0"),
            (PLAIN_DETECTOR, "none"),
        ]
    )
    state = apply_map(
        state,
        (PLAIN_ARM_ALICE, PLAIN_ARM_BOB),
        {("vac", "vac"): [(("phot", "vac"), 1j * r), (("vac", "phot"), t)]},
    )
    for switch, arm, absorber in (
        (SWITCH_ALICE, PLAIN_ARM_ALICE, ABSORBER_ALICE),
        (SWITCH_BOB, PLAIN_ARM_BOB, ABSORBER_BOB),
    ):
        state = apply_map(
            state,
            (switch, arm, absorber),
            {("block", "phot", "0"): [(("block", "vac", "Y"), 1.0)]},
        )
    state = apply_map(
        state,
        (PLAIN_ARM_ALICE, PLAIN_ARM_BOB, PLAIN_DETECTOR),
        {
            ("phot", "vac", "none"): [
                (("vac", "vac", "D1"), 1j * t),
                (("vac", "vac", "D2"), r),
            ],
            ("vac", "phot", "none"): [
                (("vac", "vac", "D1"), r),
                (("vac", "vac", "D2"), 1j * t),
            ],
        },
    )

    switches = (SWITCH_ALICE, SWITCH_BOB)
    # DB: absorbed by either party, Alice's absorber first, then Bob's.
    absorbed = sector(state, ABSORBER_ALICE, ("Y",))
    absorbed += sector(sector(state, ABSORBER_ALICE, ("0",)), ABSORBER_BOB, ("Y",))
    return [
        _outcome("D1", sector(state, PLAIN_DETECTOR, ("D1",)), switches),
        _outcome("D2", sector(state, PLAIN_DETECTOR, ("D2",)), switches),
        _outcome("DB", absorbed, (*switches, ABSORBER_ALICE, ABSORBER_BOB)),
    ]


def round_record(config: RoundConfig) -> dict:
    """Flat serializable record of one round's statistics."""
    outcomes = run_round(config)
    d1 = outcomes[0]
    if d1.posterior.amps:
        part = SWITCH_ALICE if config.variant == "ScQKD" else ALICE_DEVICE
        entropy = entanglement_entropy(d1.posterior, [part])
    else:
        entropy = 0.0
    return {
        "R": config.bs.R,
        "alpha": format_complex(config.bob.amp0),
        "beta": format_complex(config.bob.amp1),
        "mu": format_complex(config.alice.amp0),
        "nu": format_complex(config.alice.amp1),
        "variant": config.variant,
        "P_D1": outcomes[0].probability,
        "P_D2": outcomes[1].probability,
        "P_DB": outcomes[2].probability,
        "entropy_D1": entropy,
    }
