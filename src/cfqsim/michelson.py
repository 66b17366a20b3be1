"""Single-round engine for the polarization-switched Michelson link.

One round: a sender device chooses (possibly in superposition) the photon
polarization, the photon splits over an internal arm and a channel arm,
the receiver's switch passes or absorbs it depending on polarization, and
the returning amplitudes interfere back onto two output detectors.

The pass/block variant runs on the same link with a fixed-polarization
source: the sender device is held at V, and the receiver's polarization
switch gives way to two pass/block switches, each absorbing its own
arm's photon into its ``pb_absorber``; the two beam-splitter maps are
shared.  DB is the ``none`` sector of ``alice_detector`` in both
variants: an absorbed photon leaves both arms empty, which the return
beam splitter leaves alone.

The maps act on fixed registers with rule patterns that do not depend on
R, so the patterns are checked once, at import, by the checker that
``states.apply_map`` runs on every call; a call binds sqrt(R) and sqrt(T)
into the rules, finds its registers in the state and runs ``apply_map``'s
label loop alone.

A round superposes after the maps: by linearity it is its four classical
device pairs' rounds, each weighted by the pair's two amplitudes.  So
``_round_table`` runs the maps once per (beam splitter, variant) on the
four pairs at unit weight, where every cancellation is exact, and tags
each row with its detector symbol; it alone refuses a degenerate splitter,
for every protocol.  ``_outcomes`` is the table's reader for the rounds
and transfers: one scan weights the rows whose symbol it is asked for and
sorts them into their outcomes' sectors; each sector's norm**2 is both
its probability and its normaliser, and each posterior is restricted
once, to the registers its reader keeps.  ``run_round`` reads all three
outcomes, ``transfer`` the D1 sector alone, and ``star`` its D1 factors
and the cat's pairings from the table's D1 rows.

Beam splitter phase convention: reflection picks up a factor i on the way
out, transmission stays real; on the return pass the roles swap so that a
blocked-nothing round interferes deterministically into the second
detector.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from typing import NamedTuple

from .states import (
    Label,
    PureState,
    Qubit,
    Register,
    ValidatedTuple,
    _check_patterns,
    _checked_registers,
    _map_labels,
    _positions,
    _restricted,
    entanglement_entropy,
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


# Each variant's four device pairs at unit weight, every other register at
# rest; the pass/block round holds device_a at V.
_N09_PAIRS = PureState(
    (ALICE_DEVICE, BOB_DETECTOR, BOB_DEVICE, ARM_ALICE, ARM_BOB, DETECTOR),
    {(a, "0", b, "vac", "vac", "none"): 1.0 for a in ALICE_DEVICE.alphabet for b in BOB_DEVICE.alphabet},
)
_SCQKD_PAIRS = PureState(
    (ALICE_DEVICE, SWITCH_ALICE, SWITCH_BOB, ARM_ALICE, ARM_BOB, ABSORBER_ALICE, ABSORBER_BOB, DETECTOR),
    {("V", a, b, "vac", "vac", "0", "0", "none"): 1.0 for a in SWITCH_ALICE.alphabet for b in SWITCH_BOB.alphabet},
)


# The registers that the forward splitter, the switch and the return
# splitter act on, in their rules' order.
_FORWARD_REGISTERS = (ALICE_DEVICE, ARM_ALICE, ARM_BOB)
_SWITCH_REGISTERS = (BOB_DEVICE, ARM_BOB, BOB_DETECTOR)
_RETURN_REGISTERS = (ARM_ALICE, ARM_BOB, DETECTOR)


def _forward_rules(r: float, t: float) -> dict:
    return {
        ("V", "vac", "vac"): [(("V", "V", "vac"), 1j * r), (("V", "vac", "V"), t)],
        ("H", "vac", "vac"): [(("H", "H", "vac"), 1j * r), (("H", "vac", "H"), t)],
    }


_SWITCH_RULES = {
    ("P", "H", "0"): [(("P", "vac", "Y"), 1.0)],
    ("B", "V", "0"): [(("B", "vac", "Y"), 1.0)],
}


def _return_rules(r: float, t: float) -> dict:
    return {
        ("vac", "V", "none"): [(("vac", "vac", "D1V"), r), (("vac", "vac", "D2V"), 1j * t)],
        ("V", "vac", "none"): [(("vac", "vac", "D1V"), 1j * t), (("vac", "vac", "D2V"), r)],
        ("vac", "H", "none"): [(("vac", "vac", "D1H"), r), (("vac", "vac", "D2H"), 1j * t)],
        ("H", "vac", "none"): [(("vac", "vac", "D1H"), 1j * t), (("vac", "vac", "D2H"), r)],
    }


_PASS_BLOCK_RULES = {("block", "V", "0"): [(("block", "vac", "Y"), 1.0)]}
_PASS_BLOCK_REGISTERS = ((SWITCH_ALICE, ARM_ALICE, ABSORBER_ALICE), (SWITCH_BOB, ARM_BOB, ABSORBER_BOB))

# The patterns do not depend on R, so this one check covers every call.
for _on, _rules in [
    (_FORWARD_REGISTERS, _forward_rules(1.0, 1.0)),
    (_SWITCH_REGISTERS, _SWITCH_RULES),
    (_RETURN_REGISTERS, _return_rules(1.0, 1.0)),
    *zip(_PASS_BLOCK_REGISTERS, [_PASS_BLOCK_RULES] * 2),
]:
    _check_patterns([reg.alphabet for reg in _on], _rules)
del _on, _rules


def forward_beamsplitter(state: PureState, bs: BeamSplitter) -> PureState:
    """Emit the photon with the device's polarization and split it over the arms."""
    idx = _positions(state, _FORWARD_REGISTERS)
    return _map_labels(state, idx, _forward_rules(math.sqrt(bs.R), math.sqrt(bs.T)))


def switch_interaction(state: PureState) -> PureState:
    """Polarization-dependent pass/absorb at the receiver.

    Setting P passes V and absorbs H, setting B the reverse.  Absorption
    re-routes the amplitude into the detector's Y sector with the arm
    reset to vacuum, so the map stays norm-preserving and probabilities
    can be read off as sector norms.  Passed photons match no rule and
    are left alone.
    """
    return _map_labels(state, _positions(state, _SWITCH_REGISTERS), _SWITCH_RULES)


def return_beamsplitter(state: PureState, bs: BeamSplitter) -> PureState:
    """Recombine the returning arms onto the two output detectors.

    Acts only where a photon is in an arm; the absorbed sector has both
    arms empty and is left untouched.
    """
    idx = _positions(state, _RETURN_REGISTERS)
    return _map_labels(state, idx, _return_rules(math.sqrt(bs.R), math.sqrt(bs.T)))


def _pass_block_switches(state: PureState) -> PureState:
    """Each blocking pass/block switch absorbs its own arm's photon into its ``pb_absorber``."""
    for on in _PASS_BLOCK_REGISTERS:
        state = _map_labels(state, _positions(state, on), _PASS_BLOCK_RULES)
    return state


# Each ``DETECTOR`` symbol's outcome, in outcome order: one per output
# detector, polarization summed, or one per tag; then DB, the silent
# detector.  The D1 symbols, named once, also serve transfer and star.
_D1_CLICKS = {"D1V": "D1", "D1H": "D1"}
_CLICKS = {**_D1_CLICKS, "D2V": "D2", "D2H": "D2", "none": "DB"}
_SPLIT_CLICKS = {symbol: "DB" if symbol == "none" else symbol for symbol in _CLICKS}

# The registers the readers' posteriors keep, checked once here, since
# ``_outcomes`` restricts to them without the checks of ``restrict``.
_DEVICES = _checked_registers((ALICE_DEVICE, BOB_DEVICE))
_TAGGED_DEVICES = _checked_registers((*_DEVICES, DETECTOR))
_SWITCHES = _checked_registers((SWITCH_ALICE, SWITCH_BOB))
_SWITCHES_ABSORBERS = _checked_registers((*_SWITCHES, ABSORBER_ALICE, ABSORBER_BOB))


@functools.lru_cache(maxsize=1)
def _round_table(bs: BeamSplitter, variant: str) -> tuple[tuple[Label, str, int, int, complex], ...]:
    """The three maps run on ``variant``'s unit device pairs at ``bs``, as
    one row per output label, in state order: the label, its ``DETECTOR``
    symbol, the indices of its sender's and its receiver's symbols in their
    devices' alphabets, and its amplitude.  Each label keeps its pair's
    device symbols, and the passing pairs' D1 terms, -r*t and t*r, cancel
    to an exact zero.  Every reader's R = 0 or 1 is refused here."""
    if not 0.0 < bs.R < 1.0:
        raise ValueError("degenerate beam splitter: R must lie strictly inside (0, 1)")
    n09 = variant == "N09"
    state = forward_beamsplitter(_N09_PAIRS if n09 else _SCQKD_PAIRS, bs)
    state = return_beamsplitter(switch_interaction(state) if n09 else _pass_block_switches(state), bs)
    sender, receiver = _DEVICES if n09 else _SWITCHES
    s, r, d = _positions(state, (sender, receiver, DETECTOR))
    return tuple(
        (l, l[d], sender.alphabet.index(l[s]), receiver.alphabet.index(l[r]), c) for l, c in state.amps.items()
    )


def _outcomes(
    bs: BeamSplitter, variant: str, sender: Qubit, receiver: Qubit, clicks: dict[str, str], keep: tuple[Register, ...]
) -> list[RoundOutcome]:
    """The round of ``variant`` with both devices superposed (qubits
    declared in their devices' order) as one outcome per name in ``clicks``
    (a ``DETECTOR`` symbol's outcome), in its order.  One scan weights each
    row of ``_round_table`` that ``clicks`` names by its sender's and its
    receiver's amplitude and sorts it into its outcome's sector, in table
    order, dropping exact zeros.  Each outcome is its sector's norm**2 and
    the sector divided by its root, restricted once: a click's to ``keep``,
    DB's to the variant's devices (and pass/block absorbers); a norm**2
    below the normal range goes through ``normalized``, which rescales
    first.  Every kept amplitude is nonzero, so a sector with labels has a
    posterior even where its probability underflows."""
    n09 = variant == "N09"
    registers = (_N09_PAIRS if n09 else _SCQKD_PAIRS).registers
    mu = (complex(sender.amp0), complex(sender.amp1))
    alpha = (complex(receiver.amp0), complex(receiver.amp1))
    parts: dict[str, dict] = {name: {} for name in clicks.values()}
    for label, symbol, i, j, c in _round_table(bs, variant):  # refuses a degenerate splitter
        if symbol in clicks:
            amp = mu[i] * alpha[j] * c
            if amp:
                parts[clicks[symbol]][label] = amp
    outcomes = []
    for name, amps in parts.items():
        kept = (_DEVICES if n09 else _SWITCHES_ABSORBERS) if name == "DB" else keep
        n2 = float(sum(abs(a) ** 2 for a in amps.values()))
        if n2 >= sys.float_info.min:
            n = math.sqrt(n2)
            posterior = _restricted(PureState._trusted(registers, {l: a / n for l, a in amps.items()}), kept)
        elif amps:
            posterior = _restricted(PureState._trusted(registers, amps).normalized(), kept)
        else:
            posterior = PureState._trusted(kept, {})
        outcomes.append(RoundOutcome(name, n2, posterior))
    return outcomes


def run_round(
    config: RoundConfig, *, split_detector_polarization: bool = False
) -> list[RoundOutcome]:
    """Evolve one full round and report all detector outcomes with posteriors.

    Returns outcomes in the order D1, D2, DB; the D1/D2 posteriors keep the
    (device_a, device_b, detector-tag) registers, the DB posterior keeps
    only the two devices.  Probabilities sum to 1.
    """
    clicks = _SPLIT_CLICKS if split_detector_polarization else _CLICKS
    keep = _TAGGED_DEVICES if config.variant == "N09" else _SWITCHES
    outcomes = _outcomes(config.bs, config.variant, config.alice, config.bob, clicks, keep)  # checks R first
    if split_detector_polarization and config.variant == "ScQKD":
        raise ValueError("the pass/block variant has no polarization-resolved detectors")
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
    return _outcomes(bs, "ScQKD", alice, bob, _CLICKS, _SWITCHES)


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
