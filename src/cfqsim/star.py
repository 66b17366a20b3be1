"""Star-network distribution of cat states over independent Michelson links.

One hub party holds a single switch device whose choice acts jointly on N
separate links, one per spoke party.  Conditioning every link on its
counterfactual detector click projects the N+1 devices onto a cat-type
superposition; the per-link evolution restricted to that sector is a
simple non-unitary "keep the compatible branch" map.

``run_star`` grows the state one spoke at a time from the hub qubit: each
spoke is tensored in and propagated at once, so the incompatible branches
die before the next spoke arrives.  Every propagator call sees at most 4
labels and the state never holds more than 2, so the cost is linear in
the number of spokes (times the O(N) label width).  The state is
renormalized after every spoke, which keeps the amplitudes far above the
pruning threshold however small the yield; the yield is carried as the
product of the per-spoke norm**2 and, for yields below the double range,
as its base-10 logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .michelson import BOB_DEVICE, BeamSplitter
from .states import PureState, Qubit, Register, apply_map, fidelity_up_to_phase, product_state


def alice_register(link: int) -> Register:
    return Register("device_a", link)


def detector_register(link: int) -> Register:
    return Register("alice_detector", link)


@dataclass(frozen=True)
class StarConfig:
    bs: BeamSplitter
    alices: tuple[Qubit, ...]
    bob: Qubit

    def __post_init__(self) -> None:
        if len(self.alices) < 1:
            raise ValueError("a star needs at least one spoke party")
        for q in self.alices:
            if tuple(q.basis) != ("V", "H"):
                raise ValueError("spoke qubits must be declared over (V, H)")
        if tuple(self.bob.basis) != ("P", "B"):
            raise ValueError("hub qubit must be declared over (P, B)")

    @property
    def n_links(self) -> int:
        return len(self.alices)


@dataclass(frozen=True)
class CatResult:
    yield_probability: float  # probability that every link clicks D1; may underflow to 0
    state: PureState  # normalized state over (a_1..a_N, b); empty at zero yield
    log10_yield: float  # log10 of the yield; finite where the float underflows, -inf at zero yield


def partial_propagator(state: PureState, link: int, bs: BeamSplitter) -> PureState:
    """Evolve one link keeping only its counterfactual-click sector.

    The surviving device combinations each pick up sqrt(RT) and stamp the
    link's detector tag; the two combinations that interfere into the
    other detector deterministically are dropped, so the norm decreases.
    """
    a = alice_register(link)
    det = detector_register(link)
    if a not in state.registers or det not in state.registers:
        raise ValueError(f"link index {link} out of range for this state")
    s = math.sqrt(bs.R * bs.T)
    rules = {
        ("P", "H", "none"): [(("P", "H", "D1H"), s)],
        ("B", "V", "none"): [(("B", "V", "D1V"), s)],
        ("P", "V", "none"): [],
        ("B", "H", "none"): [],
    }
    return apply_map(state, (BOB_DEVICE, a, det), rules)


def run_star(config: StarConfig) -> CatResult:
    """Post-select every link on its counterfactual click, one spoke at a time."""
    kept = (*(alice_register(j) for j in range(config.n_links)), BOB_DEVICE)
    state = product_state([(BOB_DEVICE, config.bob)])
    y, log10_y = 1.0, 0.0
    for j, q in enumerate(config.alices):
        spoke = product_state([(alice_register(j), q), (detector_register(j), "none")])
        state = partial_propagator(state.tensor(spoke), j, config.bs)
        if not state.amps:
            return CatResult(0.0, PureState(kept, {}), -math.inf)
        n2 = state.norm2()
        y *= n2
        log10_y += math.log10(n2)
        state = state.normalized()
    return CatResult(y, state.restrict(kept), log10_y)


def ideal_cat(n_links: int) -> PureState:
    """(|V..VB> + |H..HP>)/sqrt(2) over (a_1..a_N, b)."""
    regs = (*(alice_register(j) for j in range(n_links)), BOB_DEVICE)
    r = 1.0 / math.sqrt(2.0)
    return PureState(
        regs,
        {
            (*("V",) * n_links, "B"): r,
            (*("H",) * n_links, "P"): r,
        },
    )


def cat_fidelity(result: CatResult) -> float:
    """Overlap-squared of the post-selected state with the balanced cat."""
    if not result.state.amps:
        return 0.0
    n = sum(1 for r in result.state.registers if r.kind == "device_a")
    return fidelity_up_to_phase(result.state, ideal_cat(n))
