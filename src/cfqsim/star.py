"""Star-network distribution of cat states over independent Michelson links.

One hub party holds a single switch device whose choice acts jointly on N
separate links, one per spoke party.  Conditioning every link on its
counterfactual detector click projects the N+1 devices onto a cat-type
superposition; the per-link evolution restricted to that sector is a
simple non-unitary "keep the compatible branch" map.

``run_star`` grows the state one spoke at a time from the hub qubit: each
spoke is tensored in and propagated at once, so the incompatible branches
die before the next spoke arrives.  The state holds the devices alone:
every kept label clicked D1 on every link, so no detector is recorded.
Every propagator call sees at most 4 labels and the state never holds
more than 2, so the cost is linear in the number of spokes (times the
O(N) label width).  The two hub branches
are carried apart, each as a label amplitude times its own power of two,
rescaled exactly before every link to a magnitude near 2**54/sqrt(RT):
then no amplitude, and no ratio of the two, leaves the double range, however
small the yield, R or the spoke amplitudes.  The yield and its base-10
logarithm are read off once, at the end.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .michelson import BOB_DEVICE, BeamSplitter
from .states import PureState, Qubit, Register, ValidatedTuple, apply_map, fidelity_up_to_phase, product_state


def alice_register(link: int) -> Register:
    return Register("device_a", link)


class StarConfig(ValidatedTuple, namedtuple("StarConfig", "bs alices bob")):
    __slots__ = ()

    def __new__(cls, bs: BeamSplitter, alices: tuple[Qubit, ...], bob: Qubit) -> StarConfig:
        self = super().__new__(cls, bs, alices, bob)
        if len(self.alices) < 1:
            raise ValueError("a star needs at least one spoke party")
        for q in self.alices:
            if tuple(q.basis) != ("V", "H"):
                raise ValueError("spoke qubits must be declared over (V, H)")
        if tuple(self.bob.basis) != ("P", "B"):
            raise ValueError("hub qubit must be declared over (P, B)")
        return self

    @property
    def n_links(self) -> int:
        return len(self.alices)


class CatResult(NamedTuple):
    yield_probability: float  # probability that every link clicks D1; may underflow to 0
    state: PureState  # normalized state over (a_1..a_N, b); empty at zero yield
    log10_yield: float  # log10 of the yield; finite where the float underflows, -inf at zero yield


def partial_propagator(state: PureState, link: int, bs: BeamSplitter) -> PureState:
    """Evolve one link keeping only its counterfactual-click sector.

    The two compatible device combinations each pick up sqrt(RT); the two
    that never click D1 are dropped, so the norm decreases.  Every kept
    label clicked D1, so the click is not recorded in a register.
    """
    a = alice_register(link)
    if a not in state.registers:
        raise ValueError(f"link index {link} out of range for this state")
    s = math.sqrt(bs.R * bs.T)
    rules = {
        ("P", "H"): [(("P", "H"), s)],
        ("B", "V"): [(("B", "V"), s)],
        ("P", "V"): [],
        ("B", "H"): [],
    }
    return apply_map(state, (BOB_DEVICE, a), rules)


def run_star(config: StarConfig) -> CatResult:
    """Post-select every link on its counterfactual click, one spoke at a time."""
    kept = (*(alice_register(j) for j in range(config.n_links)), BOB_DEVICE)
    # branches near 2**54/sqrt(RT) stay normal times any spoke amplitude (>= 2**-1074)
    lift = 54 - math.frexp(math.sqrt(config.bs.R * config.bs.T))[1]
    exps = dict.fromkeys(config.bob.basis, 0)  # branch amplitude = label amplitude * 2**exps[hub symbol]
    state = product_state([(BOB_DEVICE, config.bob)])
    for j, q in enumerate(config.alices):
        state = _rescaled(state, exps, lift)
        spoke = product_state([(alice_register(j), q)])
        state = partial_propagator(state.tensor(spoke), j, config.bs)
        if not state.amps:
            return CatResult(0.0, PureState(kept, {}), -math.inf)
    state = _rescaled(state, exps, 0)
    top = max(exps[label[0]] for label in state.amps)
    state = PureState._trusted(state.registers, {l: a * 2.0 ** (exps[l[0]] - top) for l, a in state.amps.items()})
    w = state.norm2()
    log10_y = math.log10(w) + 2 * top * math.log10(2.0)
    return CatResult(math.ldexp(w, 2 * top), state.normalized().restrict(kept), log10_y)


def _rescaled(state: PureState, exps: dict[str, int], lift: int) -> PureState:
    """Each hub branch (``label[0]``: the hub register comes first) moved by an exact
    power of two to a magnitude in [2**(lift-1), 2**lift); ``exps`` absorbs the shift."""
    amps = {}
    for label, a in state.amps.items():
        shift = lift - math.frexp(abs(a))[1]
        exps[label[0]] -= shift
        amps[label] = complex(math.ldexp(a.real, shift), math.ldexp(a.imag, shift))
    return PureState._trusted(state.registers, amps)


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
    """Overlap-squared of the post-selected state with the balanced cat;
    0 at zero yield."""
    n = sum(1 for r in result.state.registers if r.kind == "device_a")
    return fidelity_up_to_phase(result.state, ideal_cat(n))
