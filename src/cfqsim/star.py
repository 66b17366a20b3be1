"""Star-network distribution of cat states over independent Michelson links.

One hub party holds a single switch device whose choice acts jointly on N
separate links, one per spoke party.  Conditioning every link on its
counterfactual detector click projects the N+1 devices onto a cat-type
superposition; the per-link evolution restricted to that sector is a
simple non-unitary "keep the compatible branch" map, read off the D1
rows of the N09 round's unit-pair table (``michelson._round_table``): its
factor is -sqrt(R)*sqrt(T) on (H, P) and (V, B), so the cat carries a
global phase (-1)**N.

Given the hub's setting the links are independent, so ``run_star``
carries only the live hub branches.  Per spoke it builds their (hub,
spoke) labels and makes one propagator call (at most 4 labels in, 2 out),
which multiplies each branch by its D1 factor and drops a branch that
gets none: the cost is linear in the number of spokes.  Each branch is a
mantissa times its own power of two, rescaled exactly before every link
to a magnitude near 2**54/sqrt(RT), so no amplitude, and no ratio of the
two, leaves the double range, however small the yield, R or the spoke
amplitudes.  The two-term cat over the devices (a_1..a_N, b), the yield
and its base-10 logarithm are built once, at the end.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple

from .michelson import ALICE_DEVICE, BOB_DEVICE, BeamSplitter, _round_table
from .states import PureState, Qubit, Register, ValidatedTuple, _map_labels, _positions, fidelity_up_to_phase


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


@functools.lru_cache(maxsize=1)
def _d1_rules(bs: BeamSplitter) -> dict:
    """Each (device_b, device_a) pair's D1 factor, read off the D1 rows of
    the N09 round's unit-pair table, as a rule on those registers; a pair
    without D1 maps to none."""
    rules = {(b, a): [] for a in ALICE_DEVICE.alphabet for b in BOB_DEVICE.alphabet}
    for _, symbol, i, j, c in _round_table(bs, "N09"):
        if symbol in ("D1V", "D1H"):
            pair = (BOB_DEVICE.alphabet[j], ALICE_DEVICE.alphabet[i])
            rules[pair] = [(pair, c)]
    return rules


def partial_propagator(state: PureState, link: int, bs: BeamSplitter) -> PureState:
    """Evolve one link keeping only its counterfactual-click sector.

    The compatible device pairs pick up their N09 D1 factor, -sqrt(R)*sqrt(T);
    the two that never click D1 are dropped, so the norm decreases.  Every
    kept label clicked D1, so the click is not recorded in a register.
    """
    a = alice_register(link)
    if a not in state.registers:
        raise ValueError(f"link index {link} out of range for this state")
    return _map_labels(state, _positions(state, (BOB_DEVICE, a)), _d1_rules(bs))


def run_star(config: StarConfig) -> CatResult:
    """Post-select every link on its counterfactual click, one spoke at a time."""
    kept = (*(alice_register(j) for j in range(config.n_links)), BOB_DEVICE)
    # branches near 2**54/sqrt(RT) stay normal times any spoke amplitude (>= 2**-1074)
    lift = 54 - math.frexp(math.sqrt(config.bs.R * config.bs.T))[1]
    # the live hub branches: symbol -> (m, e) for the branch amplitude m * 2**e
    branches = {b: (m, 0) for b, m in config.bob.amplitudes().items()}
    spokes = {b: [] for b in branches}  # each branch's spoke symbols, in link order
    for j, q in enumerate(config.alices):
        lifted = {b: _split(m, e, lift) for b, (m, e) in branches.items()}
        pairs = {(b, x): m * a for b, (m, _) in lifted.items() for x, a in q.amplitudes().items()}
        link = partial_propagator(PureState._trusted((BOB_DEVICE, alice_register(j)), pairs), j, config.bs)
        if not link.amps:
            return CatResult(0.0, PureState(kept, {}), -math.inf)
        branches = {b: (m, lifted[b][1]) for (b, _), m in link.amps.items()}
        for b, x in link.amps:
            spokes[b].append(x)
    branches = {b: _split(m, e, 0) for b, (m, e) in branches.items()}
    top = max(e for _, e in branches.values())
    cat = PureState._trusted(kept, {(*spokes[b], b): m * 2.0 ** (e - top) for b, (m, e) in branches.items()})
    w = cat.norm2()
    log10_y = math.log10(w) + 2 * top * math.log10(2.0)
    return CatResult(math.ldexp(w, 2 * top), cat.normalized(), log10_y)


def _split(m: complex, e: int, lift: int) -> tuple[complex, int]:
    """``m * 2**e`` as ``(m', e')``, ``|m'|`` in [2**(lift-1), 2**lift): an exact power-of-two shift."""
    shift = lift - math.frexp(abs(m))[1]
    return complex(math.ldexp(m.real, shift), math.ldexp(m.imag, shift)), e - shift


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
