"""Chained unbalanced-interferometer evolution with a pass/block obstacle.

An L-cycle chain of beam splitters each rotates the mode by theta; an
obstacle sitting in the upper output absorbs that arm's amplitude whenever
it is in block mode.  With the obstacle in a pass/block superposition the
chain entangles obstacle and mode, and stacking N mode layers under one
jointly-applied obstacle grows the entangled pair into an (N+1)-party cat
state in the long-chain limit.  On each obstacle branch the layers evolve
independently, so ``run_chain`` steps one layer (at most 4 labels) and
builds the layered state once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import NamedTuple, Sequence

from .states import PureState, Qubit, Register, apply_map, fidelity_up_to_phase

OBSTACLE = Register("pb_device", 0)

READOUTS = ("after_final_bs", "after_final_obstacle")


def mode_register(layer: int) -> Register:
    return Register("zeno_mode", layer)


@dataclass(frozen=True)
class ChainConfig:
    L: int
    theta: float | None = None  # defaults to pi / (2 L)
    obstacle: Qubit = Qubit.balanced(("pass", "block"))
    layers: int = 1

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError("cycle count L must be >= 1")
        if self.layers < 1:
            raise ValueError("layer count must be >= 1")
        if tuple(self.obstacle.basis) != ("pass", "block"):
            raise ValueError("obstacle qubit must be declared over (pass, block)")
        theta = self.resolved_theta
        if not 0.0 < theta <= math.pi / 2:
            raise ValueError("theta must lie in (0, pi/2]")

    @property
    def resolved_theta(self) -> float:
        return math.pi / (2 * self.L) if self.theta is None else self.theta


@dataclass(frozen=True)
class ChainResult:
    final: PureState  # unabsorbed labels plus ("block", "absorbed", ...) at sqrt(absorbed mass)
    survival: float  # norm**2 of the unabsorbed sector


class ScanRow(NamedTuple):
    L: int
    fidelity: float
    survival: float


def _check_one_layer(state: PureState) -> None:
    if state.registers != (OBSTACLE, mode_register(0)):
        raise ValueError("chain steps act on one layer: registers (pb_device[0], zeno_mode[0])")


def chain_step(state: PureState, theta: float) -> PureState:
    """One beam splitter passage: rotate the mode by theta on both branches."""
    _check_one_layer(state)
    c, s = math.cos(theta), math.sin(theta)
    rules = {("0",): [(("0",), c), (("1",), s)], ("1",): [(("0",), -s), (("1",), c)]}
    return apply_map(state, state.registers[1:], rules)


def obstacle_step(state: PureState) -> tuple[PureState, float]:
    """Absorb the upper arm on the block branch: returns the state without
    its ("block", "1") label and the mass that label carried.  Absorbed
    amplitudes never interfere again, so the chain keeps only their total."""
    _check_one_layer(state)
    kept = dict(state.amps)
    lost = abs(kept.pop(("block", "1"), 0j)) ** 2
    return PureState._trusted(state.registers, kept), lost


def run_chain(config: ChainConfig, readout: str = "after_final_bs") -> ChainResult:
    """Evolve the chain and report the full state plus survival probability.

    ``after_final_bs`` reads out after L beam splitter passages with L-1
    obstacle interactions in between; ``after_final_obstacle`` appends the
    L-th obstacle interaction, which is the readout under which a pure
    blocker leaves the mode amplitude cos(theta)**L.
    """
    if readout not in READOUTS:
        raise ValueError(f"unknown readout {readout!r}")
    theta = config.resolved_theta
    # one layer, both branches at unit weight
    state = PureState._trusted(
        (OBSTACLE, mode_register(0)), {("pass", "0"): 1 + 0j, ("block", "0"): 1 + 0j}
    )
    loss = 0.0  # mass one layer of the block branch loses to the obstacle
    for k in range(config.L):
        state = chain_step(state, theta)
        if k < config.L - 1 or readout == "after_final_obstacle":
            state, lost = obstacle_step(state)
            loss += lost
    # a layered label's amplitude is its branch's obstacle amplitude times
    # the one-layer amplitude of each layer's symbol on that branch
    one = {b: [(x, a) for (c, x), a in state.amps.items() if c == b] for b in ("pass", "block")}
    amps = {(b,): w for b, w in config.obstacle.amplitudes().items() if w}
    for _ in range(config.layers):
        amps = {l + (x,): amp * a for l, amp in amps.items() for x, a in one[l[0]]}
    survival = float(sum(abs(a) ** 2 for a in amps.values()))
    # each layer keeps 1 - loss of the block branch: 1 - (1 - loss)**layers is absorbed
    lost = 1.0 if loss >= 1.0 else -math.expm1(config.layers * math.log1p(-loss))
    # _trusted drops the absorbed label when nothing was absorbed
    amps[("block", *("absorbed",) * config.layers)] = abs(config.obstacle.amp1) * math.sqrt(lost) + 0j
    regs = (OBSTACLE, *(mode_register(j) for j in range(config.layers)))
    return ChainResult(PureState._trusted(regs, amps), survival)


def chain_closed_form(
    obstacle: Qubit, L: int, theta: float, layers: int = 1, readout: str = "after_final_bs"
) -> PureState:
    """Exact unabsorbed-sector state of the chain, derived symbolically.

    The pass branch sees L compounding rotations; the block branch loses a
    factor cos(theta) per obstacle interaction, leaving each layer in
    cos(theta)|0> + sin(theta)|1> after the final splitter (or in |0> with
    one more cos(theta) after the final obstacle).
    """
    if readout not in READOUTS:
        raise ValueError(f"unknown readout {readout!r}")
    a_pass, a_block = obstacle.amp0, obstacle.amp1
    regs = (OBSTACLE, *(mode_register(j) for j in range(layers)))
    amps: dict[tuple[str, ...], complex] = {}

    def add_branch(switch: str, coeff: complex, mode_amps: dict[str, complex]) -> None:
        for bits in iter_product(("0", "1"), repeat=layers):
            amp = coeff
            for b in bits:
                amp *= mode_amps[b]
            if amp != 0:
                label = (switch, *bits)
                amps[label] = amps.get(label, 0j) + amp

    c_l, s_l = math.cos(L * theta), math.sin(L * theta)
    add_branch("pass", a_pass, {"0": c_l, "1": s_l})
    c, s = math.cos(theta), math.sin(theta)
    if readout == "after_final_bs":
        decay = c ** ((L - 1) * layers)
        add_branch("block", a_block * decay, {"0": c, "1": s})
    else:
        amps[("block", *("0",) * layers)] = a_block * c ** (L * layers)
    return PureState(regs, amps)


def asymptotic_limit(obstacle: Qubit, layers: int = 1) -> PureState:
    """Infinite-chain output: pass freezes every layer in |1>, block in |0>."""
    if layers < 1:
        raise ValueError("layer count must be >= 1")
    regs = (OBSTACLE, *(mode_register(j) for j in range(layers)))
    return PureState(
        regs,
        {
            ("pass", *("1",) * layers): obstacle.amp0,
            ("block", *("0",) * layers): obstacle.amp1,
        },
    )


def convergence_scan(
    obstacle: Qubit,
    layers: int,
    L_values: Sequence[int],
    readout: str = "after_final_bs",
) -> list[ScanRow]:
    """Fidelity to the infinite-chain state and survival, per cycle count.

    Each chain runs at its own default angle pi/(2 L).  Fidelity is taken
    between the full normalized output (absorption loss included) and the
    ideal limit state.
    """
    if not L_values:
        raise ValueError("empty list of cycle counts")
    target = asymptotic_limit(obstacle, layers)
    rows = []
    for L in L_values:
        result = run_chain(ChainConfig(L=int(L), obstacle=obstacle, layers=layers), readout)
        rows.append(
            ScanRow(int(L), fidelity_up_to_phase(result.final, target), result.survival)
        )
    return rows
