"""Chained unbalanced-interferometer evolution with a pass/block obstacle.

An L-cycle chain of beam splitters each rotates the mode by theta; an
obstacle sitting in the upper output absorbs that arm's amplitude whenever
it is in block mode.  With the obstacle in a pass/block superposition the
chain entangles obstacle and mode, and stacking N mode layers under one
jointly-applied obstacle grows the entangled pair into an (N+1)-party cat
state in the long-chain limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import NamedTuple, Sequence

from .states import PureState, Qubit, Register, apply_map, fidelity_up_to_phase, product_state

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


def _mode_registers(state: PureState) -> list[Register]:
    return [r for r in state.registers if r.kind == "zeno_mode"]


def chain_step(state: PureState, theta: float) -> PureState:
    """One beam splitter passage: rotate every unabsorbed mode by theta."""
    c, s = math.cos(theta), math.sin(theta)
    rules = {
        ("0",): [(("0",), c), (("1",), s)],
        ("1",): [(("0",), -s), (("1",), c)],
    }
    for mode in _mode_registers(state):
        state = apply_map(state, (mode,), rules)
    return state


def obstacle_step(state: PureState) -> tuple[PureState, float]:
    """Absorb the upper arm of every layer on the block branch.

    Returns the state without the block-branch labels that have a mode in
    |1>, and the mass (sum of |amplitude|**2) they carried.  Absorbed
    amplitudes never interfere again, so the chain keeps only their total.
    """
    obst_i = state.registers.index(OBSTACLE)
    mode_idx = [state.registers.index(m) for m in _mode_registers(state)]
    kept: dict[tuple[str, ...], complex] = {}
    lost = 0.0
    for label, amp in state.amps.items():
        if label[obst_i] == "block" and any(label[i] == "1" for i in mode_idx):
            lost += abs(amp) ** 2
        else:
            kept[label] = amp
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
    parts = [(OBSTACLE, config.obstacle)]
    parts += [(mode_register(j), "0") for j in range(config.layers)]
    state = product_state(parts)
    absorbed = 0.0
    for k in range(config.L):
        state = chain_step(state, theta)
        if k < config.L - 1 or readout == "after_final_obstacle":
            state, lost = obstacle_step(state)
            absorbed += lost
    # _trusted drops the absorbed label when nothing was absorbed
    final = {**state.amps, ("block", *("absorbed",) * config.layers): complex(math.sqrt(absorbed))}
    return ChainResult(PureState._trusted(state.registers, final), state.norm2())


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
