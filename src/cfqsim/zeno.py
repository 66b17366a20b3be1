"""Chained unbalanced-interferometer evolution with a pass/block obstacle.

An L-cycle chain of beam splitters each rotates the mode by theta; an
obstacle sitting in the upper output absorbs that arm's amplitude whenever
it is in block mode.  With the obstacle in a pass/block superposition the
chain entangles obstacle and mode, and stacking N mode layers under one
jointly-applied obstacle grows the entangled pair into an (N+1)-party cat
state in the long-chain limit.  On each obstacle branch the layers evolve
independently, so ``run_chain`` steps one layer (at most 4 labels) and
builds the layered state once.  A step is the 2x2 rotation R(theta) on
each branch's (mode 0, mode 1) amplitude pair; the obstacle then removes
the block branch's mode 1 amplitude, which ``run_chain`` pops in place
from the rotated state it owns (``obstacle_step`` is the copying
reference).  ``czqe --sweep``, the convergence scan, compares one
``run_chain`` per L with the ``asymptotic_limit`` state.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import product as iter_product
from typing import NamedTuple

from .states import Label, PureState, Qubit, Register, ValidatedTuple

OBSTACLE = Register("pb_device", 0)
_ONE_LAYER = (OBSTACLE, Register("zeno_mode", 0))  # the registers of every chain step

READOUTS = ("after_final_bs", "after_final_obstacle")


def mode_register(layer: int) -> Register:
    return Register("zeno_mode", layer)


def _count(value: int, name: str) -> int:
    """``value`` as an int, once it is known to be an integer >= 1."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


class ChainConfig(ValidatedTuple, namedtuple("ChainConfig", "L theta obstacle layers")):
    """An L-cycle chain; theta defaults to pi / (2 L)."""

    __slots__ = ()

    def __new__(
        cls, L: int, theta: float | None = None, obstacle: Qubit = Qubit.balanced(("pass", "block")), layers: int = 1
    ) -> ChainConfig:
        self = super().__new__(cls, _count(L, "cycle count L"), theta, obstacle, _count(layers, "layer count"))
        if tuple(self.obstacle.basis) != ("pass", "block"):
            raise ValueError("obstacle qubit must be declared over (pass, block)")
        try:
            if not 0.0 < self.resolved_theta <= math.pi / 2:
                raise ValueError("theta must lie in (0, pi/2]")
        except TypeError:
            raise ValueError("theta must be a real number") from None
        return self

    @property
    def resolved_theta(self) -> float:
        return math.pi / (2 * self.L) if self.theta is None else self.theta


class ChainResult(NamedTuple):
    final: PureState  # unabsorbed labels plus ("block", "absorbed", ...) at sqrt(absorbed mass)
    survival: float  # norm**2 of the unabsorbed sector


def _check_one_layer(state: PureState) -> None:
    if state.registers != _ONE_LAYER:
        raise ValueError("chain steps act on one layer: registers (pb_device[0], zeno_mode[0])")


def chain_step(state: PureState, theta: float) -> PureState:
    """One beam splitter passage: rotate the mode by theta on both branches.

    Each obstacle branch b carries the 2x2 rotation R(theta) on its
    (b, "0") and (b, "1") amplitudes; other mode symbols pass through.
    Every rotated amplitude is kept, however small its sum: the residue
    of a cancelling pair is a real amplitude, as in ``chain_closed_form``.
    """
    _check_one_layer(state)
    c, s = math.cos(theta), math.sin(theta)
    ns = -s
    out: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        b, x = label
        if x == "0":
            t0, t1 = amp * c, amp * s
        elif x == "1":
            t0, t1 = amp * ns, amp * c
        else:
            out[label] = amp
            continue
        l0, l1 = (b, "0"), (b, "1")
        # (b, "0") and (b, "1") always enter together; the branch's first input
        # is assigned, as adding it to 0j would turn a -0.0 part into +0.0
        if l0 in out:
            out[l0] += t0
            out[l1] += t1
        else:
            out[l0], out[l1] = t0, t1
    return PureState._trusted(state.registers, out)


def obstacle_step(state: PureState) -> tuple[PureState, float]:
    """Absorb the upper arm on the block branch: returns the state without
    its ("block", "1") label and the mass that label carried.  Absorbed
    amplitudes never interfere again, so the chain keeps only their total.
    ``run_chain`` absorbs in place; this copying map is its reference."""
    _check_one_layer(state)
    amps = dict(state.amps)  # _trusted keeps the dict it is handed
    lost = abs(amps.pop(("block", "1"), 0j)) ** 2
    return PureState._trusted(state.registers, amps), lost


def run_chain(config: ChainConfig, readout: str = "after_final_bs") -> ChainResult:
    """Evolve the chain and report the full state plus survival probability.

    ``after_final_bs`` reads out after L beam splitter passages with L-1
    obstacle interactions in between; ``after_final_obstacle`` appends the
    L-th obstacle interaction, which is the readout under which a pure
    blocker leaves the mode amplitude cos(theta)**L.

    Each obstacle interaction pops ("block", "1") from the rotated state in
    place, as ``obstacle_step`` would from a copy: ``chain_step`` builds a
    fresh dict on every call, and only this loop holds it.
    """
    if readout not in READOUTS:
        raise ValueError(f"unknown readout {readout!r}")
    theta = config.resolved_theta
    # one layer, both branches at unit weight
    state = PureState._trusted(_ONE_LAYER, {("pass", "0"): 1 + 0j, ("block", "0"): 1 + 0j})
    loss = 0.0  # mass one layer of the block branch loses to the obstacle
    for k in range(config.L):
        state = chain_step(state, theta)
        if k < config.L - 1 or readout == "after_final_obstacle":
            loss += abs(state.amps.pop(("block", "1"), 0j)) ** 2
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
    layers = _count(layers, "layer count")
    regs = (OBSTACLE, *(mode_register(j) for j in range(layers)))
    return PureState(
        regs,
        {
            ("pass", *("1",) * layers): obstacle.amp0,
            ("block", *("0",) * layers): obstacle.amp1,
        },
    )

