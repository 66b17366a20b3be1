"""Sparse pure states over labeled registers.

States live in a tensor product of small named subsystems (polarization
devices, pass/block switches, channel arms, detectors, interferometer
modes).  Amplitudes sit in a sparse mapping from composite symbol tuples
to complex numbers and may be sub-normalized: norm**2 carries the
survival probability left behind by non-unitary maps.

Every operation is a pure function over effectively immutable values;
nothing here mutates its inputs, so independent evaluations can run
concurrently without coordination.

Validation happens once, at the boundary: the public ``PureState``
constructor, ``product_state`` and the rule patterns of ``apply_map``
check every register and symbol they are given.  States derived from
already-valid states (map results, sectors, scalings, tensor products,
restrictions) are built with the trusted internal constructor
``PureState._trusted``, which skips the label checks.  Both keep every
nonzero amplitude, however small.  Only a sum makes cancellation dust:
``apply_map`` drops a label that received two or more terms if it ends
at most ``PRUNE_TOL`` times the input norm.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from operator import contains
from typing import Callable, Mapping, Sequence, Union

# A summed amplitude at most this times the input norm is cancellation
# dust; Schmidt weights below it are dropped from the entropy.
PRUNE_TOL = 1e-15

# Unit-norm tolerance for qubits and freshly built product states.
NORM_TOL = 1e-12

# Symbol alphabets per register kind.  Both round variants use the same
# arms and output detectors; the pass/block round holds device_a at V and
# swaps the receiver's polarization switch for two pass/block absorbers.
ALPHABETS: dict[str, tuple[str, ...]] = {
    "device_a": ("V", "H"),  # sender-side polarization chooser
    "device_b": ("P", "B"),  # receiver-side switch setting
    "bob_detector": ("0", "Y"),  # absorption detector inside the switch module
    "arm_a": ("vac", "V", "H"),  # internal interferometer arm
    "arm_b": ("vac", "V", "H"),  # transmission channel arm
    "alice_detector": ("none", "D1V", "D1H", "D2V", "D2H"),  # output detectors
    "zeno_mode": ("0", "1", "absorbed"),  # chained-interferometer mode
    "pb_device": ("pass", "block"),  # polarization-independent switch or obstacle
    "pb_absorber": ("0", "Y"),  # a pass/block party's absorption record
}

Label = tuple[str, ...]
MapRules = Mapping[Label, Sequence[tuple[Label, complex]]]


class Register(tuple):
    """One labeled subsystem: an ALPHABETS kind plus a party/layer index.

    A ``(kind, index)`` tuple underneath, so the register lookups of
    ``tuple.index``, sets and dicts compare and hash at C speed.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int = 0) -> "Register":
        if kind not in ALPHABETS:
            raise ValueError(f"unknown register kind {kind!r}")
        if index < 0:
            raise ValueError("register index must be nonnegative")
        return super().__new__(cls, (kind, index))

    def __getnewargs__(self) -> tuple[str, int]:  # copy/pickle: __new__(cls, kind, index)
        return tuple(self)

    @property
    def kind(self) -> str:
        return self[0]

    @property
    def index(self) -> int:
        return self[1]

    @property
    def alphabet(self) -> tuple[str, ...]:
        return ALPHABETS[self[0]]

    def __repr__(self) -> str:
        return f"{self.kind}[{self.index}]"


@dataclass(frozen=True)
class Qubit:
    """Normalized amplitude pair over a declared two-symbol basis."""

    basis: tuple[str, str]
    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        if len(self.basis) != 2 or self.basis[0] == self.basis[1]:
            raise ValueError("qubit basis must be two distinct symbols")
        if not (cmath.isfinite(self.amp0) and cmath.isfinite(self.amp1)):
            raise ValueError("qubit amplitudes must be finite")
        n2 = abs(self.amp0) * abs(self.amp0) + abs(self.amp1) * abs(self.amp1)  # inf, not OverflowError
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValueError(f"qubit amplitudes not normalized (norm^2 = {n2!r})")

    @classmethod
    def balanced(cls, basis: Sequence[str]) -> "Qubit":
        r = 1.0 / math.sqrt(2.0)
        return cls(tuple(basis), r, r)

    def amplitudes(self) -> dict[str, complex]:
        return {self.basis[0]: complex(self.amp0), self.basis[1]: complex(self.amp1)}


def _checked_registers(registers) -> tuple[Register, ...]:
    """The registers as a tuple, once each is known to be a distinct Register."""
    registers = tuple(registers)
    if not all(isinstance(r, Register) for r in registers):
        raise ValueError("registers must be Register instances")
    if len(set(registers)) != len(registers):
        raise ValueError("duplicate registers in state")
    return registers


class PureState:
    """Sub-normalized sparse state over an ordered register tuple."""

    __slots__ = ("registers", "amps")

    def __init__(self, registers: Sequence[Register], amps: Mapping[Label, complex]):
        registers = _checked_registers(registers)
        clean: dict[Label, complex] = {}
        for label, amp in amps.items():
            label = tuple(label)
            if len(label) != len(registers):
                raise ValueError(f"label {label} does not match {len(registers)} registers")
            for reg, sym in zip(registers, label):
                if sym not in reg.alphabet:
                    raise ValueError(f"symbol {sym!r} outside alphabet of {reg!r}")
            a = complex(amp)
            if a:
                clean[label] = a
        self.registers = registers
        self.amps = clean

    @classmethod
    def _trusted(cls, registers: tuple[Register, ...], amps: Mapping[Label, complex]) -> "PureState":
        """Build from distinct registers and complex amplitudes on labels
        already known to fit them; drops exact zeros like ``__init__``."""
        state = cls.__new__(cls)
        state.registers = registers
        state.amps = {l: a for l, a in amps.items() if a}
        return state

    def norm2(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def normalized(self) -> "PureState":
        state, n2 = _rescued(self)
        if n2 == 0.0:
            raise ValueError("cannot normalize a zero state")
        n = math.sqrt(n2)
        return PureState._trusted(state.registers, {l: a / n for l, a in state.amps.items()})

    def tensor(self, other: "PureState") -> "PureState":
        if set(self.registers) & set(other.registers):
            raise ValueError("tensor factors share registers")
        amps = {
            l1 + l2: a1 * a2
            for l1, a1 in self.amps.items()
            for l2, a2 in other.amps.items()
        }
        return PureState._trusted(self.registers + other.registers, amps)

    def restrict(self, keep: Sequence[Register]) -> "PureState":
        """Drop registers whose symbol is a function of the kept label.

        This is a coherent uncompute of redundant records (e.g. a detector
        tag perfectly correlated with a device register), not a partial
        trace; it raises if a dropped register carries independent
        information.
        """
        keep = _checked_registers(keep)
        keep_idx = [self.registers.index(r) for r in keep]
        drop_idx = [i for i in range(len(self.registers)) if i not in keep_idx]
        seen: dict[Label, Label] = {}
        out: dict[Label, complex] = {}
        for label, amp in self.amps.items():
            k = tuple(label[i] for i in keep_idx)
            d = tuple(label[i] for i in drop_idx)
            if seen.setdefault(k, d) != d:
                raise ValueError("dropped registers carry independent information")
            out[k] = amp
        return PureState._trusted(keep, out)

    def __mul__(self, scalar: complex) -> "PureState":
        return PureState._trusted(
            self.registers, {l: complex(a * scalar) for l, a in self.amps.items()}
        )

    def __repr__(self) -> str:
        return f"PureState({len(self.amps)} labels over {list(self.registers)})"


def _rescued(state: PureState) -> tuple[PureState, float]:
    """The state and its norm**2, first scaled by 2**600 (exact) if that is below the normal range."""
    n2 = state.norm2()
    if n2 < sys.float_info.min and state.amps:
        return _rescued(state * 2.0**600)
    return state, n2


def _drop_dust(amps: dict[Label, complex], summed: list[Label], norm: Callable[[], float]) -> dict[Label, complex]:
    """``amps`` less the ``summed`` labels at most ``PRUNE_TOL * norm()`` in size."""
    if summed:
        tol = PRUNE_TOL * norm()
        for label in summed:
            if label in amps and abs(amps[label]) <= tol:
                del amps[label]
    return amps


def product_state(parts: Sequence[tuple[Register, Union[Qubit, str]]]) -> PureState:
    """Tensor product of per-register qubits and fixed symbols."""
    registers = _checked_registers(r for r, _ in parts)
    amps: dict[Label, complex] = {(): 1.0 + 0j}
    for reg, value in parts:
        if isinstance(value, Qubit):
            for sym in value.basis:
                if sym not in reg.alphabet:
                    raise ValueError(f"qubit symbol {sym!r} outside alphabet of {reg!r}")
            factor = value.amplitudes()
        else:
            if value not in reg.alphabet:
                raise ValueError(f"symbol {value!r} outside alphabet of {reg!r}")
            factor = {value: 1.0 + 0j}
        amps = {
            label + (sym,): amp * a
            for label, amp in amps.items()
            for sym, a in factor.items()
        }
    return PureState._trusted(registers, amps)


def apply_map(state: PureState, on: Sequence[Register], rules: MapRules) -> PureState:
    """Apply a sparse linear map given by per-pattern output branches.

    ``rules`` maps an input symbol pattern over the ``on`` registers to the
    list of (output pattern, coefficient) branches it fans out into; input
    patterns not listed act as the identity.  An empty branch list deletes
    the amplitude, so non-unitary (norm-decreasing) maps are expressible.
    """
    on = tuple(on)
    try:
        idx = tuple(state.registers.index(r) for r in on)
    except ValueError:
        raise ValueError("map touches a register absent from the state") from None
    alphabets = [state.registers[i].alphabet for i in idx]
    for pattern, branches in rules.items():
        if len(pattern) != len(on) or not all(map(contains, alphabets, pattern)):
            raise ValueError(f"input pattern {pattern} outside register alphabets")
        for out_pat, _ in branches:
            if len(out_pat) != len(on) or not all(map(contains, alphabets, out_pat)):
                raise ValueError(f"output pattern {out_pat} outside register alphabets")
    out: dict[Label, complex] = {}
    summed: list[Label] = []  # labels that received a second term
    for label, amp in state.amps.items():
        key = tuple(label[i] for i in idx)
        branches = rules.get(key)
        if branches is None:
            if label in out:
                out[label] += amp
                summed.append(label)
            else:
                out[label] = amp
            continue
        for out_pat, coeff in branches:
            new = list(label)
            for i, sym in zip(idx, out_pat):
                new[i] = sym
            t = tuple(new)
            if t in out:
                out[t] += amp * coeff
                summed.append(t)
            else:
                out[t] = amp * coeff
    return PureState._trusted(state.registers, _drop_dust(out, summed, state.norm))


def sector(state: PureState, register: Register, symbols: Sequence[str]) -> PureState:
    """Unnormalized projection onto the labels carrying one of ``symbols``."""
    i = state.registers.index(register)
    allowed = set(symbols)
    return PureState._trusted(
        state.registers, {l: a for l, a in state.amps.items() if l[i] in allowed}
    )


def postselect(
    state: PureState, register: Register, symbol: str
) -> tuple[float, PureState]:
    """Condition on one register symbol.

    Returns the outcome probability (relative to the state's own norm**2)
    and the normalized posterior; an empty match yields probability 0 and
    an empty state, a match with labels a posterior even where p underflows.
    """
    state, total = _rescued(state)
    matched = sector(state, register, (symbol,))
    if not matched.amps:
        return 0.0, matched
    return matched.norm2() / total, matched.normalized()


def overlap(s: PureState, t: PureState) -> complex:
    if s.registers != t.registers:
        raise ValueError("states live over mismatched registers")
    small, big = (s.amps, t.amps) if len(s.amps) <= len(t.amps) else (t.amps, s.amps)
    acc = 0j
    for label in small:
        if label in big:
            acc += s.amps[label].conjugate() * t.amps[label]
    return acc


def fidelity_up_to_phase(s: PureState, t: PureState) -> float:
    """|<s|t>|**2 on the normalized states; invariant under global phases."""
    (s, ns), (t, nt) = _rescued(s), _rescued(t)
    return float(abs(overlap(s, t)) ** 2 / ns / nt) if ns and nt else 0.0


def _hermitian_eigenvalues(g: list[list[complex]]) -> list[float]:
    """Eigenvalues of a small Hermitian matrix by cyclic complex Jacobi.

    Each rotation on the pair (p, q) first rephases row and column q so
    that ``g[p][q]`` is real and nonnegative, then applies the real Jacobi
    rotation that zeroes it (Numerical Recipes' ``jacobi``).  A 1x1 matrix
    needs no rotation and a 2x2 matrix exactly one.  Overwrites ``g``.
    """
    d = len(g)
    # An off-diagonal entry below 1e-30 of the trace moves no eigenvalue by
    # more than itself, so it is left alone; cyclic Jacobi converges
    # quadratically, so a handful of sweeps reach that for small d.
    tiny = 1e-30 * sum(abs(g[k][k].real) for k in range(d))
    for _ in range(64):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                b = abs(g[p][q])
                if b <= tiny:
                    continue
                rotated = True
                phase = g[p][q].conjugate() / b  # g[p][q] * phase == b
                a, c = g[p][p].real, g[q][q].real
                theta = (c - a) / (2.0 * b)
                t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
                cos = 1.0 / math.sqrt(t * t + 1.0)
                sin = t * cos
                g[p][p] = complex(a - t * b)
                g[q][q] = complex(c + t * b)
                g[p][q] = g[q][p] = 0j
                for r in range(d):
                    if r == p or r == q:
                        continue
                    x, y = g[r][p], g[r][q] * phase
                    g[r][p] = cos * x - sin * y
                    g[r][q] = sin * x + cos * y
                    g[p][r] = g[r][p].conjugate()
                    g[q][r] = g[r][q].conjugate()
        if not rotated:
            return [g[k][k].real for k in range(d)]
    raise ArithmeticError("Jacobi eigenvalue iteration did not converge")


def entanglement_entropy(state: PureState, partition: Sequence[Register]) -> float:
    """Base-2 von Neumann entropy of the reduced state on ``partition``.

    The amplitudes form a bipartite matrix M (rows: the partition's label,
    columns: the rest).  The Schmidt weights are the eigenvalues of the
    Gram matrix M M^dagger / norm**2, built on whichever side has fewer
    distinct labels and diagonalized by ``_hermitian_eigenvalues``;
    symmetric under complementing the partition.
    """
    part = set(partition)
    regs = set(state.registers)
    if not part or part == regs:
        raise ValueError("partition must be a nonempty proper subset of the registers")
    if not part <= regs:
        raise ValueError("partition contains registers absent from the state")
    state, n2 = _rescued(state)
    if n2 == 0.0:
        raise ValueError("entropy of a zero state is undefined")
    row_idx = [i for i, r in enumerate(state.registers) if r in part]
    col_idx = [i for i, r in enumerate(state.registers) if r not in part]
    rows: dict[Label, dict[Label, complex]] = {}
    cols: dict[Label, dict[Label, complex]] = {}
    for label, amp in state.amps.items():
        r = tuple(label[i] for i in row_idx)
        c = tuple(label[i] for i in col_idx)
        rows.setdefault(r, {})[c] = amp
        cols.setdefault(c, {})[r] = amp
    # The Gram matrix of the smaller side's vectors; M M^dagger and
    # M^T conj(M) share their nonzero eigenvalues.
    vecs = list((rows if len(rows) <= len(cols) else cols).values())
    gram = [
        [
            sum(a * v.get(x, 0j).conjugate() for x, a in u.items()) / n2
            for v in vecs
        ]
        for u in vecs
    ]
    p = [w for w in _hermitian_eigenvalues(gram) if w > PRUNE_TOL]
    total = sum(p)
    p = [w / total for w in p]
    return -sum(w * math.log2(w) for w in p) + 0.0  # +0.0 folds -0.0 into 0.0


def format_complex(z: complex) -> str:
    """Amplitude literal: 're' when purely real, else 're,im'."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g},{z.imag:.12g}"


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"malformed complex literal {text!r}; expected 're' or 're,im'")
