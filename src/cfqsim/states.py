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
constructor, ``product_state``, the rule patterns of ``apply_map`` and
the ``keep`` registers of ``PureState.restrict`` check every register and
symbol they are given on every call.  Module constants are not input:
the engines' fixed rules run only ``apply_map``'s label loop, and
``michelson``'s keep tuples go to ``_restricted``, unchecked; the tests
pin both against the checked API.  Each value type built on
``ValidatedTuple`` (``Register``, ``Qubit``, the engines'
configs) checks its fields in ``__new__``, which ``_replace``,
``_make``, copies and pickles go through too.  States derived from
already-valid states (map results, sectors, scalings, restrictions) are
built with the trusted internal constructor ``PureState._trusted``,
which skips the label checks and takes ownership of the amplitude dict
it is handed: every caller passes a dict it has just built, and the dict
is copied only when an exact zero must go.  A caller that starts from
another state's ``amps`` copies them first.  Both constructors, and so
every operation, keep every nonzero amplitude, however small: nothing is
pruned but exact zeros.

``product_state``, ``apply_map`` with its checker ``_check_patterns``,
``sector``, ``postselect`` and ``PureState.restrict`` have no runtime
caller: no round, transfer, star, chain or CLI path runs them.  They are
the checked library API, and the tests build their reference maps and
oracles from them.

``_map_labels`` builds each output label in two C calls: it joins the
input label and the branch's output pattern, and reads the result through
a projection cached per (register count, positions), ``_splice``, which
takes each mapped position's symbol from the pattern and every other one
from the label.  A register named twice in ``apply_map``'s ``on`` would
get two output symbols, one of which would silently win, so ``apply_map``
refuses it, and an output pattern that is not a tuple, which cannot be
joined.

Every split the engines make has a side with at most two distinct labels,
so ``entanglement_entropy`` needs one 2x2 rotation.  It takes both entropy
terms from the smaller Schmidt weight, the larger's through ``log1p``, and
keeps that weight however small.  Amplitudes here are numbers only;
``cli`` reads and prints them as text.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections import namedtuple
from operator import contains, itemgetter
from typing import Callable, Mapping, Sequence, Union

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


class ValidatedTuple:
    """Base of a named tuple whose ``__new__`` checks its fields: ``_make``
    (and so ``_replace``), copies and pickles all build through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class Register(ValidatedTuple, namedtuple("Register", "kind index")):
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
        return tuple.__new__(cls, (kind, index))  # hot path: skips namedtuple's Python __new__

    @property
    def alphabet(self) -> tuple[str, ...]:
        return ALPHABETS[self[0]]

    def __repr__(self) -> str:
        return f"{self.kind}[{self.index}]"


class Qubit(ValidatedTuple, namedtuple("Qubit", "basis amp0 amp1")):
    """Normalized amplitude pair over a declared two-symbol basis."""

    __slots__ = ()

    def __new__(cls, basis: tuple[str, str], amp0: complex, amp1: complex) -> "Qubit":
        self = super().__new__(cls, basis, amp0, amp1)
        if len(self.basis) != 2 or self.basis[0] == self.basis[1]:
            raise ValueError("qubit basis must be two distinct symbols")
        if not (cmath.isfinite(self.amp0) and cmath.isfinite(self.amp1)):
            raise ValueError("qubit amplitudes must be finite")
        n2 = abs(self.amp0) * abs(self.amp0) + abs(self.amp1) * abs(self.amp1)  # inf, not OverflowError
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValueError(f"qubit amplitudes not normalized (norm^2 = {n2!r})")
        return self

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
    def _trusted(cls, registers: tuple[Register, ...], amps: dict[Label, complex]) -> "PureState":
        """Build from distinct registers and complex amplitudes on labels
        already known to fit them; drops exact zeros like ``__init__``.

        The state takes ownership of ``amps``: a dict with no exact zero
        becomes its ``amps`` as it is, so the caller hands over a dict it
        has just built and keeps no other reference to it.  Only a dict
        with a zero is copied, without the zeros and in the same order."""
        state = cls.__new__(cls)
        state.registers = registers
        state.amps = amps if all(amps.values()) else {l: a for l, a in amps.items() if a}
        return state

    def norm2(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def normalized(self) -> "PureState":
        state, n2 = _rescued(self)
        if n2 == 0.0:
            raise ValueError("cannot normalize a zero state")
        n = math.sqrt(n2)
        return PureState._trusted(state.registers, {l: a / n for l, a in state.amps.items()})

    def restrict(self, keep: Sequence[Register]) -> "PureState":
        """Drop registers whose symbol is a function of the kept label.

        This is a coherent uncompute of redundant records (e.g. a detector
        tag perfectly correlated with a device register), not a partial
        trace; it raises if a dropped register carries independent
        information.  ``keep`` is checked on every call;
        ``michelson._outcomes`` calls ``_restricted`` directly, with its
        module's fixed keep tuples.
        """
        return _restricted(self, _checked_registers(keep))

    def __mul__(self, scalar: complex) -> "PureState":
        return PureState._trusted(
            self.registers, {l: complex(a * scalar) for l, a in self.amps.items()}
        )

    def __repr__(self) -> str:
        return f"PureState({len(self.amps)} labels over {list(self.registers)})"


@functools.lru_cache(maxsize=256)
def _projection(idx: tuple[int, ...]) -> Callable[[Label], Label]:
    """The label's symbols at positions ``idx``, as a tuple, in C: a single
    position or none goes through a slice, where ``itemgetter`` would
    return a bare symbol or refuse to be built.  Cached per position
    tuple, so the maps and the entropy build each projection once."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0, 0))


@functools.lru_cache(maxsize=256)
def _splice(n: int, idx: tuple[int, ...]) -> Callable[[Label], Label]:
    """The projection that reads an ``n``-symbol label with the symbols of
    an output pattern over positions ``idx`` written in, from the label and
    the pattern joined: position i reads ``n + idx.index(i)`` where i is in
    ``idx``, else i.  ``_map_labels`` builds each output label as
    ``splice(label + out_pat)``, two C calls."""
    return _projection(tuple(n + idx.index(i) if i in idx else i for i in range(n)))


@functools.lru_cache(maxsize=64)
def _restrict_plan(
    registers: tuple[Register, ...], keep: tuple[Register, ...]
) -> tuple[Callable[[Label], Label], Callable[[Label], Label]]:
    """The kept and the dropped projections of a label over ``registers``."""
    try:
        keep_idx = tuple(map(registers.index, keep))
    except ValueError:
        raise ValueError("restrict keeps a register absent from the state") from None
    drop_idx = tuple(i for i in range(len(registers)) if i not in keep_idx)
    return _projection(keep_idx), _projection(drop_idx)


def _restricted(state: PureState, keep: tuple[Register, ...]) -> PureState:
    """``state.restrict(keep)`` for a ``keep`` of distinct registers, its
    label positions looked up once per register tuple and keep tuple."""
    kept, dropped = _restrict_plan(state.registers, keep)
    seen: dict[Label, Label] = {}
    out: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        k, d = kept(label), dropped(label)
        if seen.setdefault(k, d) != d:
            raise ValueError("dropped registers carry independent information")
        out[k] = amp
    return PureState._trusted(keep, out)


def _rescued(state: PureState) -> tuple[PureState, float]:
    """The state and its norm**2, first scaled by 2**600 (exact) if that is below the normal range."""
    n2 = state.norm2()
    if n2 < sys.float_info.min and state.amps:
        return _rescued(state * 2.0**600)
    return state, n2


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
    idx = _positions(state, on)
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate registers in map")
    _check_patterns([state.registers[i].alphabet for i in idx], rules)
    return _map_labels(state, idx, rules)


def _positions(state: PureState, on: Sequence[Register]) -> tuple[int, ...]:
    """Where each of the ``on`` registers sits in the state's register tuple."""
    try:
        return tuple(map(state.registers.index, on))
    except ValueError:
        raise ValueError("map touches a register absent from the state") from None


def _check_patterns(alphabets: Sequence[Sequence[str]], rules: MapRules) -> None:
    """Raise ``ValueError`` unless every input and output pattern of
    ``rules`` has one symbol per alphabet, each inside its alphabet, and
    every output pattern is a tuple, which ``_map_labels`` joins to a label."""
    n = len(alphabets)
    for pattern, branches in rules.items():
        if len(pattern) != n or not all(map(contains, alphabets, pattern)):
            raise ValueError(f"input pattern {pattern} outside register alphabets")
        for out_pat, _ in branches:
            if not isinstance(out_pat, tuple):
                raise ValueError(f"output pattern {out_pat!r} is not a tuple")
            if len(out_pat) != n or not all(map(contains, alphabets, out_pat)):
                raise ValueError(f"output pattern {out_pat} outside register alphabets")


def _map_labels(state: PureState, idx: tuple[int, ...], rules: MapRules) -> PureState:
    """The label loop of ``apply_map`` over the registers at positions
    ``idx``, for rules whose patterns fit them: ``apply_map``'s, which
    ``_check_patterns`` has passed, or an engine's fixed rules.  A sum
    that cancels to an exact zero goes; any other is kept."""
    key = _projection(idx)
    splice = _splice(len(state.registers), idx)
    out: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        branches = rules.get(key(label))
        if branches is None:
            if label in out:
                out[label] += amp
            else:
                out[label] = amp
            continue
        for out_pat, coeff in branches:
            t = splice(label + out_pat)
            term = amp * coeff
            if t in out:
                out[t] += term
            else:
                out[t] = term
    return PureState._trusted(state.registers, out)


def sector(state: PureState, register: Register, symbols: Sequence[str]) -> PureState:
    """Unnormalized projection onto the labels carrying one of ``symbols``."""
    try:
        i = state.registers.index(register)
    except ValueError:
        raise ValueError("sector reads a register absent from the state") from None
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


def entanglement_entropy(state: PureState, partition: Sequence[Register]) -> float:
    """Base-2 von Neumann entropy of the reduced state on ``partition``.

    The amplitudes form a bipartite matrix M (rows: the partition's label,
    columns: the rest).  Every state cfqsim splits (the round's posteriors,
    the two-term cat) has a side with at most two distinct labels, so the
    reduced state has rank at most two: its Schmidt weights are the
    eigenvalues of that side's 2x2 Gram matrix / norm**2, which one Jacobi
    rotation gives.  The entropy is then that of the smaller weight's
    share w, -(w log2 w + (1 - w) log2(1 - w)), the second term by
    ``log1p``; a share of no more than 0 gives 0.  Symmetric under
    complementing the partition; raises ``ValueError`` when both sides
    have more than two distinct labels.
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
    row = _projection(tuple(i for i, r in enumerate(state.registers) if r in part))
    col = _projection(tuple(i for i, r in enumerate(state.registers) if r not in part))
    rows: dict[Label, dict[Label, complex]] = {}
    cols: dict[Label, dict[Label, complex]] = {}
    for label, amp in state.amps.items():
        r, c = row(label), col(label)
        rows.setdefault(r, {})[c] = amp
        cols.setdefault(c, {})[r] = amp
    # M M^dagger and M^T conj(M) share their nonzero eigenvalues: take the
    # smaller side's Gram matrix, padding one vector with an empty one.
    vecs = list((rows if len(rows) <= len(cols) else cols).values())
    if len(vecs) > 2:
        raise ValueError("entropy needs a side with at most two distinct labels")
    u, v = vecs if len(vecs) == 2 else (vecs[0], {})

    def gram(u, v):
        return sum(a * v.get(x, 0j).conjugate() for x, a in u.items()) / n2

    a, c, b = gram(u, u).real, gram(v, v).real, abs(gram(u, v))
    # An off-diagonal |g| below 1e-30 of the trace moves no eigenvalue by
    # more than itself; else the Jacobi rotation zeroing it shifts a and c.
    if b > 1e-30 * (abs(a) + abs(c)):
        theta = (c - a) / (2.0 * b)
        t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
        a, c = a - t * b, c + t * b
    # Both terms from the smaller weight w: log2(1 - w) by log1p keeps the
    # digits that log2 of a number near 1 would lose when w is tiny.
    w = min(a, c) / (a + c)
    if w <= 0.0:
        return 0.0
    return -(w * math.log2(w) + (1.0 - w) * math.log1p(-w) / math.log(2.0))
