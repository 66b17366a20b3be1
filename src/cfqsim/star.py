"""Star-network distribution of cat states over independent Michelson links.

One hub party holds a single switch device whose choice acts jointly on N
separate links, one per spoke party.  Conditioning every link on its
counterfactual detector click projects the N+1 devices onto a cat-type
superposition; the per-link evolution restricted to that sector is a
simple non-unitary "keep the compatible branch" map, read off the D1
rows of the N09 round's unit-pair table (``michelson._round_table``): its
factor is -sqrt(R)*sqrt(T) on (H, P) and (V, B), so the cat carries a
global phase (-1)**N.  So the star refuses R = 0 or 1 where the table
does, and ``_d1_rules`` holds its only hub/spoke pairings.

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

``cat_fidelity`` reads the cat's two terms against the balanced cat's
constant amplitude, so its cost does not grow with N.  The CLI's cat
columns come from ``exact_cat_columns`` instead: both depend only on the
branch amplitudes p = alpha prod nu_j and b = beta prod mu_j, one per
pairing of ``_d1_rules``, which it multiplies exactly, as Gaussian
integers over a power of two, and rounds once.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple

from .michelson import ALICE_DEVICE, BOB_DEVICE, _D1_CLICKS, BeamSplitter, _round_table
from .states import PureState, Qubit, Register, ValidatedTuple, _map_labels, _positions, _rescued


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
    """Each (device_b, device_a) pair's D1 factor, hub symbol major, read
    off the D1 rows of the N09 round's unit-pair table, as a rule on those
    registers; a pair without D1 maps to none."""
    rules = {(b, a): [] for b in BOB_DEVICE.alphabet for a in ALICE_DEVICE.alphabet}
    for _, symbol, i, j, c in _round_table(bs, "N09"):
        if symbol in _D1_CLICKS:
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


# Widest product parts, in bits, that ``exact_cat_columns`` keeps whole.
# A factor with parts of like scale adds about 53 bits, so 5000 such spokes
# stay near 265,000 bits, exact.  A part far below its partner widens its
# factor to up to about 1100 bits (0.6 + 1e-300i: 1049); past this width a
# product keeps its top bits, so 5000 such spokes take about 6 s end to
# end, not 17.
EXACT_BITS = 2**19

# ``ideal_cat``'s amplitude on each of its two labels, and its norm**2 as
# ``PureState.norm2`` sums it: the same for every N.
_CAT_AMP = complex(1.0 / math.sqrt(2.0))
_CAT_NORM2 = 2 * abs(_CAT_AMP) ** 2


def cat_fidelity(result: CatResult) -> float:
    """Overlap-squared of the post-selected state with the balanced cat;
    0 at zero yield.

    The state's (at most two) labels are the balanced cat's, so this is
    ``fidelity_up_to_phase(result.state, ideal_cat(N))`` with the same
    operations in the same order, without building the (N+1)-register cat."""
    state, n2 = _rescued(result.state)
    acc = sum((a.conjugate() * _CAT_AMP for a in state.amps.values()), 0j)
    return float(abs(acc) ** 2 / n2 / _CAT_NORM2) if n2 else 0.0


def exact_cat_columns(config: StarConfig) -> tuple[float, float]:
    """The cat's fidelity with the balanced cat and its entropy across any
    bipartition, from the exact inputs, each correctly rounded; both 0 at
    zero yield.

    Up to the common factor (-sqrt(RT))**N the cat is p|H..HP> + b|V..VB>
    with p = alpha prod nu_j and b = beta prod mu_j: one term per D1 pair
    of ``_d1_rules``, in its order.  Every float is a dyadic rational, so
    p and b are Gaussian integers over a power of two, multiplied in a
    balanced product tree.  The fidelity
    |p + b|**2 / (2 (|p|**2 + |b|**2)) is one int division, which rounds
    correctly.  The two terms differ on every register, so the entropy is
    h(w) of the smaller Schmidt share w = min(|p|**2, |b|**2) /
    (|p|**2 + |b|**2), taken in ``decimal`` at 40 digits from the top 256
    bits of each weight.  Only products wider than ``EXACT_BITS`` are
    rounded before that, to their top bits.
    """
    p, b = (
        _product([_gaussian(config.bob.amplitudes()[hub]), *(_gaussian(q.amplitudes()[spoke]) for q in config.alices)])
        for (hub, spoke), rule in _d1_rules(config.bs).items()
        if rule
    )
    wp, wb = p[0] ** 2 + p[1] ** 2, b[0] ** 2 + b[1] ** 2  # |p|**2 * 4**p[2], |b|**2 * 4**b[2]
    if not (wp and wb):
        return (0.5 if wp or wb else 0.0), 0.0
    # log2(|p|**2 / |b|**2), to within one
    gap = (wp.bit_length() - 2 * p[2]) - (wb.bit_length() - 2 * b[2])
    if abs(gap) > 130:
        # the smaller term is below 2**-64 of the larger, so the fidelity,
        # 1/2 + Re(p conj(b)) / (|p|**2 + |b|**2), rounds to 1/2
        fidelity = 0.5
    else:
        up_p, up_b = max(0, b[2] - p[2]), max(0, p[2] - b[2])  # onto the finer grid of the two
        p0, p1, b0, b1 = p[0] << up_p, p[1] << up_p, b[0] << up_b, b[1] << up_b
        fidelity = ((p0 + b0) ** 2 + (p1 + b1) ** 2) / (2 * ((wp << 2 * up_p) + (wb << 2 * up_b)))
    return fidelity, _share_entropy(*sorted((_top_bits(wp, 2 * p[2]), _top_bits(wb, 2 * b[2])), key=_log2))


def _gaussian(z: complex) -> tuple[int, int, int]:
    """``z`` exactly, as ``(x, y, e)`` with z = (x + iy) / 2**e."""
    z = complex(z)
    (x, dx), (y, dy) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(dx, dy)
    return x * (d // dx), y * (d // dy), d.bit_length() - 1


def _product(factors: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The product of ``_gaussian`` values, taken pairwise in a balanced
    tree, so that most multiplications are of operands of like size."""
    while len(factors) > 1:
        pairs = [_times(u, v) for u, v in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[2 * len(pairs):]
    return factors[0]


def _times(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product of two ``_gaussian`` values; past ``EXACT_BITS`` its parts
    keep their top bits, a relative error below 2**(2 - EXACT_BITS)."""
    x, y, e = u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0], u[2] + v[2]
    drop = max(x.bit_length(), y.bit_length()) - EXACT_BITS
    return (x >> drop, y >> drop, e - drop) if drop > 0 else (x, y, e)


def _top_bits(w: int, e: int) -> tuple[int, int]:
    """``w / 2**e`` as ``(m, s)``, about m * 2**s, with m the top 256 bits of ``w``."""
    drop = max(0, w.bit_length() - 256)
    return w >> drop, drop - e


def _log2(weight: tuple[int, int]) -> int:
    return weight[0].bit_length() + weight[1]


def _share_entropy(small: tuple[int, int], big: tuple[int, int]) -> float:
    """The base-2 entropy h(w) of the share w = small / (small + big), each
    weight given as ``(m, s)`` for m * 2**s, to 40 digits, rounded once.

    With q = small / big, w = q / (1 + q) and 1 - w = 1 / (1 + q), so
    h = (q (L - ln q) + L) / ((1 + q) ln 2) with L = ln(1 + q), which a
    series gives for small q.  A share below 2**-1200 gives an entropy
    below half the smallest subnormal: 0."""
    if _log2(small) - _log2(big) < -1200:
        return 0.0
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        q = Decimal(small[0]) / Decimal(big[0]) * Decimal(2) ** (small[1] - big[1])
        if q > Decimal("1e-3"):
            L = (1 + q).ln()
        else:
            L, power, k = Decimal(0), q, 1
            while L + power / k != L:
                L += power / k
                power, k = -power * q, k + 1
        return float((q * (L - q.ln()) + L) / ((1 + q) * Decimal(2).ln()))
