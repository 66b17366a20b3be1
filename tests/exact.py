"""Exact values of printed quantities, for the tests.

Every float input (R, and the real and imaginary part of each amplitude)
is a dyadic rational, so ``fractions.Fraction`` gives the physics at those
inputs exactly, with T taken as exactly 1 - R.  That can arbitrate a
printed 12th digit, which a closed form evaluated in doubles cannot.
"""

from decimal import Decimal, localcontext
from fractions import Fraction


def abs2(z: complex) -> Fraction:
    """|z|**2 of a float or complex, exactly."""
    z = complex(z)
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def n09_round_probabilities(R: float, mu: complex, nu: complex, alpha: complex, beta: complex) -> dict[str, Fraction]:
    """``P_D1``, ``P_D2`` and ``P_DB`` of an N09 round with sender amplitudes
    (mu, nu) on (V, H) and receiver amplitudes (alpha, beta) on (P, B).

    The device pairs (V, P) and (H, B) pass the photon, and their two arms
    interfere wholly into D2.  In the pairs (H, P) and (V, B) the switch
    absorbs the channel arm (weight T, the silent detector), and the
    internal arm alone reaches D1 with weight RT and D2 with weight R**2.
    """
    R = Fraction(R)
    T = 1 - R
    passing = abs2(mu) * abs2(alpha) + abs2(nu) * abs2(beta)
    blocked = abs2(nu) * abs2(alpha) + abs2(mu) * abs2(beta)
    return {"P_D1": R * T * blocked, "P_D2": passing + R * R * blocked, "P_DB": T * blocked}


def rounded(value: Fraction, digits: int = 12) -> Decimal:
    """``value`` correctly rounded to ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(value.numerator) / Decimal(value.denominator)


def within_one_unit(printed: float, value: Fraction, digits: int = 12) -> bool:
    """Whether a number printed at ``digits`` significant digits equals
    ``value`` rounded to them, or differs from that by one unit in the last
    digit (of the smaller of the two, across a power of ten)."""
    if value == 0:
        return printed == 0.0
    want, got = rounded(value, digits), Decimal(repr(printed))
    with localcontext() as ctx:
        ctx.prec = 4 * digits
        unit = Decimal(1).scaleb(min(want.adjusted(), got.adjusted()) - digits + 1)
        return abs(got - want) <= unit
