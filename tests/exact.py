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


def scqkd_round_probabilities(
    R: float, a_pass: complex, a_block: complex, b_pass: complex, b_block: complex
) -> dict[str, Fraction]:
    """``P_D1``, ``P_D2`` and ``P_DB`` of a pass/block round with sender
    amplitudes (a_pass, a_block) and receiver amplitudes (b_pass, b_block).

    Both passing, the two arms interfere wholly into D2; both blocking,
    the photon is absorbed.  When the receiver alone blocks, the channel
    arm is absorbed (weight T) and the internal arm reaches D1 with weight
    RT and D2 with weight R**2; when the sender alone blocks, the internal
    arm is absorbed (weight R) and the channel arm reaches D1 with weight
    RT and D2 with weight T**2.
    """
    R = Fraction(R)
    T = 1 - R
    pb, bp = abs2(a_pass) * abs2(b_block), abs2(a_block) * abs2(b_pass)
    return {
        "P_D1": R * T * (pb + bp),
        "P_D2": abs2(a_pass) * abs2(b_pass) + R * R * pb + T * T * bp,
        "P_DB": T * pb + R * bp + abs2(a_block) * abs2(b_block),
    }


def table_rows(R: float) -> dict[str, dict[str, Fraction]]:
    """The ``table`` rows: an N09 round on the basis inputs (V, P), which
    passes, and (V, B), which blocks."""
    return {"VP|HB": n09_round_probabilities(R, 1, 0, 1, 0), "VB|HP": n09_round_probabilities(R, 1, 0, 0, 1)}


def cost_columns(R: float) -> dict[str, Fraction]:
    """The rational ``cost`` columns at reflectance R, both devices balanced:
    P_D1 = RT/2, P_D2 = (1 + R**2)/2, P_DB = T/2, the announced-click share
    p1' = RT/(1 + R) with p2' = 1 - p1', and C_q = 2/(RT) rounds per pair."""
    R = Fraction(R)
    T = 1 - R
    p1 = R * T / (1 + R)
    return {
        "P_D1": R * T / 2,
        "P_D2": (1 + R * R) / 2,
        "P_DB": T / 2,
        "p1_prime": p1,
        "p2_prime": 1 - p1,
        "C_q": 2 / (R * T),
    }


def star_yield(R: float, alices: list[tuple[complex, complex]], alpha: complex, beta: complex) -> Fraction:
    """The yield of a star with spoke amplitudes (mu_j, nu_j) on (V, H) and
    hub amplitudes (alpha, beta) on (P, B): every link clicks D1 with
    weight RT on the pairs (H, P) and (V, B) alone, so the yield is
    (RT)**N (|alpha|**2 prod |nu_j|**2 + |beta|**2 prod |mu_j|**2)."""
    R = Fraction(R)
    passing, blocking = abs2(alpha), abs2(beta)
    for mu, nu in alices:
        passing *= abs2(nu)
        blocking *= abs2(mu)
    return (R * (1 - R)) ** len(alices) * (passing + blocking)


def log10(value: Fraction, digits: int = 40) -> Fraction:
    """log10 of a positive ``value``, from the logarithms of its numerator
    and denominator, each taken at ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return Fraction(Decimal(value.numerator).log10() - Decimal(value.denominator).log10())


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
