"""Exact values of printed quantities, for the tests.

Every float input (R, and the real and imaginary part of each amplitude)
is a dyadic rational, so ``fractions.Fraction`` gives the physics at those
inputs exactly, with T taken as exactly 1 - R.  That can arbitrate a
printed 12th digit, which a closed form evaluated in doubles cannot.
The chain's trigonometry and the announcement cost's logarithms are not
rational: ``cos_sin`` gives the first, ``czqe_values`` the chain's
readouts, ``cost_columns`` the costs ``C`` and ``total_qst_cost`` and
``entropy_bits`` the rounds' ``entropy_D1`` and the star's
``entropy_any_bipartition`` from their rational Schmidt weights, to 40
digits, which arbitrate a 12th digit as well.
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


def ln(value: Fraction) -> Decimal:
    """The natural logarithm of a positive ``value``, from those of its
    numerator and denominator, at the current precision."""
    return Decimal(value.numerator).ln() - Decimal(value.denominator).ln()


def cost_columns(R: float) -> dict[str, Fraction]:
    """The ``cost`` columns at reflectance R, both devices balanced.

    The rational ones are exact: P_D1 = RT/2, P_D2 = (1 + R**2)/2,
    P_DB = T/2, the announced-click share p = p1' = RT/(1 + R) with
    p2' = 1 - p, and C_q = 2/(RT) rounds per pair.  The announcement cost
    C = h(p)/p = -log2 p + (1 - p) S / ln 2 bits, with h the binary
    entropy and S = -ln(1 - p)/p = sum p**k/(k + 1) (p is at most
    3 - 2 sqrt 2), and total_qst_cost = C + 1, are taken to 40 digits."""
    R = Fraction(R)
    T = 1 - R
    p1 = R * T / (1 + R)
    with localcontext() as ctx:
        ctx.prec = 40
        ln_p = ln(p1)
        p = Decimal(p1.numerator) / Decimal(p1.denominator)
        series, term, k = Decimal(0), Decimal(1), 1
        while series + term / k != series:
            series += term / k
            term, k = term * p, k + 1
        cost = (-ln_p + (1 - p) * series) / Decimal(2).ln()
    return {
        "P_D1": R * T / 2,
        "P_D2": (1 + R * R) / 2,
        "P_DB": T / 2,
        "p1_prime": p1,
        "p2_prime": 1 - p1,
        "C_q": 2 / (R * T),
        "C": Fraction(cost),
        "total_qst_cost": Fraction(cost) + 1,
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
    digit (of the smaller of the two, across a power of ten).  A null
    (None) is no number, so it is within no unit of any value."""
    if printed is None:
        return False
    if value == 0:
        return printed == 0.0
    want, got = rounded(value, digits), Decimal(repr(printed))
    with localcontext() as ctx:
        ctx.prec = 4 * digits
        unit = Decimal(1).scaleb(min(want.adjusted(), got.adjusted()) - digits + 1)
        return abs(got - want) <= unit


def pi(digits: int = 40) -> Decimal:
    """pi to ``digits`` significant digits, as six times the arcsine series
    at 1/2: 3 (1 + 1/24 + 1*9/(24*80) + ...)."""
    with localcontext() as ctx:
        ctx.prec = digits + 5
        total, term, n, d, dn, dd = Decimal(3), Decimal(3), 1, 0, 0, 24
        while True:
            n, dn = n + dn, dn + 8
            d, dd = d + dd, dd + 32
            term = term * n / d
            if total + term == total:
                break
            total += term
        ctx.prec = digits
        return +total


def _taylor(r: Decimal, k: int) -> Decimal:
    """The sum over j of (-1)**j r**(2j+k) / (2j+k)!: cos r for k = 0, sin r
    for k = 1, to the current precision, for |r| <= pi/4."""
    total = term = r if k else Decimal(1)
    while True:
        term = -term * r * r / ((k + 1) * (k + 2))
        k += 2
        if total + term == total:
            return total
        total += term


def cos_sin(x: Fraction, digits: int = 40) -> tuple[Decimal, Decimal]:
    """cos x and sin x to ``digits`` significant digits for results down to
    about 10**-digits: x, exact, is moved by a whole number of quarter
    turns into [-pi/4, pi/4], at twice the digits plus those of x, and
    summed as a Taylor series there."""
    guard = 2 * digits + len(str(abs(x.numerator) // x.denominator))
    with localcontext() as ctx:
        ctx.prec = guard
        quarter = pi(guard) / 2
        r = Decimal(x.numerator) / Decimal(x.denominator)
        k = int((r / quarter).to_integral_value())
        r -= k * quarter
        c, s = _taylor(r, 0), _taylor(r, 1)
        c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[k % 4]
        ctx.prec = digits
        return +c, +s


def czqe_values(L: int, theta: float, a: complex, b: complex, layers: int, readout: str) -> dict[str, Fraction]:
    """``survival`` and ``fidelity_asymptote`` of ``czqe``: a chain of L
    rotations by the double ``theta`` under an obstacle with amplitudes
    (a, b) on (pass, block), stacked ``layers`` = K times, at 40 digits.

    The pass branch leaves each layer in x = (cos L theta, sin L theta).
    The block branch loses the upper arm at each obstacle, leaving
    y = cos(theta)**(L-1) (cos theta, sin theta) after the final splitter,
    or y = (cos(theta)**L, 0) after the final obstacle.  So survival =
    |a|**2 |x|**(2K) + |b|**2 |y|**(2K), and the fidelity with the limit
    state (pass: every layer in 1, block: in 0), whose norm and the
    chain's are both |a|**2 + |b|**2, is
    ||a|**2 x_1**K + |b|**2 y_0**K|**2 / (|a|**2 + |b|**2)**2.
    """
    c, s = cos_sin(Fraction(theta))
    c_l, s_l = cos_sin(Fraction(theta) * L)
    with localcontext() as ctx:
        ctx.prec = 40
        A, B = (Decimal(w.numerator) / Decimal(w.denominator) for w in (abs2(a), abs2(b)))
        decay = c ** (L - 1)
        y = (decay * c, decay * s) if readout == "after_final_bs" else (decay * c, Decimal(0))
        x2, y2 = c_l * c_l + s_l * s_l, y[0] * y[0] + y[1] * y[1]
        survival = A * x2**layers + B * y2**layers
        overlap = A * s_l**layers + B * y[0] ** layers
        fidelity = (overlap / (A + B)) ** 2
    return {"survival": Fraction(survival), "fidelity_asymptote": Fraction(fidelity)}


def entropy_bits(weights: tuple[Fraction, ...], digits: int = 40) -> Fraction:
    """The base-2 entropy -sum p log2 p of the distribution proportional to
    ``weights``, to ``digits`` digits; zero weights add nothing, and no
    weight at all gives 0.  Every term is positive, so it is enough that
    each is right to ``digits`` + 10 digits: a p of at most 1/2, whose
    |ln p| is at least ln 2, is rounded to that many digits before its
    logarithm; a larger p's logarithm is the series ln(1 - q) =
    -sum q**k / k in its exact complement q, so that it keeps its digits
    however small q is, and no huge denominator sets the precision."""
    total = sum(weights)
    ps = [Fraction(w) / total for w in weights if w]
    with localcontext() as ctx:
        ctx.prec = digits + 10
        h = Decimal(0)
        for p in ps:
            d = Decimal(p.numerator) / Decimal(p.denominator)
            if p <= Fraction(1, 2):
                h -= d * d.ln()
                continue
            q = Decimal((1 - p).numerator) / Decimal((1 - p).denominator)
            series, power, k = Decimal(0), q, 1
            while series + power / k != series:
                series += power / k
                power, k = power * q, k + 1
            h += d * series
        return Fraction(h / Decimal(2).ln())


def _gaussian(z: complex) -> tuple[Fraction, Fraction]:
    """A float or complex as its exact (real, imaginary) parts."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _times(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """The complex product of two exact (real, imaginary) pairs."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def star_cat_values(alices: list[tuple[complex, complex]], alpha: complex, beta: complex) -> dict[str, Fraction]:
    """``cat_fidelity`` and ``entropy_any_bipartition`` of a star with spoke
    amplitudes (mu_j, nu_j) on (V, H) and hub amplitudes (alpha, beta) on
    (P, B).  Up to the factor (-sqrt(RT))**N, the cat is
    p |H..HP> + b |V..VB> with p = alpha prod nu_j and b = beta prod mu_j:
    two terms that differ on every register, so on any bipartition its
    Schmidt weights are |p|**2 and |b|**2.  Its fidelity with the balanced
    cat (|V..VB> + |H..HP>)/sqrt 2 is |p + b|**2 / (2 (|p|**2 + |b|**2)).
    Both are 0 at zero yield."""
    p, b = _gaussian(alpha), _gaussian(beta)
    for mu, nu in alices:
        p, b = _times(p, _gaussian(nu)), _times(b, _gaussian(mu))
    wp, wb = p[0] ** 2 + p[1] ** 2, b[0] ** 2 + b[1] ** 2
    if wp + wb == 0:
        return {"cat_fidelity": Fraction(0), "entropy_any_bipartition": Fraction(0)}
    fidelity = ((p[0] + b[0]) ** 2 + (p[1] + b[1]) ** 2) / (2 * (wp + wb))
    return {"cat_fidelity": fidelity, "entropy_any_bipartition": entropy_bits((wp, wb))}


def n09_d1_weights(mu: complex, nu: complex, alpha: complex, beta: complex) -> tuple[Fraction, Fraction]:
    """The Schmidt weights, up to one factor, of an N09 round's D1 pair:
    the blocked pairs (H, P) and (V, B) each reach D1 with amplitude
    -sqrt(RT) times their input product, so they are |nu alpha|**2 and
    |mu beta|**2, whatever R."""
    return abs2(nu) * abs2(alpha), abs2(mu) * abs2(beta)


def scqkd_d1_weights(a_pass: complex, a_block: complex, b_pass: complex, b_block: complex) -> tuple[Fraction, Fraction]:
    """The Schmidt weights, up to one factor, of a pass/block round's D1
    pair: where one party alone blocks, the photon reaches D1 with
    amplitude sqrt(RT) times the input product, up to sign, so they are
    |a_pass b_block|**2 and |a_block b_pass|**2."""
    return abs2(a_pass) * abs2(b_block), abs2(a_block) * abs2(b_pass)
