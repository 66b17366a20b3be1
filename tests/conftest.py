import functools
import math
import operator

import numpy as np
from hypothesis import strategies as st

from cfqsim.michelson import (
    ABSORBER_ALICE,
    ABSORBER_BOB,
    ALICE_DEVICE,
    ARM_ALICE,
    ARM_BOB,
    BOB_DEVICE,
    DETECTOR,
    SWITCH_ALICE,
    SWITCH_BOB,
    BeamSplitter,
    RoundConfig,
    RoundOutcome,
    run_round,
)
from cfqsim.star import CatResult, StarConfig, alice_register, partial_propagator
from cfqsim.states import (
    MapRules,
    PureState,
    Qubit,
    Register,
    _check_patterns,
    _checked_registers,
    _positions,
    _restricted,
    apply_map,
    postselect,
    product_state,
    sector,
)
from cfqsim.zeno import _check_one_layer

# Reflectances in [1e-300, 1), log-uniform and uniform.
REFLECTANCES = st.one_of(
    st.floats(min_value=-300.0, max_value=0.0, exclude_max=True).map(lambda x: 10.0**x),
    st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
).filter(lambda R: R < 1.0)


# Magnitudes log-uniform in [1e-300, 1], and nonzero complex amplitudes
# whose parts are each 0 or such a magnitude of either sign.
MAGNITUDES = st.floats(min_value=-300.0, max_value=0.0).map(lambda x: 10.0**x)
_PARTS = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda x: -x))
AMPLITUDES = st.builds(complex, _PARTS, _PARTS).filter(bool)

# Magnitudes log-uniform from 2**-1074 (5e-324, the smallest subnormal) to
# 2, half of them at one of those two ends, and amplitudes of such a
# magnitude at one of five phases: a product of two of them underflows to
# 0j, and so does a quotient a / n of the smallest by a norm above 2.
TINY_MAGNITUDES = st.one_of(
    st.floats(min_value=-1074.0, max_value=1.0).map(lambda e: 2.0**e), st.sampled_from((2.0**-1074, 2.0))
)
TINY_AMPLITUDES = st.builds(
    lambda m, phase: m * phase, TINY_MAGNITUDES, st.sampled_from((1 + 0j, -1 + 0j, 1j, -1j, 0.6 - 0.8j))
)


def applied(ops):
    """For each ``(name, state, op)`` of ``ops``: the name, whether
    ``op(state)`` left ``state`` as it was, whether its result shares
    ``state``'s amplitude dict, and the result."""
    results = []
    for name, state, op in ops:
        before = list(state.amps.items())
        out = op(state)
        results.append((name, list(state.amps.items()) == before, out.amps is state.amps, out))
    return results


def binary_entropy(x: float) -> float:
    """Shannon binary entropy in bits, continuously extended to h(0)=h(1)=0;
    the tests' reference for the cost formulas."""
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"entropy argument {x!r} outside [0, 1]")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def unitary_rules(register: Register, matrix: np.ndarray) -> MapRules:
    """``apply_map`` rules for a dense single-register operator in alphabet order."""
    symbols = register.alphabet
    n = len(symbols)
    assert matrix.shape == (n, n)
    return {
        (symbols[j],): [((symbols[i],), complex(matrix[i, j])) for i in range(n) if matrix[i, j]]
        for j in range(n)
    }


def state_sum(s: PureState, t: PureState) -> PureState:
    """Label-wise sum of two states over the same registers, keeping every label."""
    assert s.registers == t.registers
    amps = dict(s.amps)
    for label, amp in t.amps.items():
        amps[label] = amps.get(label, 0j) + amp
    return PureState(s.registers, amps)


def tensor(s: PureState, t: PureState) -> PureState:
    """The tensor product of two states over disjoint registers."""
    amps = {l1 + l2: a1 * a2 for l1, a1 in s.amps.items() for l2, a2 in t.amps.items()}
    return PureState(s.registers + t.registers, amps)


def states_close(s: PureState, t: PureState, tol: float = 1e-12) -> bool:
    """Label-wise amplitude comparison (no phase freedom)."""
    if s.registers != t.registers:
        return False
    labels = s.amps.keys() | t.amps.keys()
    return all(abs(s.amps.get(l, 0j) - t.amps.get(l, 0j)) <= tol for l in labels)


def random_state(registers: tuple[Register, ...], rng: np.random.Generator) -> PureState:
    """Dense random normalized state over the given registers."""
    import itertools

    labels = list(itertools.product(*(r.alphabet for r in registers)))
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps /= np.linalg.norm(amps)
    return PureState(registers, dict(zip(labels, amps)))


def random_amplitude_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def star_bruteforce(config: StarConfig):
    """Full N-link rounds post-selected on every counterfactual click (N <= 3).

    Independent oracle for the star engine: the joint state of the hub and
    all N links runs the complete three-map round of each link in turn,
    through the reference maps, which act on any link's registers, and
    after each round that link's detector is projected onto the
    counterfactual tags.  Nothing is factorised per hub branch.
    """
    n = config.n_links
    assert 1 <= n <= 3  # its labels grow as 2^(N+1)
    parts = [(BOB_DEVICE, config.bob)]
    for j in range(n):
        parts += [
            (alice_register(j), config.alices[j]),
            (Register("arm_a", j), "vac"),
            (Register("arm_b", j), "vac"),
            (Register("bob_detector", j), "0"),
            (Register("alice_detector", j), "none"),
        ]
    state = product_state(parts)
    for j in range(n):
        state = forward_beamsplitter_reference(state, config.bs, j)
        state = switch_interaction_reference(state, j)
        state = return_beamsplitter_reference(state, config.bs, j)
        state = sector(state, Register("alice_detector", j), ("D1V", "D1H"))
    yield_probability = state.norm2()
    if yield_probability == 0.0:
        return 0.0, None
    kept = (*(alice_register(j) for j in range(n)), BOB_DEVICE)
    return yield_probability, state.normalized().restrict(kept)


def restrict_reference(state: PureState, keep) -> PureState:
    """``state.restrict(keep)`` with every kept register looked up again on
    each call: the reference that ``states._restricted``, which reads its
    label positions from a cached plan, must match bit for bit."""
    keep = _checked_registers(keep)
    keep_idx = [state.registers.index(r) for r in keep]
    drop_idx = [i for i in range(len(state.registers)) if i not in keep_idx]
    seen = {}
    out = {}
    for label, amp in state.amps.items():
        k = tuple(label[i] for i in keep_idx)
        d = tuple(label[i] for i in drop_idx)
        if seen.setdefault(k, d) != d:
            raise ValueError("dropped registers carry independent information")
        out[k] = amp
    return PureState._trusted(keep, out)


def map_labels_reference(state: PureState, idx: tuple[int, ...], rules: MapRules) -> PureState:
    """``states._map_labels`` written out again, each label's rule key and
    each output label built position by position, the output by the
    per-symbol loop that the kernel's splice replaced: the reference that
    the label loop, and every map built on it, must match bit for bit,
    from code that they do not share.  Only an exact zero is dropped."""
    out = {}
    for label, amp in state.amps.items():
        key = tuple(label[i] for i in idx)
        branches = rules.get(key)
        if branches is None:
            ins = [(label, amp)]  # a label that matches no rule passes
        else:
            ins = []
            for out_pat, coeff in branches:
                new = list(label)
                for i, sym in zip(idx, out_pat):
                    new[i] = sym
                ins.append((tuple(new), amp * coeff))
        for t, term in ins:
            if t in out:
                out[t] += term
            else:
                out[t] = term
    return PureState._trusted(state.registers, out)


def apply_map_reference(state: PureState, on, rules: MapRules) -> PureState:
    """``apply_map``'s register lookup and pattern check, then the
    reference label loop."""
    idx = _positions(state, on)
    _check_patterns([state.registers[i].alphabet for i in idx], rules)
    return map_labels_reference(state, idx, rules)


def steer_reference(payload: Qubit, bs: BeamSplitter, sender: Register, branches: tuple[str, ...]):
    """``transfer._steer`` on the whole round: every outcome of ``run_round``
    is built, the D1 posterior (``[0]``) is restricted to the device pair,
    and the rest is as in ``_steer``.  The reference that ``_steer``, which
    evolves the round and reads its D1 sector alone, must match bit for bit."""
    basis = sender.alphabet
    if tuple(payload.basis) != basis:
        raise ValueError(f"payload must be declared over ({', '.join(basis)})")
    if any(branch not in basis for branch in branches):
        raise ValueError(f"sender branch must be {basis[0]!r} or {basis[1]!r}")
    if sender == ALICE_DEVICE:
        receiver, minus, plus = BOB_DEVICE, "V", "H"
        alice, bob = payload, Qubit.balanced(("P", "B"))
    else:
        receiver, minus, plus = ALICE_DEVICE, "B", "P"
        alice, bob = Qubit.balanced(("V", "H")), payload
    d1 = run_round(RoundConfig(bs, alice, bob))[0]
    if not d1.posterior.amps:
        raise ValueError("configuration admits no counterfactual branch")
    shared = d1.posterior.restrict((ALICE_DEVICE, BOB_DEVICE))
    h = 1.0 / math.sqrt(2.0)
    hadamard = {(plus,): [((plus,), h), ((minus,), h)], (minus,): [((plus,), h), ((minus,), -h)]}
    rotated = apply_map(shared, (sender,), hadamard)
    results = []
    for branch in branches:
        prob, post = postselect(rotated, sender, branch)
        received = post.restrict((receiver,))
        results.append((prob, [received.amps.get((sym,), 0j) for sym in receiver.alphabet]))
    return shared, receiver, results


# Each round outcome's ``alice_detector`` symbols, by the outcome's name.
OUTCOME_SYMBOLS = {
    "D1": ("D1V", "D1H"),
    "D2": ("D2V", "D2H"),
    **{sym: (sym,) for sym in ("D1V", "D1H", "D2V", "D2H")},
    "DB": ("none",),
}


def outcomes_reference(state: PureState, names, keep, blocked_keep) -> list[RoundOutcome]:
    """The outcomes ``names`` of an evolved round, each read apart: its
    ``sector``, that sector's ``norm2`` as the probability and its
    ``normalized`` posterior, restricted to ``keep``, the reader's
    registers, or, for DB, to ``blocked_keep``.  The reference that
    ``michelson._outcomes``, which weights the unit-pair table's rows and
    sorts them into every sector in one scan, and divides each by the root
    of the norm**2 it reports, must match bit for bit."""
    outcomes = []
    for name in names:
        part = sector(state, DETECTOR, OUTCOME_SYMBOLS[name])
        kept = blocked_keep if name == "DB" else keep
        posterior = _restricted(part.normalized(), kept) if part.amps else PureState(kept, {})
        outcomes.append(RoundOutcome(name, part.norm2(), posterior))
    return outcomes


# The Michelson maps as rule dicts rebuilt, and checked, on every call, and
# run through the reference label loop: the references that ``michelson``'s
# maps, which check their patterns once at import, must match bit for bit.


def forward_beamsplitter_reference(state: PureState, bs: BeamSplitter, link: int = 0) -> PureState:
    r, t = math.sqrt(bs.R), math.sqrt(bs.T)
    rules = {}
    for x in ("V", "H"):
        rules[(x, "vac", "vac")] = [
            ((x, x, "vac"), 1j * r),
            ((x, "vac", x), t),
        ]
    on = (Register("device_a", link), Register("arm_a", link), Register("arm_b", link))
    return apply_map_reference(state, on, rules)


def switch_interaction_reference(state: PureState, link: int = 0) -> PureState:
    rules = {
        ("P", "H", "0"): [(("P", "vac", "Y"), 1.0)],
        ("B", "V", "0"): [(("B", "vac", "Y"), 1.0)],
    }
    return apply_map_reference(state, (BOB_DEVICE, Register("arm_b", link), Register("bob_detector", link)), rules)


def return_beamsplitter_reference(state: PureState, bs: BeamSplitter, link: int = 0) -> PureState:
    r, t = math.sqrt(bs.R), math.sqrt(bs.T)
    rules = {}
    for x in ("V", "H"):
        rules[("vac", x, "none")] = [
            (("vac", "vac", f"D1{x}"), r),
            (("vac", "vac", f"D2{x}"), 1j * t),
        ]
        rules[(x, "vac", "none")] = [
            (("vac", "vac", f"D1{x}"), 1j * t),
            (("vac", "vac", f"D2{x}"), r),
        ]
    on = (Register("arm_a", link), Register("arm_b", link), Register("alice_detector", link))
    return apply_map_reference(state, on, rules)


def pass_block_switches_reference(state: PureState) -> PureState:
    for switch, arm, absorber in (
        (SWITCH_ALICE, ARM_ALICE, ABSORBER_ALICE),
        (SWITCH_BOB, ARM_BOB, ABSORBER_BOB),
    ):
        rules = {("block", "V", "0"): [(("block", "vac", "Y"), 1.0)]}
        state = apply_map_reference(state, (switch, arm, absorber), rules)
    return state


def chain_step_reference(state: PureState, theta: float) -> PureState:
    """One beam splitter passage as plain rotation sums per obstacle branch
    b: (b, "0") gets a0 cos - a1 sin and (b, "1") gets a0 sin + a1 cos, over
    the inputs present, and other mode symbols pass.  No sum is dropped,
    however small: the reference that ``zeno.chain_step`` must match bit
    for bit, each branch's labels in the place its first input holds."""
    _check_one_layer(state)
    c, s = math.cos(theta), math.sin(theta)
    out = {}
    for (b, x), amp in state.amps.items():
        if x not in ("0", "1"):
            out[(b, x)] = amp
        elif (b, "0") not in out:
            a0, a1 = state.amps.get((b, "0")), state.amps.get((b, "1"))
            for y, k0, k1 in (("0", c, -s), ("1", s, c)):
                terms = [a * k for a, k in ((a0, k0), (a1, k1)) if a is not None]
                # a lone term is the sum: 0j + it would turn a -0.0 part into +0.0
                out[(b, y)] = functools.reduce(operator.add, terms)
    return PureState(state.registers, out)


def partial_propagator_reference(state: PureState, link: int, bs: BeamSplitter) -> PureState:
    """The star's link step as a hand-written table: +sqrt(RT) on the
    compatible (device_b, device_a) pairs (P, H) and (B, V), the other two
    dropped.  ``star.partial_propagator``, which reads its factors off the
    N09 maps, must keep exactly its labels, each at -1 times its amplitude."""
    s = math.sqrt(bs.R * bs.T)
    rules = {
        ("P", "H"): [(("P", "H"), s)],
        ("B", "V"): [(("B", "V"), s)],
        ("P", "V"): [],
        ("B", "H"): [],
    }
    return apply_map(state, (BOB_DEVICE, alice_register(link)), rules)


def run_star_reference(config: StarConfig) -> CatResult:
    """The star grown as one (N+1)-register state, each hub branch's labels
    rescaled by exact powers of two before every link: the reference that
    ``star.run_star``, which carries the hub branches alone, must match."""
    kept = (*(alice_register(j) for j in range(config.n_links)), BOB_DEVICE)
    lift = 54 - math.frexp(math.sqrt(config.bs.R * config.bs.T))[1]
    exps = dict.fromkeys(config.bob.basis, 0)  # branch amplitude = label amplitude * 2**exps[hub symbol]
    state = product_state([(BOB_DEVICE, config.bob)])
    for j, q in enumerate(config.alices):
        state = _rescaled(state, exps, lift)
        spoke = product_state([(alice_register(j), q)])
        state = partial_propagator(tensor(state, spoke), j, config.bs)
        if not state.amps:
            return CatResult(0.0, PureState(kept, {}), -math.inf)
    state = _rescaled(state, exps, 0)
    top = max(exps[label[0]] for label in state.amps)
    state = PureState._trusted(state.registers, {l: a * 2.0 ** (exps[l[0]] - top) for l, a in state.amps.items()})
    w = state.norm2()
    log10_y = math.log10(w) + 2 * top * math.log10(2.0)
    return CatResult(math.ldexp(w, 2 * top), state.normalized().restrict(kept), log10_y)


def _rescaled(state: PureState, exps: dict[str, int], lift: int) -> PureState:
    """Each hub branch (``label[0]``: the hub register comes first) moved by an exact
    power of two to a magnitude in [2**(lift-1), 2**lift); ``exps`` absorbs the shift."""
    amps = {}
    for label, a in state.amps.items():
        shift = lift - math.frexp(abs(a))[1]
        exps[label[0]] -= shift
        amps[label] = complex(math.ldexp(a.real, shift), math.ldexp(a.imag, shift))
    return PureState._trusted(state.registers, amps)
