import math

import numpy as np
from hypothesis import strategies as st

from cfqsim.michelson import (
    BOB_DEVICE,
    forward_beamsplitter,
    return_beamsplitter,
    switch_interaction,
)
from cfqsim.star import StarConfig, alice_register, detector_register
from cfqsim.states import MapRules, PureState, Register, product_state, sector

# Reflectances in [1e-300, 1), log-uniform and uniform.
REFLECTANCES = st.one_of(
    st.floats(min_value=-300.0, max_value=0.0, exclude_max=True).map(lambda x: 10.0**x),
    st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
).filter(lambda R: R < 1.0)


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
    and after each round that link's detector is projected onto the
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
            (detector_register(j), "none"),
        ]
    state = product_state(parts)
    for j in range(n):
        state = forward_beamsplitter(state, config.bs, j)
        state = switch_interaction(state, j)
        state = return_beamsplitter(state, config.bs, j)
        state = sector(state, detector_register(j), ("D1V", "D1H"))
    yield_probability = state.norm2()
    if yield_probability == 0.0:
        return 0.0, None
    kept = (*(alice_register(j) for j in range(n)), BOB_DEVICE)
    return yield_probability, state.normalized().restrict(kept)
