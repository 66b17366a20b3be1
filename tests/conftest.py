import numpy as np
from hypothesis import strategies as st

from cfqsim.michelson import (
    BOB_DEVICE,
    forward_beamsplitter,
    return_beamsplitter,
    switch_interaction,
)
from cfqsim.star import StarConfig, alice_register, detector_register
from cfqsim.states import PureState, Register, product_state, sector

# Reflectances in [1e-300, 1), log-uniform and uniform.
REFLECTANCES = st.one_of(
    st.floats(min_value=-300.0, max_value=0.0, exclude_max=True).map(lambda x: 10.0**x),
    st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
).filter(lambda R: R < 1.0)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


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


def two_link_bruteforce(config: StarConfig):
    """Full double-round simulation post-selected on both counterfactual clicks.

    Independent oracle for the star engine: each link runs the complete
    three-map round on the joint state, then its detector is projected onto
    the counterfactual tags.
    """
    assert config.n_links == 2
    link_regs = []
    parts = []
    for j in range(2):
        regs = {
            "device": alice_register(j),
            "arm_a": Register("arm_a", j),
            "arm_b": Register("arm_b", j),
            "bob_detector": Register("bob_detector", j),
            "detector": detector_register(j),
        }
        link_regs.append(regs)
        parts += [
            (regs["device"], config.alices[j]),
            (regs["arm_a"], "vac"),
            (regs["arm_b"], "vac"),
            (regs["bob_detector"], "0"),
            (regs["detector"], "none"),
        ]
    parts.append((BOB_DEVICE, config.bob))
    state = product_state(parts)
    for regs in link_regs:
        state = forward_beamsplitter(
            state, config.bs, device=regs["device"], arm_a=regs["arm_a"], arm_b=regs["arm_b"]
        )
        state = switch_interaction(
            state, switch=BOB_DEVICE, arm_b=regs["arm_b"], detector=regs["bob_detector"]
        )
        state = return_beamsplitter(
            state,
            config.bs,
            arm_a=regs["arm_a"],
            arm_b=regs["arm_b"],
            bob_detector=regs["bob_detector"],
            detector=regs["detector"],
        )
        state = sector(state, regs["detector"], ("D1V", "D1H"))
    yield_probability = state.norm2()
    if yield_probability == 0.0:
        return 0.0, None
    kept = (alice_register(0), alice_register(1), BOB_DEVICE)
    return yield_probability, state.normalized().restrict(kept)
