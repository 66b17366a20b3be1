"""Engine-against-engine identities: each engine's answer rebuilt from
another engine's (or its own one-link, one-layer) answers.

The closed forms check each engine on its own; these pin the round, the
star and the chain to each other, with relative tolerances that still mean
something at tiny yields.  A comparison is floored at the normal range:
where the reference's own float is subnormal it has lost relative digits.
"""

import cmath
import math
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import REFLECTANCES
from cfqsim.michelson import ALICE_DEVICE, BOB_DEVICE, VARIANTS, BeamSplitter, RoundConfig, run_round
from cfqsim.star import StarConfig, run_star
from cfqsim.states import Qubit, fidelity_up_to_phase
from cfqsim.zeno import READOUTS, ChainConfig, run_chain

REL = 1e-13
TINY = sys.float_info.min


def close(x: complex, ref: complex) -> bool:
    return abs(x - ref) <= REL * max(abs(ref), TINY)


def qubits(basis):
    """Complex qubits cos(t) e^(i p0) |0> + sin(t) e^(i p1) |1>, zeros included."""
    phase = st.floats(0.0, 2 * math.pi)
    return st.builds(
        lambda t, p0, p1: Qubit(basis, math.cos(t) * cmath.exp(1j * p0), math.sin(t) * cmath.exp(1j * p1)),
        st.floats(0.0, math.pi / 2),
        phase,
        phase,
    )


SPOKES = qubits(("V", "H"))
HUBS = qubits(("P", "B"))
BASIS = {"V": Qubit(("V", "H"), 1.0, 0.0), "H": Qubit(("V", "H"), 0.0, 1.0),
         "P": Qubit(("P", "B"), 1.0, 0.0), "B": Qubit(("P", "B"), 0.0, 1.0)}


def d1_amplitudes(config: RoundConfig) -> dict:
    """The D1 sector of a round: sqrt(P_D1) times its posterior."""
    d1 = run_round(config)[0]
    return {l: math.sqrt(d1.probability) * a for l, a in d1.posterior.amps.items()}


def unit(amps: dict) -> dict:
    """``amps`` normalized, scaled by its largest entry first so that no norm**2 underflows."""
    top = max(abs(a) for a in amps.values())
    n = math.sqrt(sum(abs(a / top) ** 2 for a in amps.values()))
    return {l: a / top / n for l, a in amps.items()}


class TestLinearity:
    """Superposed inputs replace the classical choices: the D1 sector of
    the superposed round is sum mu_a alpha_b times the D1 amplitudes of
    the four basis-input rounds (the classical table)."""

    @settings(max_examples=100, deadline=None)
    @given(REFLECTANCES, SPOKES, HUBS, st.sampled_from(VARIANTS))
    def test_d1_sector_is_linear_in_the_inputs(self, R, alice, bob, variant):
        bs = BeamSplitter(R)
        combined: dict = {}
        for a, mu in zip("VH", (alice.amp0, alice.amp1)):
            for b, alpha in zip("PB", (bob.amp0, bob.amp1)):
                if not (mu and alpha):
                    continue
                for label, amp in d1_amplitudes(RoundConfig(bs, BASIS[a], BASIS[b], variant)).items():
                    assume(abs(mu * alpha * amp) >= TINY)
                    combined[label] = combined.get(label, 0j) + mu * alpha * amp
        d1 = run_round(RoundConfig(bs, alice, bob, variant))[0]
        assert d1.posterior.amps.keys() == combined.keys()
        if not combined:
            assert d1.probability == 0.0
            return
        want = unit(combined)
        assert all(close(a, want[l]) for l, a in d1.posterior.amps.items())
        p = sum(abs(a) ** 2 for a in combined.values())
        assert close(d1.probability, p)


class TestStar:
    @settings(max_examples=100, deadline=None)
    @given(REFLECTANCES, SPOKES, HUBS)
    def test_star_of_one_is_the_round(self, R, alice, bob):
        bs = BeamSplitter(R)
        d1 = run_round(RoundConfig(bs, alice, bob))[0]
        assume(d1.probability >= TINY)
        star = run_star(StarConfig(bs, (alice,), bob))
        assert close(star.yield_probability, d1.probability)
        assert close(star.log10_yield, math.log10(d1.probability))
        pair = d1.posterior.restrict((ALICE_DEVICE, BOB_DEVICE))
        assert 1.0 - fidelity_up_to_phase(star.state, pair) <= REL

    @settings(max_examples=100, deadline=None)
    @given(REFLECTANCES, st.lists(SPOKES, min_size=1, max_size=8), st.sampled_from("PB"))
    def test_star_per_hub_branch_is_a_product_of_links(self, R, alices, hub):
        """With the hub on one branch the links are independent: the yield
        is the product of the N one-link D1 probabilities."""
        bs = BeamSplitter(R)
        links = [run_round(RoundConfig(bs, q, BASIS[hub]))[0].probability for q in alices]
        assume(min(links) >= TINY)
        star = run_star(StarConfig(bs, tuple(alices), BASIS[hub]))
        assert close(star.log10_yield, sum(math.log10(p) for p in links))


class TestLayeredChain:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 300),
        st.one_of(st.none(), st.floats(1e-3, math.pi / 2)),
        qubits(("pass", "block")),
        st.integers(2, 8),
        st.sampled_from(READOUTS),
    )
    def test_layers_are_the_one_layer_vectors_taken_k_times(self, L, theta, obstacle, layers, readout):
        one_pass = dict(run_chain(ChainConfig(L, theta, Qubit(("pass", "block"), 1.0, 0.0)), readout).final.amps)
        one_block = dict(run_chain(ChainConfig(L, theta, Qubit(("pass", "block"), 0.0, 1.0)), readout).final.amps)
        loss = abs(one_block.pop(("block", "absorbed"), 0j)) ** 2
        want = {}
        for branch, w in (("pass", obstacle.amp0), ("block", obstacle.amp1)):
            vector = {l[1]: a for l, a in {**one_pass, **one_block}.items() if l[0] == branch}
            labels = {(branch,): complex(w)} if w else {}
            for _ in range(layers):
                labels = {l + (x,): amp * a for l, amp in labels.items() for x, a in vector.items()}
            want.update(labels)
        result = run_chain(ChainConfig(L, theta, obstacle, layers), readout)
        amps = dict(result.final.amps)
        absorbed = abs(amps.pop(("block", *("absorbed",) * layers), 0j)) ** 2
        assert amps.keys() == {l for l, a in want.items() if a}
        assert all(close(a, want[l]) for l, a in amps.items())
        survival = sum(
            abs(w) ** 2 * sum(abs(a) ** 2 for l, a in vec.items() if l[0] == b) ** layers
            for b, w, vec in (("pass", obstacle.amp0, one_pass), ("block", obstacle.amp1, one_block))
        )
        assert close(result.survival, survival)
        # each layer keeps 1 - loss of the block branch
        lost = 1.0 if loss >= 1.0 else -math.expm1(layers * math.log1p(-loss))
        assert close(absorbed, abs(obstacle.amp1) ** 2 * lost)
