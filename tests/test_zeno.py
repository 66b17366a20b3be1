import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_AMPLITUDES, TINY_MAGNITUDES, applied, chain_step_reference, states_close
from cfqsim import cli, zeno
from cfqsim.michelson import BOB_DEVICE, BeamSplitter
from cfqsim.star import alice_register, partial_propagator
from cfqsim.states import (
    PureState,
    Qubit,
    entanglement_entropy,
    product_state,
    sector,
)
from cfqsim.zeno import (
    OBSTACLE,
    ChainConfig,
    asymptotic_limit,
    chain_closed_form,
    chain_step,
    mode_register,
    obstacle_step,
    run_chain,
)

MODE = mode_register(0)
PASS = Qubit(("pass", "block"), 1.0, 0.0)
BLOCK = Qubit(("pass", "block"), 0.0, 1.0)


def obstacle_qubit(a, b):
    return Qubit(("pass", "block"), a, b)


def sweep_rows(capsys, bob, layers, l_values, readout="after_final_bs"):
    """``czqe --sweep --format json`` rows, one one-point sweep per cycle
    count; ``bob`` holds the obstacle's amplitude literals, or None for the
    balanced default."""
    rows = []
    for L in l_values:
        argv = ["czqe", "--sweep", f"{L}:{L}:1", "--N", str(layers), "--readout", readout, "--format", "json"]
        assert cli.main(argv + (["--bob", *bob] if bob else [])) == 0
        rows += json.loads(capsys.readouterr().out)
    return rows


class TestChainStep:
    def test_quarter_turn(self):
        s = PureState((OBSTACLE, MODE), {("pass", "0"): 1.0})
        out = chain_step(s, math.pi / 2)
        assert out.amps[("pass", "1")] == pytest.approx(1.0 + 0j, abs=1e-12)
        assert ("pass", "0") not in out.amps or abs(out.amps[("pass", "0")]) < 1e-12

    def test_zero_angle_identity(self):
        s = PureState((OBSTACLE, MODE), {("pass", "0"): 0.6, ("pass", "1"): 0.8})
        assert states_close(chain_step(s, 0.0), s)

    def test_two_steps_compose(self):
        theta = 0.37
        s = PureState((OBSTACLE, MODE), {("pass", "0"): 1.0})
        twice = chain_step(chain_step(s, theta), theta)
        once = chain_step(s, 2 * theta)
        assert states_close(twice, once, 1e-12)

    def test_absorbed_untouched(self):
        s = PureState((OBSTACLE, MODE), {("block", "absorbed"): 1.0})
        assert states_close(chain_step(s, 0.9), s)


class TestObstacleStep:
    def test_lower_arm_untouched(self):
        s = PureState((OBSTACLE, MODE), {("block", "0"): 1.0})
        out, lost = obstacle_step(s)
        assert states_close(out, s)
        assert lost == 0.0

    def test_upper_arm_absorbed(self):
        s = PureState((OBSTACLE, MODE), {("block", "1"): 1.0})
        out, lost = obstacle_step(s)
        assert out.amps == {}
        assert lost == 1.0

    def test_superposed_obstacle(self):
        theta = 0.61
        c, s_ = math.cos(theta), math.sin(theta)
        r = 1.0 / math.sqrt(2.0)
        state = PureState(
            (OBSTACLE, MODE),
            {
                ("pass", "0"): r * c,
                ("pass", "1"): r * s_,
                ("block", "0"): r * c,
                ("block", "1"): r * s_,
            },
        )
        out, lost = obstacle_step(state)
        assert set(out.amps) == {("pass", "0"), ("pass", "1"), ("block", "0")}
        assert out.amps[("pass", "0")] == pytest.approx(r * c)
        assert out.amps[("pass", "1")] == pytest.approx(r * s_)
        assert out.amps[("block", "0")] == pytest.approx(r * c)
        assert lost == pytest.approx(s_**2 / 2)


class TestRunChain:
    def test_full_absorption_single_cycle(self):
        result = run_chain(ChainConfig(L=1, theta=math.pi / 2, obstacle=BLOCK), "after_final_obstacle")
        assert result.survival == pytest.approx(0.0, abs=1e-12)

    def test_pure_block_default_angle(self):
        result = run_chain(ChainConfig(L=25, obstacle=BLOCK), "after_final_obstacle")
        amp = result.final.amps[("block", "0")]
        assert amp == pytest.approx(math.cos(math.pi / 50) ** 25, abs=1e-12)

    def test_pure_pass_freezes_in_upper_arm(self):
        for readout in ("after_final_bs", "after_final_obstacle"):
            result = run_chain(ChainConfig(L=16, obstacle=PASS), readout)
            assert abs(result.final.amps[("pass", "1")]) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_equivalence_random(self):
        rng = np.random.default_rng(301)
        for _ in range(60):
            a = rng.uniform(0, 1)
            obstacle = obstacle_qubit(a, math.sqrt(1 - a * a))
            L = int(rng.integers(1, 65))
            theta = rng.uniform(0.01, math.pi / 2)
            layers = int(rng.integers(1, 4))
            for readout in ("after_final_bs", "after_final_obstacle"):
                result = run_chain(
                    ChainConfig(L=L, theta=theta, obstacle=obstacle, layers=layers), readout
                )
                oracle = chain_closed_form(obstacle, L, theta, layers, readout)
                assert states_close(sector(result.final, MODE, ("0", "1")), oracle, 1e-12)

    def test_stacked_block_survival(self):
        L, layers, theta = 9, 3, 0.21
        result = run_chain(ChainConfig(L=L, theta=theta, obstacle=BLOCK, layers=layers), "after_final_obstacle")
        assert result.survival == pytest.approx(math.cos(theta) ** (2 * L * layers), abs=1e-12)

    def test_mass_conserved_at_every_step(self):
        # The engine steps one layer; two layers lose 1 - (1 - loss)**2 of
        # the block branch, where one layer loses `loss`.
        config = ChainConfig(L=12, obstacle=Qubit.balanced(("pass", "block")), layers=2)
        theta = config.resolved_theta
        state = product_state([(OBSTACLE, config.obstacle), (MODE, "0")])
        absorbed = 0.0
        for _ in range(config.L):
            state = chain_step(state, theta)
            assert state.norm2() + absorbed == pytest.approx(1.0, abs=1e-12)
            state, lost = obstacle_step(state)
            absorbed += lost
            assert state.norm2() + absorbed == pytest.approx(1.0, abs=1e-12)
        loss = absorbed / abs(config.obstacle.amp1) ** 2
        absorbed = abs(config.obstacle.amp1) ** 2 * (1.0 - (1.0 - loss) ** 2)
        result = run_chain(config, "after_final_obstacle")
        assert result.survival + absorbed == pytest.approx(1.0, abs=1e-12)
        assert result.final.norm2() == pytest.approx(1.0, abs=1e-12)
        assert result.final.amps[("block", "absorbed", "absorbed")] == pytest.approx(math.sqrt(absorbed))

    def test_weak_branch_survives(self):
        # the block branch sets the norm, but the pass branch is a real
        # amplitude, not cancellation dust
        obstacle = obstacle_qubit(1e-100, 1.0)
        for readout in ("after_final_bs", "after_final_obstacle"):
            final = run_chain(ChainConfig(L=10, obstacle=obstacle), readout).final
            oracle = chain_closed_form(obstacle, 10, math.pi / 20, 1, readout)
            assert oracle.amps[("pass", "1")] == pytest.approx(1e-100, rel=1e-12)
            assert final.amps[("pass", "1")] == pytest.approx(oracle.amps[("pass", "1")], rel=1e-12)

    def test_total_absorption_over_many_layers(self):
        # one layer loses all its block-branch mass: nothing raises and
        # the absorbed label carries the whole block weight
        result = run_chain(
            ChainConfig(L=1, theta=math.pi / 2, obstacle=Qubit.balanced(("pass", "block")), layers=12),
            "after_final_obstacle",
        )
        label = ("block", *("absorbed",) * 12)
        assert abs(result.final.amps[label]) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert result.final.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_tiny_loss_over_many_layers(self):
        # 1 - (1 - loss)**layers keeps its digits when loss is far below
        # the double epsilon
        L, layers, theta = 3, 10, 1e-10
        result = run_chain(ChainConfig(L=L, theta=theta, obstacle=BLOCK, layers=layers), "after_final_obstacle")
        absorbed = abs(result.final.amps[("block", *("absorbed",) * layers)]) ** 2
        assert absorbed == pytest.approx(-math.expm1(2 * L * layers * math.log(math.cos(theta))), rel=1e-9)

    def test_underflowing_survival_is_a_float(self):
        # every block-branch amplitude underflows to 0 and the state is empty
        result = run_chain(ChainConfig(L=1000, theta=1.5, obstacle=BLOCK))
        assert set(result.final.amps) == {("block", "absorbed")}
        assert result.survival == 0.0 and isinstance(result.survival, float)

    def test_steps_see_at_most_four_labels(self, monkeypatch):
        seen = []

        def counting(step):
            def wrapped(state, *args):
                seen.append(len(state.amps))
                return step(state, *args)

            return wrapped

        monkeypatch.setattr(zeno, "chain_step", counting(chain_step))
        monkeypatch.setattr(zeno, "obstacle_step", counting(obstacle_step))
        for readout in ("after_final_bs", "after_final_obstacle"):
            result = run_chain(ChainConfig(L=30, theta=0.3, layers=6), readout)
            assert len(result.final.amps) > 64
        assert len(seen) == 30 + 29 + 30 + 30
        assert max(seen) <= 4

    def test_steps_reject_other_registers(self):
        for regs in ((MODE, OBSTACLE), (OBSTACLE, MODE, mode_register(1)), (OBSTACLE, mode_register(1))):
            state = PureState(regs, {})
            with pytest.raises(ValueError, match="one layer"):
                chain_step(state, 0.3)
            with pytest.raises(ValueError, match="one layer"):
                obstacle_step(state)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ChainConfig(L=0)
        with pytest.raises(ValueError, match="cycle count L must be an integer"):
            ChainConfig(L=2.5)
        with pytest.raises(ValueError, match="layer count must be an integer"):
            ChainConfig(L=3, layers=2.0)
        with pytest.raises(ValueError, match="layer count must be an integer"):
            asymptotic_limit(Qubit.balanced(("pass", "block")), 2.0)
        with pytest.raises(ValueError, match="layer count must be >= 1"):
            asymptotic_limit(Qubit.balanced(("pass", "block")), 0)
        with pytest.raises(ValueError):
            ChainConfig(L=4, theta=2.0)
        with pytest.raises(ValueError, match="theta must be a real number"):
            ChainConfig(L=3, theta="0.3")
        with pytest.raises(ValueError, match="theta must be a real number"):
            ChainConfig(L=3, theta=1j)
        with pytest.raises(ValueError):
            ChainConfig(L=4, layers=0)
        with pytest.raises(ValueError):
            run_chain(ChainConfig(L=4), "mid_chain")


# derandomized: the iterated rotations of a long chain drift up to about
# 5e-13 from the closed form, so a fresh draw could land near the bound
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.integers(1, 1000),
    st.one_of(st.none(), st.floats(min_value=1e-6, max_value=math.pi / 2)),
    st.integers(1, 10),
    st.sampled_from(("after_final_bs", "after_final_obstacle")),
)
def test_run_chain_matches_closed_form(angle, L, theta, layers, readout):
    obstacle = obstacle_qubit(math.cos(angle), math.sin(angle))
    config = ChainConfig(L=L, theta=theta, obstacle=obstacle, layers=layers)
    result = run_chain(config, readout)
    oracle = chain_closed_form(obstacle, L, config.resolved_theta, layers, readout)
    assert states_close(sector(result.final, MODE, ("0", "1")), oracle, 1e-12)
    assert result.survival == pytest.approx(oracle.norm2(), abs=1e-12)
    assert result.final.norm2() == pytest.approx(1.0, abs=1e-12)


# The one-layer labels a chain step can meet, with magnitudes down to 1e-300
ONE_LAYER_LABELS = [(b, x) for b in ("pass", "block") for x in ("0", "1", "absorbed")]
MAGNITUDES = st.floats(min_value=-300.0, max_value=0.0).map(lambda x: 10.0**x)
COMPLEX_AMPS = st.builds(
    lambda r, i, phase: complex(r, i) * cmath.exp(1j * phase),
    MAGNITUDES,
    st.one_of(st.just(0.0), MAGNITUDES),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
ANGLES = st.one_of(
    st.just(math.pi / 2),
    st.floats(min_value=-300.0, max_value=0.0).map(lambda x: 10.0**x),
    st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(ONE_LAYER_LABELS), COMPLEX_AMPS), unique_by=lambda t: t[0], max_size=6),
    ANGLES,
    st.booleans(),
)
def test_chain_step_matches_reference(items, theta, cancel):
    # with `cancel`, the smaller of each branch's two amplitudes is reset
    # so that its rotated "0" amplitude a0 c - a1 s cancels, leaving a
    # residue that both steps keep unless it is exactly 0
    amps = dict(items)
    c, s = math.cos(theta), math.sin(theta)
    if cancel:
        for b in ("pass", "block"):
            if (b, "0") in amps and (b, "1") in amps:
                if s <= c:
                    amps[(b, "0")] = amps[(b, "1")] * s / c
                else:
                    amps[(b, "1")] = amps[(b, "0")] * c / s
    state = PureState((OBSTACLE, MODE), amps)
    got, want = chain_step(state, theta), chain_step_reference(state, theta)
    assert list(got.amps.items()) == list(want.amps.items())
    assert got.registers == want.registers
    for b in ("pass", "block"):
        if (b, "0") in state.amps and (b, "1") in state.amps:
            residue = state.amps[(b, "0")] * c + state.amps[(b, "1")] * -s
            assert got.amps.get((b, "0"), 0j) == residue


# One-link labels and reflectances down to 5e-324: with TINY_AMPLITUDES, a
# rotated or D1-weighted amplitude underflows to 0j.
LINK_LABELS = [(b, a) for b in ("P", "B") for a in ("V", "H")]
LINK_REFLECTANCES = st.one_of(st.floats(min_value=0.0, max_value=1.0), TINY_MAGNITUDES.filter(lambda R: R <= 1.0))


def tiny_states(registers, labels):
    items = st.lists(st.tuples(st.sampled_from(labels), TINY_AMPLITUDES), unique_by=lambda t: t[0], max_size=len(labels))
    return items.map(lambda items: PureState(registers, dict(items)))


def step_results(one, theta, link, R):
    """``applied`` to each engine step built on the state kernel.  At R = 0
    or 1 the link refuses its splitter, so there the propagator must refuse
    and is left out."""
    steps = [("chain_step", one, lambda s: chain_step(s, theta)), ("obstacle_step", one, lambda s: obstacle_step(s)[0])]
    if 0.0 < R < 1.0:
        steps.append(("partial_propagator", link, lambda s: partial_propagator(s, 0, BeamSplitter(R))))
    else:
        with pytest.raises(ValueError, match="^degenerate beam splitter: R must lie strictly inside \\(0, 1\\)$"):
            partial_propagator(link, 0, BeamSplitter(R))
    return applied(steps)


STEPS = (
    tiny_states((OBSTACLE, MODE), ONE_LAYER_LABELS),
    ANGLES,
    tiny_states((BOB_DEVICE, alice_register(0)), LINK_LABELS),
    LINK_REFLECTANCES,
)


@settings(max_examples=300, deadline=None)
@given(*STEPS)
def test_steps_own_their_amplitudes(one, theta, link, R):
    # obstacle_step starts from its input's amps, so it must copy them
    # before it drops the absorbed label
    for name, unchanged, shared, out in step_results(one, theta, link, R):
        assert unchanged and not shared, name


@settings(max_examples=300, deadline=None)
@given(*STEPS)
def test_steps_hold_no_exact_zero(one, theta, link, R):
    # a rotated or D1-weighted amplitude that underflows to 0j is dropped
    for name, _, _, out in step_results(one, theta, link, R):
        assert all(out.amps.values()), (name, out.amps)


def _same_chain(config, readout):
    """``run_chain``'s result, once it equals the run with the reference step."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(zeno, "chain_step", chain_step_reference)
        want = run_chain(config, readout)
    got = run_chain(config, readout)
    assert list(got.final.amps.items()) == list(want.final.amps.items())
    assert got.survival == want.survival
    return got


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.integers(1, 3000),
    st.one_of(st.none(), st.just(math.pi / 2), st.floats(min_value=1e-6, max_value=math.pi / 2)),
    st.integers(1, 4),
    st.sampled_from(("after_final_bs", "after_final_obstacle")),
)
def test_run_chain_matches_reference_stepping(angle, phase, L, theta, layers, readout):
    obstacle = obstacle_qubit(math.cos(angle), math.sin(angle) * cmath.exp(1j * phase))
    _same_chain(ChainConfig(L=L, theta=theta, obstacle=obstacle, layers=layers), readout)


def test_default_angle_keeps_pass_branch_residue():
    # theta = pi / (2 L) turns the pass branch fully into "1": its "0"
    # label sums to about 8e-17, a real amplitude that the closed form
    # holds too, as cos(L theta) = cos(pi / 2)
    config = ChainConfig(L=10)
    for readout in ("after_final_bs", "after_final_obstacle"):
        result = _same_chain(config, readout)
        oracle = chain_closed_form(config.obstacle, config.L, config.resolved_theta, 1, readout)
        assert ("pass", "0") in oracle.amps
        assert ("pass", "0") in result.final.amps
        assert ("pass", "1") in result.final.amps


class TestAsymptote:
    def test_pure_pass(self):
        s = asymptotic_limit(PASS, 1)
        assert s.amps == {("pass", "1"): 1.0 + 0j}

    def test_balanced_bell(self):
        s = asymptotic_limit(Qubit.balanced(("pass", "block")), 1)
        assert s.norm2() == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(s, [OBSTACLE]) == pytest.approx(1.0, abs=1e-10)

    def test_three_layer_cat_every_bipartition(self):
        s = asymptotic_limit(Qubit.balanced(("pass", "block")), 3)
        regs = s.registers
        for partition in ([regs[0]], [regs[1]], [regs[2]], [regs[0], regs[2]], [regs[1], regs[3]]):
            assert entanglement_entropy(s, partition) == pytest.approx(1.0, abs=1e-10)


class TestConvergenceScan:
    def test_single_cycle_far_from_limit(self, capsys):
        rows = sweep_rows(capsys, None, 1, [1])
        assert rows[0]["fidelity"] < 0.5

    def test_fidelity_grows_with_chain_length(self, capsys):
        rows = sweep_rows(capsys, None, 1, [100, 400])
        assert rows[1]["fidelity"] > rows[0]["fidelity"]

    def test_long_chain_block_survival(self, capsys):
        rows = sweep_rows(capsys, ["0", "1"], 1, [1000], "after_final_obstacle")
        assert rows[0]["survival"] == pytest.approx(math.cos(math.pi / 2000) ** 2000, abs=1e-9)

    def test_three_layer_monotone(self, capsys):
        rows = sweep_rows(capsys, None, 3, [10, 100, 1000])
        fids = [r["fidelity"] for r in rows]
        assert fids[0] < fids[1] < fids[2]

    def test_deficit_scales_inversely_with_length(self, capsys):
        rows = sweep_rows(capsys, None, 3, [100, 1000])
        ratio = (1.0 - rows[0]["fidelity"]) / (1.0 - rows[1]["fidelity"])
        assert 5.0 < ratio < 20.0

    def test_csv_shape(self, capsys):
        assert cli.main(["czqe", "--sweep", "2:4:2", "--bob", "0.7071067811865476", "0.7071067811865476"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "L,fidelity,survival"
        assert len(lines) == 3
        assert lines[1].startswith("2,")

    def test_empty_grid(self):
        # parse_sweep always yields its start, so no grid is empty; a grid
        # without a positive cycle count is the nearest case
        args = cli.build_parser().parse_args(["czqe", "--sweep", "0:0:1", "--bob", "1", "0"])
        with pytest.raises(ValueError):
            args.handler(args)
