"""Seeded workload generation and op execution for the cfqsim benchmark.

A workload is a fixed list of ops made from a seed; the benchmark cycles
through it closed-loop, one op at a time.  cfqsim receives only the
generated inputs.  Every call into the package goes through a module
attribute (``michelson.round_record``, not a name imported from it), so
the tracer in ``tracing.py`` sees the calls the workload makes.

Why each workload exists:

round_mix   states never exceed 8 labels, so per-call overhead in
            ``states`` and the three ``michelson`` maps dominates; ``star``
            and ``zeno`` do no work here.
star_grow   ``product_state`` builds 2^(N+1) labels and
            ``partial_propagator`` prunes them to 2: label count and memory
            dominate.
chain_grow  two shapes use ``states`` differently: long-thin chains make
            about 2L small ``apply_map`` calls, short-wide chains carry
            3^layers labels per call.
cli_cold    one ``python -m cfqsim.cli`` subprocess per op: interpreter
            start and imports dominate; the only workload in which ``cli``
            and ``costs`` do work.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from cfqsim import cli, michelson, star, states, transfer, zeno

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Scratch space for CLI output; ignored by git.
OUT_DIR = ROOT / ".bench_out"


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a kind, its generated inputs, and, for the
    ops that reproduce a known defect, the defect's name."""

    kind: str
    params: dict
    probe: str | None = None


# ---------------------------------------------------------------- inputs


def haar_pair(rng: random.Random) -> tuple[complex, complex]:
    """Haar-random qubit amplitudes with complex phases."""
    z0 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    z1 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    n = math.sqrt(abs(z0) ** 2 + abs(z1) ** 2)
    return z0 / n, z1 / n


def bounded_pair(rng: random.Random, phase_span: float = math.pi) -> tuple[complex, complex]:
    """Amplitudes with |amp0|^2 in [0.1, 0.9] and phases in [-span, span].

    Bounding the weights keeps every generated star amplitude above the
    absolute pruning threshold, so only the dedicated probe op reproduces
    the tiny-yield defect.
    """
    p = rng.uniform(0.1, 0.9)
    phase0 = rng.uniform(-phase_span, phase_span)
    phase1 = rng.uniform(-phase_span, phase_span)
    return cmath.rect(math.sqrt(p), phase0), cmath.rect(math.sqrt(1.0 - p), phase1)


def _round_mix(rng: random.Random) -> list[Op]:
    kinds = (
        "round_record",
        "run_round_split",
        "scqkd_record",
        "transfer_a2b",
        "transfer_b2a",
        "transfer_nocorr",
    )
    ops = []
    for i in range(600):
        kind = kinds[i % len(kinds)]
        params = {"R": rng.uniform(0.05, 0.95), "a": haar_pair(rng), "b": haar_pair(rng)}
        if kind == "transfer_a2b":
            params["branch"] = rng.choice(("V", "H"))
        elif kind == "transfer_b2a":
            params["branch"] = rng.choice(("P", "B"))
        ops.append(Op(kind, params))
    rng.shuffle(ops)
    return ops


def _star_params(rng: random.Random, n: int, R: float) -> dict:
    return {"R": R, "alices": [bounded_pair(rng) for _ in range(n)], "bob": bounded_pair(rng)}


def _star_grow(rng: random.Random) -> list[Op]:
    # The sizes are fixed and the seed draws only R, the amplitudes and the
    # order, so every seed does the same label work.  Three ops per N keep
    # a pass under two seconds, so each op is timed some 15 times in a run;
    # the 90th percentile falls inside the N = 11 group.
    ops = [
        Op("star", _star_params(rng, n, rng.uniform(0.05, 0.95)))
        for n in range(2, 13)
        for _ in range(3)
    ]
    balanced = (1 / math.sqrt(2), 1 / math.sqrt(2))
    probe = {"R": 1e-4, "alices": [balanced] * 8, "bob": balanced}
    ops.append(Op("star", probe, probe="tiny_yield_pruned_to_zero"))
    rng.shuffle(ops)
    return ops


def _chain_params(rng: random.Random, L: float, layers: int) -> dict:
    return {
        "L": int(L),
        "layers": layers,
        "obstacle": haar_pair(rng),
        "readout": rng.choice(zeno.READOUTS),
    }


def _chain_grow(rng: random.Random) -> list[Op]:
    # Fixed sizes, as for the star: the seed draws the obstacles, readouts
    # and order.  Eight long-thin chains and nine short-wide ones keep a
    # pass near half a second.
    ops = [Op("chain", _chain_params(rng, L, 1)) for L in range(150, 1201, 150)]
    ops += [
        Op("chain", _chain_params(rng, L, layers))
        for layers in (2, 3, 4)
        for L in (20, 50, 80)
    ]
    rng.shuffle(ops)
    return ops


def amp_args(pair: tuple[complex, complex]) -> list[str]:
    """CLI literals that parse back to exactly these amplitudes."""
    return [f"{z.real!r},{z.imag!r}" for z in pair]


def _cli(params: dict, probe: str | None = None) -> Op:
    return Op("cli", params, probe)


def _cli_cold(rng: random.Random) -> list[Op]:
    # argparse reads a literal starting with '-' and a comma as an option,
    # so CLI amplitudes keep a nonnegative real part.
    def pair():
        return bounded_pair(rng, math.pi / 2)

    def R():
        return rng.uniform(0.05, 0.95)

    # One op per subcommand keeps the list short, so each op is timed
    # often enough in a run for its median time to repeat across runs.
    # Star and chain sizes are fixed, so every seed does the same work.
    r = R()
    ops = [_cli({"sub": "table", "R": r, "argv": ["table", "--R", repr(r)]})]
    for sub in ("round", "scqkd"):
        r, a, b = R(), pair(), pair()
        argv = [sub, "--R", repr(r), "--alice", *amp_args(a), "--bob", *amp_args(b)]
        ops.append(_cli({"sub": sub, "R": r, "a": a, "b": b, "argv": argv}))
    r, n = R(), 4
    alices, bob = [pair() for _ in range(n)], pair()
    argv = ["star", "--R", repr(r), "--N", str(n), "--bob", *amp_args(bob)]
    for a in alices:
        argv += ["--alice", *amp_args(a)]
    ops.append(_cli({"sub": "star", "R": r, "alices": alices, "bob": bob, "argv": argv}))
    L, obstacle, readout = 500, pair(), rng.choice(zeno.READOUTS)
    argv = ["czqe", "--L", str(L), "--bob", *amp_args(obstacle), "--readout", readout]
    ops.append(_cli({"sub": "czqe", "L": L, "layers": 1, "obstacle": obstacle,
                     "readout": readout, "argv": argv}))
    r, payload = R(), pair()
    argv = ["qst", "--R", repr(r), "--payload", *amp_args(payload)]
    ops.append(_cli({"sub": "qst", "R": r, "payload": payload, "argv": argv}))
    r = R()
    ops.append(_cli({"sub": "cost", "R": r, "argv": ["cost", "--R", repr(r)]}))
    r, seed = R(), rng.randrange(2**32)
    argv = ["mc", "--R", repr(r), "--runs", "1000000", "--seed", str(seed)]
    ops.append(_cli({"sub": "mc", "R": r, "runs": 1_000_000, "seed": seed, "argv": argv}))

    start = 30
    obstacle, readout = pair(), rng.choice(zeno.READOUTS)
    sweep = f"{start}:{start + 150}:50"
    argv = ["czqe", "--sweep", sweep, "--bob", *amp_args(obstacle), "--readout", readout]
    ops.append(_cli({"sub": "czqe_sweep", "L_values": [start + 50 * i for i in range(4)],
                     "obstacle": obstacle, "readout": readout, "argv": argv}))
    lo = round(rng.uniform(0.05, 0.3), 6)
    sweep = f"{lo!r}:{lo + 0.5!r}:0.05"
    ops.append(_cli({"sub": "cost_sweep", "start": lo, "stop": lo + 0.5, "step": 0.05,
                     "argv": ["cost", "--sweep", sweep]}))
    ops.append(_cli({"sub": "cost_min", "argv": ["cost-min"]}))

    # Precondition violations, two of four kinds: each must exit 1 with a
    # diagnostic.
    invalid = (
        ["round", "--R", repr(1.0 + rng.uniform(0.01, 1.0))],
        ["star", "--R", repr(R()), "--N", "0"],
        ["cost", "--R", repr(-rng.uniform(0.01, 1.0))],
        ["mc", "--R", repr(R()), "--runs", "0", "--seed", str(rng.randrange(1000))],
    )
    ops += [_cli({"sub": "invalid", "argv": argv}) for argv in rng.sample(invalid, 2)]
    ops.append(_cli({"sub": "invalid", "argv": ["round", "--R", "0.5", "--alice", "nan", "1"]},
                    probe="nan_amplitude_accepted"))
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "round_mix": _round_mix,
    "star_grow": _star_grow,
    "chain_grow": _chain_grow,
    "cli_cold": _cli_cold,
}

WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's op list; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warmup_ops(workload: str) -> list[Op]:
    """Small fixed ops run during set-up so imports, caches and bytecode
    are warm before the first timed op."""
    ops = generate(workload, 0)
    if workload == "star_grow":
        return [min(ops, key=lambda op: len(op.params["alices"]))]
    if workload == "chain_grow":
        return [min(ops, key=lambda op: op.params["L"] * 3 ** op.params["layers"])]
    if workload == "cli_cold":
        return []  # a cold interpreter start is the op itself
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    return list(first.values())


# ------------------------------------------------------------- execution


def _qubit(basis: tuple[str, str], pair: tuple[complex, complex]) -> states.Qubit:
    return states.Qubit(basis, pair[0], pair[1])


def round_config(p: dict, variant: str = "N09") -> michelson.RoundConfig:
    return michelson.RoundConfig(
        michelson.BeamSplitter(p["R"]), _qubit(("V", "H"), p["a"]), _qubit(("P", "B"), p["b"]), variant
    )


def chain_obstacle(p: dict) -> states.Qubit:
    return _qubit(("pass", "block"), p["obstacle"])


def _run_star(p: dict):
    config = star.StarConfig(
        michelson.BeamSplitter(p["R"]),
        tuple(_qubit(("V", "H"), a) for a in p["alices"]),
        _qubit(("P", "B"), p["bob"]),
    )
    result = star.run_star(config)
    fidelity = star.cat_fidelity(result)
    if result.yield_probability > 0.0:
        entropy = states.entanglement_entropy(result.state, [star.alice_register(0)])
    else:
        entropy = 0.0
    return result, fidelity, entropy


def _run_chain(p: dict):
    obstacle = chain_obstacle(p)
    config = zeno.ChainConfig(L=p["L"], obstacle=obstacle, layers=p["layers"])
    result = zeno.run_chain(config, p["readout"])
    target = zeno.asymptotic_limit(obstacle, p["layers"])
    return result, states.fidelity_up_to_phase(result.final, target)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _run_cli_subprocess(p: dict, env: dict) -> tuple[tuple[int, str, str], int]:
    """((exit code, stdout, stderr), peak RSS in KiB) of one
    ``python -m cfqsim.cli`` call.

    Output goes to unnamed files so the child never blocks on a full pipe
    and can be reaped with ``wait4``, which reports its own peak RSS.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cfqsim.cli", *p["argv"]],
            stdout=out,
            stderr=err,
            cwd=ROOT,
            env=env,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode()), usage.ru_maxrss


def _run_cli_in_process(p: dict):
    """The same call through ``cli.main`` in this process (traced runs)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(p["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Runner:
    """``runner(op) -> result`` for every op kind.

    CLI ops run as subprocesses, or through ``cli.main`` in this process
    when ``in_process_cli`` is set (traced runs).  ``peak_child_rss_kb`` is
    the largest resident set of any CLI subprocess run so far.
    """

    def __init__(self, in_process_cli: bool = False) -> None:
        self.peak_child_rss_kb = 0
        self._env = cli_env()
        self._table = {
            "round_record": lambda p: michelson.round_record(round_config(p)),
            "run_round_split": lambda p: michelson.run_round(
                round_config(p), split_detector_polarization=True
            ),
            "scqkd_record": lambda p: michelson.round_record(round_config(p, "ScQKD")),
            "transfer_a2b": lambda p: transfer.transfer_alice_to_bob(
                _qubit(("V", "H"), p["a"]), michelson.BeamSplitter(p["R"]), p["branch"]
            ),
            "transfer_b2a": lambda p: transfer.transfer_bob_to_alice(
                _qubit(("P", "B"), p["b"]), michelson.BeamSplitter(p["R"]), p["branch"]
            ),
            "transfer_nocorr": lambda p: transfer.transfer_without_correction(
                _qubit(("V", "H"), p["a"])
            ),
            "star": _run_star,
            "chain": _run_chain,
            "cli": _run_cli_in_process if in_process_cli else self._cli_subprocess,
        }

    def _cli_subprocess(self, p: dict):
        result, rss_kb = _run_cli_subprocess(p, self._env)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, rss_kb)
        return result

    def __call__(self, op: Op):
        return self._table[op.kind](op.params)
