"""Command-line front end.

This is the only module that reads amplitudes from text or turns numbers
into text: the engines take and return numbers, and every printed digit
passes through ``emit``, at 12 significant digits, with amplitudes as
're' or 're,im' literals; an echoed reflectance ``R`` prints exactly as
parsed.  Every subcommand emits byte-deterministic JSON or CSV
(``--format``).  A single result is a JSON object or one CSV row;
``qst`` and the ``--sweep`` grids are a JSON list or one CSV row per
entry, and ``table``'s JSON is one object holding its rows.  ``table``
and the sweeps default to CSV, the rest to JSON.  Exit codes: 0 on
success, 1 on a precondition violation (one-line diagnostic on stderr),
2 on a usage error.  Each handler imports its engine when it runs, and
``emit`` imports ``json`` only for JSON output, so a call loads only the
modules its subcommand and output format use.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .states import Qubit

# Amplitude pairs within states.NORM_TOL of unit norm pass through
# untouched; beyond this deviation the pair is rejected as a probable typo.
NORM_REJECT = 1e-6
# Size caps, checked before any work starts; each work cap is sized so that
# the largest allowed input takes at most about 1-2 s.  The times quoted
# below are end to end, medians of 7 subprocess runs on a shared 2-vCPU
# host under Python 3.11.7, where a bare `python -c pass` took about 40 ms.
# Largest star, counting --N or the --alice pairs.  run_star and the exact
# cat columns are linear in spokes, up to the columns' product tree
# (--N 2000 takes about 90 ms and --N 5000 about 165 ms, of which the
# columns take about 55 ms), but argparse's time grows as the square of the
# --alice pairs: 5000 of them take about 0.83 s.  So ``main`` counts the
# --alice options before argparse reads them, and refuses 20,000 pairs in
# about 0.14 s.  Spokes whose amplitude parts differ in scale by hundreds
# of bits widen the columns' products: see ``star.EXACT_BITS``.
STAR_MAX_PARTIES = 5000
# Most points in a --sweep grid: 100k cost-profile rows take about 1.1 s.
SWEEP_MAX_POINTS = 100_000
# Most mc --runs.  The draw's work does not grow with --runs, so this caps
# the input range, not the work: the sampler's rejection test compares
# lgamma values near n ln n, whose rounding (about 1e-5 at 5e9) grows with n.
MC_MAX_RUNS = 5_000_000_000
# Most czqe work, summed over the sweep points: L one-layer steps plus the
# 2^(layers+1) labels of the layered output.  L = 59996 at one layer takes
# about 0.21 s, --N 14 (2^15 labels) at L = 1 about 0.1 s.
# The cap sits below the 1-2 s budget of the other caps on purpose: the
# chain composes L rotations one at a time, so its rounding error grows
# with L, and near the cap the 12th printed digit can already be wrong.
CZQE_MAX_WORK = 60_000

# A token such as '-0.6,0.2' or '-inf' is an amplitude literal, not an
# option: no option of this parser starts with '-' and a digit or letter.
_NEGATIVE_LITERAL = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative amplitude literal as a value.

    argparse takes '-0.6' for a number but '-0.6,0.2' for an unknown option;
    subparsers inherit this class.
    """

    def _parse_optional(self, arg_string):
        if _NEGATIVE_LITERAL.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def parse_qubit(basis: tuple[str, str], pair: list[str], label: str) -> Qubit:
    """Two amplitude literals, each 're' or 're,im', as a qubit over ``basis``."""
    from .states import NORM_TOL, Qubit

    amps = []
    for text in pair:
        try:
            amps.append(complex(*map(float, text.split(","))))
        except (TypeError, ValueError):  # TypeError: more than two fields
            raise ValueError(f"malformed complex literal {text!r}; expected 're' or 're,im'") from None
    a0, a1 = amps
    if not (cmath.isfinite(a0) and cmath.isfinite(a1)):
        raise ValueError(f"{label} amplitudes must be finite")
    n2 = abs(a0) * abs(a0) + abs(a1) * abs(a1)  # overflows to inf, not OverflowError
    deviation = abs(n2 - 1.0)
    if deviation > NORM_REJECT:
        raise ValueError(
            f"{label} amplitudes deviate from unit norm by {deviation:.3g}; refusing to guess"
        )
    if deviation > NORM_TOL:
        print(
            f"warning: renormalizing {label} amplitudes (norm^2 off by {deviation:.3g})",
            file=sys.stderr,
        )
    n = math.sqrt(n2)
    return Qubit(tuple(basis), a0 / n, a1 / n)


def parse_sweep(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must be 'start:stop:step'")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError("sweep must be 'start:stop:step' with numeric fields") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("sweep fields must be finite")
    if step <= 0 or stop < start:
        raise ValueError("sweep needs start <= stop and step > 0")
    span = (stop - start) / step
    if not span <= SWEEP_MAX_POINTS - 1:  # also catches an overflow to inf
        raise ValueError(
            f"sweep has about {span + 1:.3g} points; at most {SWEEP_MAX_POINTS} are supported"
        )
    # Whole steps in the span; the slack, relative to a step, absorbs only rounding.
    count = math.floor(span * (1 + 1e-12) + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _round12(value):
    """Floats at 12 significant digits; a non-finite float becomes None.  A
    complex amplitude becomes its literal: 're' when purely real, else 're,im'."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else None
    if isinstance(value, complex):
        if value.imag == 0.0:
            return f"{value.real:.12g}"
        return f"{value.real:.12g},{value.imag:.12g}"
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _csv_cell(text: str) -> str:
    """RFC 4180 quoting: a cell holding a comma, quote or line break is
    wrapped in quotes with its quotes doubled; any other cell is as is."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _flat(record: dict) -> dict:
    """A record with each nested dict (the mc counts) spread into
    ``key_subkey`` fields, one CSV column each."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update((f"{key}_{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    return flat


def emit(result, fmt: str) -> str:
    """One record (a dict) or a list of records, as sorted-key JSON or as
    CSV with a header line, nested dicts flattened into columns.  A missing
    or non-finite number is JSON null and an empty CSV cell; a complex
    amplitude is a literal string.  A single record's ``R`` is the parsed
    input, printed as its repr; the ``R`` of a sweep grid point is
    rounded like any other number."""
    echoed = result.get("R") if isinstance(result, dict) else None
    result = _round12(result)
    if echoed is not None:
        result["R"] = echoed if fmt == "json" else repr(echoed)
    if fmt == "json":
        import json
        return json.dumps(result, sort_keys=True, allow_nan=False) + "\n"
    records = [_flat(r) for r in ([result] if isinstance(result, dict) else result)]
    keys = list(records[0].keys())
    lines = [",".join(_csv_cell(k) for k in keys)]
    for record in records:
        cells = []
        for key in keys:
            v = record[key]
            cells.append(_csv_cell("" if v is None else f"{v:.12g}" if isinstance(v, float) else str(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_table(args) -> str:
    from .michelson import BeamSplitter, RoundConfig, run_round
    from .states import Qubit

    bs = BeamSplitter(args.R)
    records = []
    # Swapping both inputs' basis symbols leaves the probabilities alone, so
    # each row runs both inputs of its pair and checks that they agree.
    for pair in (("VP", "HB"), ("VB", "HP")):
        probs = []
        for a_sym, b_sym in pair:
            alice = Qubit(("V", "H"), float(a_sym == "V"), float(a_sym == "H"))
            bob = Qubit(("P", "B"), float(b_sym == "P"), float(b_sym == "B"))
            probs.append([o.probability for o in run_round(RoundConfig(bs, alice, bob))])
        if any(abs(x - y) > 1e-12 for x, y in zip(*probs)):
            raise ValueError("paired basis configurations disagree; simulation bug")
        records.append({"inputs": "|".join(pair), **dict(zip(("P_D1", "P_D2", "P_DB"), probs[0]))})
    if args.format == "json":
        return emit({"R": args.R, "rows": records}, "json")
    return emit(records, "csv")


def cmd_round(args) -> str:
    """``round`` (N09) and ``scqkd``: the subcommand names the variant."""
    from .michelson import BeamSplitter, RoundConfig, round_record

    alice = parse_qubit(("V", "H"), args.alice, "--alice")
    bob = parse_qubit(("P", "B"), args.bob, "--bob")
    variant = "ScQKD" if args.command == "scqkd" else "N09"
    record = round_record(RoundConfig(BeamSplitter(args.R), alice, bob, variant=variant))
    return emit(record, args.format)


def _check_star_parties(parties: int | None) -> None:
    if parties is not None and parties > STAR_MAX_PARTIES:
        raise ValueError(f"star has {parties} spoke parties; at most {STAR_MAX_PARTIES} are supported")


def _alice_options(argv: list[str]) -> int:
    """How many ``--alice`` options argparse would read from a ``star``
    command line: the tokens that name ``--alice`` or an abbreviation of it
    (``--a`` and longer; no other star option starts so), with or without
    an ``=value``.  argparse reads no such token as a value."""
    return sum(len(name) >= 3 and "--alice".startswith(name) for name in (t.split("=", 1)[0] for t in argv))


def cmd_star(args) -> str:
    from .michelson import BeamSplitter
    from .star import StarConfig, exact_cat_columns, run_star
    from .states import Qubit

    _check_star_parties(len(args.alice) if args.alice else args.N)
    if args.alice:
        alices = tuple(parse_qubit(("V", "H"), pair, "--alice") for pair in args.alice)
        if args.N is not None and args.N != len(alices):
            raise ValueError("--N disagrees with the number of --alice pairs")
    else:
        n = args.N if args.N is not None else 2
        alices = tuple(Qubit.balanced(("V", "H")) for _ in range(n))
    bob = parse_qubit(("P", "B"), args.bob, "--bob") if args.bob else Qubit.balanced(("P", "B"))
    config = StarConfig(BeamSplitter(args.R), alices, bob)
    result = run_star(config)
    fidelity, entropy = exact_cat_columns(config)
    y = result.yield_probability  # null below the normal range, where it has lost digits; 0 only if exact
    record = {
        "N": len(alices),
        "R": args.R,
        "yield": y if y >= sys.float_info.min or result.log10_yield == -math.inf else None,
        "log10_yield": result.log10_yield,
        "cat_fidelity": fidelity,
        "entropy_any_bipartition": entropy,
    }
    return emit(record, args.format)


def cmd_czqe(args) -> str:
    from .states import Qubit, fidelity_up_to_phase
    from .zeno import ChainConfig, asymptotic_limit, run_chain

    if args.sweep and (args.L is not None or args.theta is not None):
        raise ValueError("czqe --sweep sets L and the default angle; it takes no --L or --theta")
    obstacle = parse_qubit(("pass", "block"), args.bob, "--bob") if args.bob else Qubit.balanced(("pass", "block"))
    layers = args.N if args.N is not None else 1
    if args.sweep:
        l_values = []
        for v in parse_sweep(args.sweep):
            if abs(v - round(v)) > 1e-9 or round(v) < 1:
                raise ValueError("czqe sweep values must be positive integers")
            l_values.append(int(round(v)))
    elif args.L is None:
        raise ValueError("czqe needs --L (or --sweep)")
    else:
        l_values = [args.L]
    # 2**(layers+1) is computed only once layers is known to be small
    labels = len(l_values) * 2 ** (layers + 1) if layers < math.log2(CZQE_MAX_WORK) else math.inf
    if sum(l_values) + labels > CZQE_MAX_WORK:
        raise ValueError(
            f"czqe work (L plus 2^(layers+1) labels, summed over the sweep) exceeds {CZQE_MAX_WORK}"
        )
    configs = [ChainConfig(L=L, theta=args.theta, obstacle=obstacle, layers=layers) for L in l_values]
    target = asymptotic_limit(obstacle, layers)
    rows = []
    for config in configs:
        result = run_chain(config, args.readout)
        fidelity = fidelity_up_to_phase(result.final, target)
        rows.append({"L": config.L, "fidelity": fidelity, "survival": result.survival})
    if args.sweep:
        return emit(rows, args.format or "csv")
    record = {
        "L": args.L,
        "theta": configs[0].resolved_theta,
        "layers": layers,
        "readout": args.readout,
        "survival": rows[0]["survival"],
        "fidelity_asymptote": rows[0]["fidelity"],
    }
    return emit(record, args.format or "json")


def cmd_qst(args) -> str:
    from .michelson import BeamSplitter
    from .transfer import transfer_alice_to_bob

    payload = parse_qubit(("V", "H"), args.payload, "--payload")
    bs = BeamSplitter(args.R)
    records = []
    for branch in ("V", "H"):
        t = transfer_alice_to_bob(payload, bs, branch)
        fields = {"branch": t.sender_outcome, "bit": t.classical_bit, "fidelity": t.fidelity}
        records.append({"mu": payload.amp0, "nu": payload.amp1, **fields})
    return emit(records, args.format)


def cmd_cost(args) -> str:
    from .costs import cost_profile, total_qst_cost

    if args.sweep:
        if args.R is not None:
            raise ValueError("cost takes --R or --sweep, not both")
        rows = [
            {k: getattr(p, k) for k in ("R", "P_D1", "P_D2", "P_DB", "C_q", "C", "p1_prime")}
            for p in map(cost_profile, parse_sweep(args.sweep))
        ]
        return emit(rows, args.format or "csv")
    if args.R is None:
        raise ValueError("cost needs --R (or --sweep)")
    record = {**cost_profile(args.R)._asdict(), "total_qst_cost": total_qst_cost(args.R)}
    return emit(record, args.format or "json")


def cmd_cost_min(args) -> str:
    from .costs import minimize_classical_cost, minimize_quantum_cost

    rq, cq = minimize_quantum_cost()
    rc, cc = minimize_classical_cost()
    record = {
        "R_quantum": rq,
        "C_q_min": cq,
        "R_classical": rc,
        "C_min": cc,
        "total_qst_cost_min": cc + 1.0,
    }
    return emit(record, args.format)


def cmd_mc(args) -> str:
    from .costs import monte_carlo

    if args.runs > MC_MAX_RUNS:
        raise ValueError(f"mc asks for {args.runs} runs; at most {MC_MAX_RUNS} are supported")
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
    report = monte_carlo(args.R, args.runs, args.seed)
    record = {
        "R": args.R,
        "runs": report.runs,
        "seed": report.seed,
        "counts": {"D1": report.counts[0], "D2": report.counts[1], "DB": report.counts[2]},
        "empirical_C": report.empirical_C,
        "std_error": report.std_error,
    }
    return emit(record, args.format)


def _add_format(parser, default="json"):
    parser.add_argument("--format", choices=("json", "csv"), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfqsim",
        description="Counterfactual quantum communication: round simulation, "
        "cat-state networks, state transfer, and resource costs.",
        epilog="Amplitudes are given as 're' or 're,im'; pairs slightly off unit "
        "norm are renormalized with a warning, badly off ones are rejected.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="conditional detector probabilities for classical basis inputs")
    p.add_argument("--R", type=float, required=True)
    _add_format(p, default="csv")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("round", help="one fully quantized round")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--alice", nargs=2, metavar=("MU", "NU"), default=["0.7071067811865476", "0.7071067811865476"])
    p.add_argument("--bob", nargs=2, metavar=("ALPHA", "BETA"), default=["0.7071067811865476", "0.7071067811865476"])
    _add_format(p)
    p.set_defaults(handler=cmd_round)

    p = sub.add_parser("scqkd", help="one round of the pass/block variant")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--alice", nargs=2, metavar=("PASS", "BLOCK"), default=["0.7071067811865476", "0.7071067811865476"])
    p.add_argument("--bob", nargs=2, metavar=("PASS", "BLOCK"), default=["0.7071067811865476", "0.7071067811865476"])
    _add_format(p)
    p.set_defaults(handler=cmd_round)

    p = sub.add_parser("star", help="cat-state distribution over a star of links")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--N", type=int, default=None, help="number of spoke parties")
    p.add_argument("--alice", nargs=2, metavar=("MU", "NU"), action="append", default=None)
    p.add_argument("--bob", nargs=2, metavar=("ALPHA", "BETA"), default=None)
    _add_format(p)
    p.set_defaults(handler=cmd_star)

    p = sub.add_parser("czqe", help="chained-interferometer run or convergence scan")
    p.add_argument("--L", type=int, default=None, help="cycle count")
    p.add_argument("--theta", type=float, default=None, help="per-splitter angle (default pi/2L)")
    p.add_argument("--N", type=int, default=None, help="stacked mode layers")
    p.add_argument("--bob", nargs=2, metavar=("PASS", "BLOCK"), default=None, help="obstacle amplitudes")
    p.add_argument("--readout", choices=("after_final_bs", "after_final_obstacle"), default="after_final_bs")
    p.add_argument("--sweep", default=None, help="L grid as start:stop:step (CSV unless --format json)")
    _add_format(p, default=None)
    p.set_defaults(handler=cmd_czqe)

    p = sub.add_parser("qst", help="state transfer over the shared pair, both branches")
    p.add_argument("--R", type=float, default=0.5)
    p.add_argument("--payload", nargs=2, metavar=("MU", "NU"), required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_qst)

    p = sub.add_parser("cost", help="resource-cost profile at one R or over a sweep")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--sweep", default=None, help="R grid as start:stop:step (CSV unless --format json)")
    _add_format(p, default=None)
    p.set_defaults(handler=cmd_cost)

    p = sub.add_parser("cost-min", help="reflectances minimizing both resource costs")
    _add_format(p)
    p.set_defaults(handler=cmd_cost_min)

    p = sub.add_parser("mc", help="seeded Monte Carlo of round outcomes")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_mc)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] == ["star"]:  # before argparse, whose time grows as the square of the --alice pairs
            _check_star_parties(_alice_options(argv[1:]))
        args = build_parser().parse_args(argv)
        text = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
