"""Golden CLI transcript: every subcommand, format, sweep and error exit.

``tests/data/golden_cli.txt`` holds, per command, the exit code, stdout
and stderr of ``cfqsim.cli.main``.  A refactor of the engines must leave
it byte-identical.  Regenerate it only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/data/golden_cli.txt
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).parent / "data" / "golden_cli.txt"

COMMANDS = (
    # table
    "table --R 0.3",
    "table --R 0.5 --format json",
    "table --R 0.999",
    # round: defaults, explicit and complex amplitudes, a negative 're,im'
    # literal, a slightly-off norm (warning on stderr), CSV
    "round --R 0.5",
    "round --R 0.37 --alice 0.6 0.8 --bob 0.8 0,0.6",
    "round --R 0.4 --alice 0.8 -0.6,0.0 --bob -0.6,0.8 0",
    "round --R 0.5 --alice 0.600000001 0.8",
    "round --R 0.3 --format csv",
    # scqkd
    "scqkd --R 0.5",
    "scqkd --R 0.25 --alice 1 0 --bob 0.6 0.8 --format csv",
    # star: defaults, explicit parties, zero yield, tiny yield, largest star
    "star --R 0.5",
    "star --R 0.3 --alice 0.6 0.8 --alice 0.8 0,0.6 --alice 0,1 0 --bob 0.6 0.8 --format csv",
    "star --R 0.5 --alice 1 0 --bob 1 0",
    "star --R 0.5 --alice 1 0 --bob 1 0 --format csv",
    "star --R 0.0001 --N 8",
    "star --R 0.5 --N 600",
    # czqe: single runs and both readouts, then sweeps
    "czqe --L 50",
    "czqe --L 20 --N 2 --readout after_final_obstacle --format csv",
    "czqe --L 10 --theta 0.2 --bob 0.6 0.8",
    "czqe --sweep 10:40:10",
    "czqe --sweep 5:15:5 --N 2 --readout after_final_obstacle --bob 0.8 0.6",
    # qst
    "qst --payload 0.6 0.8",
    "qst --R 0.3 --payload 0.6 0,0.8 --format csv",
    # cost, cost-min
    "cost --R 0.5",
    "cost --R 0.3 --format csv",
    "cost --sweep 0.05:0.95:0.05",
    "cost --sweep 0.1:0.2:0.03",
    "cost-min",
    "cost-min --format csv",
    # mc: JSON, then CSV with the counts as three columns
    "mc --R 0.5 --runs 1000 --seed 1",
    "mc --R 0.3 --runs 300000 --seed 7 --format csv",
    # precondition violations: exit 1 with an 'error:' line
    "table --R 0",
    "round --R 1.5",
    "round --R 0.5 --alice 0.9 0.9",
    "round --R 0.5 --alice zzz 1",
    "round --R 0.5 --alice nan 1",
    "round --R 0.5 --bob 1e400 0",
    "scqkd --R 1.0",
    "star --R 0.5 --N 0",
    "star --R 0.5 --N 5001",
    "star --R 0.5 --N 3 --alice 1 0",
    "star --R 0.5 --alice inf 1",
    "star --R 1 --N 2",
    "czqe",
    "czqe --L 0",
    "czqe --L 10 --theta 2",
    "czqe --sweep 1.5:3:1",
    "czqe --sweep 10:20",
    "qst --R 0 --payload 1 0",
    "cost",
    "cost --R -0.2",
    "cost --sweep 0.9:0.1:0.05",
    "cost --sweep a:b:c",
    "mc --R 0.5 --runs 0 --seed 1",
    "mc --R 1.2 --runs 10 --seed 1",
    # usage errors: exit 2
    "table",
    "round --R x",
    # conflicting flags: exit 1 with an 'error:' line
    "czqe --sweep 10:20:10 --theta 0.2",
    "czqe --sweep 10:20:10 --L 10",
    "cost --R 0.3 --sweep 0.1:0.2:0.1",
    # sweeps as JSON lists
    "czqe --sweep 10:20:10 --format json",
    "cost --sweep 0.1:0.2:0.1 --format json",
    # single amplitudes far below 1e-15: small probabilities, not dust
    "round --R 1e-31",
    "scqkd --R 1e-31",
    "star --R 1e-31 --N 2",
    "czqe --L 100 --theta 1.2 --bob 0 1",
    "czqe --L 100 --theta 1.2 --bob 0 1 --readout after_final_obstacle",
    # many stacked layers; a D1 probability that underflows to 0
    "czqe --L 1000 --N 8",
    "qst --R 5e-324 --payload 0.6 0.8",
    # an amplitude whose norm**2 overflows; non-finite results print as null
    "round --R 0.5 --alice 1e200 0",
    "mc --R 0.5 --runs 1 --seed 1",
    "cost --R 1e-320",
    # mc names a negative --seed itself
    "mc --R 0.5 --runs 10 --seed -1",
    # star yields whose per-spoke norm**2 falls below the normal float range
    "star --R 0.5 --alice 1e-200 1 --bob 1e-300 1",
    "star --R 5e-324 --N 3",
    "star --R 1e-315 --N 3",
    # both pass/block parties superposed with complex amplitudes
    "scqkd --R 0.37 --alice 0.6 0,0.8 --bob 0,0.6 0.8",
    # a subnormal yield (exactly 9.828e-324) prints as null, next to its log10
    "star --R 0.3 --N 330",
    # an echoed R prints as parsed: 1 - 2**-53 is not 1.0
    "cost --R 0.9999999999999999",
    # a passing pair's D2 amplitude: two terms that add, far below the norm
    "round --R 1e-12 --alice 1e-16 1 --bob 1 1e-16",
    # one chain step and no obstacle step: nothing is absorbed, and the
    # absorbed label, exactly 0, is dropped
    "czqe --L 1 --N 14",
    # the longest chain CZQE_MAX_WORK allows
    "czqe --L 59996",
    # a chain whose survival (about 8e-4600) and fidelity underflow: null
    "czqe --L 2000 --theta 1.5 --bob 0 1",
    # a mu*beta product that underflows to 0j
    "round --R 0.5 --alice 1e-200 1 --bob 1 1e-200",
    # cost columns and a table outcome below the normal range print null
    "cost --R 5e-324",
    "table --R 1e-200 --format json",
    "cost --sweep 5e-324:1e-323:5e-324",
)


def run(command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    from cfqsim import cli

    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage lines to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            code = cli.main(command.split())
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _stream(name: str, text: str) -> list[str]:
    lines = [f"{name}:"]
    lines += [f"| {line}" for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append("\\ no newline at end")
    return lines


def transcript() -> str:
    lines = []
    for command in COMMANDS:
        code, out, err = run(command)
        lines.append(f"$ cfqsim {command}")
        lines.append(f"exit {code}")
        lines += _stream("stdout", out)
        lines += _stream("stderr", err)
    return "\n".join(lines) + "\n"


def test_transcript_is_golden():
    expected, actual = GOLDEN.read_text(), transcript()
    diff = difflib.unified_diff(
        expected.splitlines(), actual.splitlines(), "golden", "now", lineterm=""
    )
    assert actual == expected, "\n".join(list(diff)[:40])


def test_json_outputs_hold_no_nan_or_infinity():
    def reject(name):
        raise AssertionError(f"{name} is not JSON")

    outputs = [line[2:] for line in GOLDEN.read_text().splitlines() if line.startswith(("| {", "| ["))]
    assert outputs
    for text in outputs:
        json.loads(text, parse_constant=reject)


if __name__ == "__main__":
    sys.stdout.write(transcript())
