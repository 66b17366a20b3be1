#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

Checks that
- every oracle accepts the real result of an op and counts a wrong answer
  as a failure;
- two seeds generate different inputs, and one seed the same inputs;
- ``run.py`` prints exactly the metric names and units of BENCHMARK.json,
  on every workload, untraced and traced, under two seeds;
- the traced run's counts repeat exactly for a fixed seed;
- ``run.py`` exits non-zero, printing no result, in a directory holding
  only BENCHMARK.json and the benchmark's files.

Takes a few minutes; cli_cold runs at least a hundred subprocesses.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


_NUMBER = re.compile(r"(?<![\w.])-?\d+(\.\d+)?(e[-+]?\d+)?")


def _perturb_numbers(text: str) -> str:
    return _NUMBER.sub(lambda m: repr(float(m.group()) * 1.001 + 1e-3), text)


def wrong_answers(op, result) -> list:
    """Results that differ from ``result`` in a way the oracle must catch."""
    kind = op.kind
    if kind in ("round_record", "scqkd_record"):
        return [{**result, "P_D1": result["P_D1"] + 1e-6}, {**result, "entropy_D1": result["entropy_D1"] + 1e-6}]
    if kind == "run_round_split":
        first = dataclasses.replace(result[0], probability=result[0].probability + 1e-6)
        return [[first, *result[1:]], list(reversed(result))]
    if kind in ("transfer_a2b", "transfer_b2a"):
        return [
            dataclasses.replace(result, fidelity=result.fidelity - 1e-6),
            dataclasses.replace(result, classical_bit=1 - result.classical_bit),
        ]
    if kind == "transfer_nocorr":
        return [result + 1e-6]
    if kind == "star":
        cat, fid, ent = result
        return [
            (dataclasses.replace(cat, yield_probability=cat.yield_probability * (1 + 1e-6)), fid, ent),
            (cat, fid - 1e-6, ent),
            (cat, fid, ent + 1e-6),
        ]
    if kind == "chain":
        chain, fid = result
        return [(dataclasses.replace(chain, survival=chain.survival + 1e-9), fid), (chain, fid + 1e-6)]
    if kind == "cli":
        code, out, err = result
        wrong = [(1 - code if code in (0, 1) else 0, out, err)]
        if out:
            wrong.append((code, _perturb_numbers(out), err))
        return wrong
    raise ValueError(kind)


def test_oracles() -> None:
    workloads.OUT_DIR.mkdir(exist_ok=True)
    run = workloads.Runner()
    for workload in workloads.WORKLOADS:
        seen = set()
        for op in workloads.generate(workload, 1):
            key = (op.kind, op.params.get("sub"), op.probe)
            if key in seen:
                continue
            seen.add(key)
            result = run(op)
            reason = oracles.check(op, result)
            name = f"{workload} {key[0]} {key[1] or ''} {op.probe or ''}".strip()
            if op.probe:
                check(reason is not None, f"known defect still fails: {name} ({reason})")
                continue
            check(reason is None, f"oracle accepts real result: {name} ({reason})")
            for bad in wrong_answers(op, result):
                check(oracles.check(op, bad) is not None, f"oracle rejects wrong answer: {name}")


def test_seeds() -> None:
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
        check(repr(a) != repr(b), f"{workload}: seeds 1 and 2 give different inputs")
        check(repr(a) == repr(workloads.generate(workload, 1)), f"{workload}: seed 1 repeats its inputs")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().split("\n")[-1])


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace, seed in ((0, 1), (1, 2)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            what = f"{workload} trace {trace} seed {seed}"
            check(proc.returncode == 0, f"{what}: exit 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode != 0:
                continue
            result = last_json(proc.stdout)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            check(result["correct"] is True, f"{what}: correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want[trace], f"{what}: metric names and units match BENCHMARK.json")


def test_trace_counts_repeat() -> None:
    """cli_cold's traced run reaches every module; its counts must repeat."""
    counts = []
    for _ in range(2):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "cli_cold",
               "--seed", "3", "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        metrics = last_json(proc.stdout)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] == "count" or k in ("zeno.absorbed_share", "star.label_yield")})
    check(counts[0] == counts[1] and len(counts[0]) > 20, "traced counts repeat for a fixed seed")


def test_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "round_mix", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and "{" not in proc.stdout, "no sources: non-zero exit, no result")
    shutil.rmtree(bare)


def main() -> int:
    test_oracles()
    test_seeds()
    test_without_sources()
    test_trace_counts_repeat()
    test_metric_names()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
