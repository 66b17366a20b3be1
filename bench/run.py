#!/usr/bin/env python3
"""cfqsim benchmark: seeded closed-loop workloads checked against closed forms.

Run from the repository root, one workload at a time:

    python3 bench/run.py --workload round_mix --seed 1 --seconds 27 --trace 0
    for w in round_mix star_grow chain_grow cli_cold; do
        python3 bench/run.py --workload $w --seed 1; done

Workloads (see ``workloads.py`` for why each exists): round_mix,
star_grow, chain_grow, cli_cold.  The package is used from ``src/`` as it
stands in the checkout; nothing is installed.

``--trace 0`` cycles through the workload's fixed op list, one op at a
time, in whole passes until ``--seconds`` have passed (at least three
passes).  Each op's time is the median over the passes of its wall time
at reference speed.  On a shared machine the CPU speed drifts by tens of
percent, and by up to 2x for minutes at a time, so every sample is scaled
by REF_MS / the wall time of a fixed pure-Python reference kernel measured
just before it (at most ``PROBE_EVERY_S`` earlier).  The kernel uses no
cfqsim code, so a change to cfqsim moves the ops and not the kernel.  The
plain wall-clock figures are printed in the summary lines.  The end-to-end
metrics:

    setup_s      median over separate processes of the wall time from
                 process start to the first timed op (imports, inputs,
                 warm-up); not scaled
    ops_per_s    ops in the list / summed op times
    op_p50_ms    median over the op list of the op times
    op_p90_ms    90th percentile over the op list of the op times; the
                 summary line states how many ops lie above it
    ok_ratio     (attempted - failed) / attempted; fail_ratio = 1 - ok_ratio
                 is printed in the summary lines
    peak_rss_mb  peak resident set of the process that runs the ops (the
                 CLI subprocesses on cli_cold)

An op fails when it raises, when its result misses its oracle
(``oracles.py``), or, on cli_cold, when it exits with the wrong code.  A
failed op is still timed and never aborts the run.  Two ops reproduce
known defects and fail today: a star with R = 1e-4, N = 8, whose exact
yield 3.9e-35 is pruned to 0, and ``round --alice nan 1``, which exits 0
instead of 1.  ``correct`` is false when any other op fails.

``--trace 1`` runs one pass over the same op list untraced and one traced,
three times, and reports the per-layer metrics of ``tracing.py`` (cli_cold
calls ``cli.main`` in process there; self times are the best of the three
traced passes, in plain wall time), the tracing overhead (best traced
pass / best untraced pass), CLI start-up baselines and the scaling report
of ``scaling.py``.
It ignores ``--seconds``.  Counts repeat exactly for a fixed seed.  The
spans of the first traced pass are written to
``.bench_out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("round_mix", "star_grow", "chain_grow", "cli_cold")

# The reference kernel's best wall time on a 2-vCPU Intel Xeon host.
REF_MS = 1.6
PROBE_EVERY_S = 0.02  # longest gap between an op and the kernel run before it
SETUP_SAMPLES = 7  # set-up processes per run; setup_s is their median
MIN_PASSES = 3  # passes over the op list, so every op's median has 3 samples or more
TRACE_PASSES = 3  # untraced/traced pass pairs in a traced run
BASELINE_SAMPLES = 5  # subprocesses per CLI start-up baseline


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up, print "ready" and exit: one setup_s sample.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the package, make the inputs and warm up; returns (ops, run)."""
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.generate(workload, seed)
    run = workloads.Runner()
    for op in workloads.warmup_ops(workload):
        run(op)
    return ops, run


def reference_kernel() -> int:
    """Fixed dict-of-tuples work of the kind cfqsim's label maps do."""
    amps: dict[tuple, complex] = {}
    for i in range(3000):
        key = (i & 15, i >> 4, "x", "y")
        amps[key] = amps.get(key, 0j) + complex(i, 1.0) * 0.5
    return len(amps)


class SpeedProbe:
    """Wall times of the reference kernel, run at most every PROBE_EVERY_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._at = -math.inf

    def scale(self) -> float:
        """REF_MS / the latest kernel time, running the kernel if it is due."""
        if time.perf_counter() - self._at > PROBE_EVERY_S:
            t0 = time.perf_counter()
            reference_kernel()
            self._at = time.perf_counter()
            self.samples.append(self._at - t0)
        return REF_MS * 1e-3 / self.samples[-1]


def run_pass(ops, run, tracer=None, probe=None):
    """One pass over the op list: per-op (wall time, scale) and (result, error).

    The scale is 1 without a probe."""
    times, results = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        scale = probe.scale() if probe is not None else 1.0
        t0 = time.perf_counter()
        try:
            out = (run(op), None)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = (None, f"{type(exc).__name__}: {exc}")
        times.append((time.perf_counter() - t0, scale))
        results.append(out)
    return times, results


def check_pass(ops, results) -> list[tuple]:
    """(op, reason) for every op whose result misses its oracle."""
    import oracles

    failures = []
    for op, (result, error) in zip(ops, results):
        reason = error or oracles.check(op, result)
        if reason:
            failures.append((op, reason))
    return failures


def quantiles(times: list[float]) -> tuple[float, float, int]:
    """(p50, p90, values above p90)."""
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return cuts[4], cuts[8], sum(1 for t in times if t > cuts[8])


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to it being ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("set-up process failed")
    return elapsed


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def failure_lines(failures, attempted: int) -> tuple[list[str], bool]:
    """Summary lines, and whether every failure is a known-defect probe."""
    by_probe: dict[str, int] = {}
    unexpected = []
    for op, reason in failures:
        if op.probe:
            by_probe[op.probe] = by_probe.get(op.probe, 0) + 1
        else:
            unexpected.append((op, reason))
    lines = [f"# fail_ratio {len(failures) / attempted!r} ({len(failures)}/{attempted})"]
    lines += [f"# known defect {name}: failed {n} times" for name, n in sorted(by_probe.items())]
    lines += [f"# UNEXPECTED FAILURE {op.kind} {op.params.get('argv', '')}: {reason}"
              for op, reason in unexpected[:10]]
    return lines, not unexpected


def end_to_end(workload: str, seed: int, seconds: float, ops, run) -> tuple[dict, list[str]]:
    samples = [[] for _ in ops]  # per op: (wall time, scale) of every pass
    probe = SpeedProbe()
    failures, setups, passes = [], [], 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        times, results = run_pass(ops, run, probe=probe)
        for per_op, sample in zip(samples, times):
            per_op.append(sample)
        failures += check_pass(ops, results)
        passes += 1
        # Set-up samples are spread over the run, between passes, so they
        # see the same drift in machine speed as the ops.
        due = SETUP_SAMPLES * (time.perf_counter() - start) / seconds
        while len(setups) < min(SETUP_SAMPLES, due):
            setups.append(setup_sample(workload, seed))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seed))
    if workload == "cli_cold":
        peak_rss_kb = run.peak_child_rss_kb
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    op_s = [statistics.median(t * k for t, k in per_op) for per_op in samples]
    wall_s = [statistics.median(t for t, _ in per_op) for per_op in samples]
    p50, p90, above = quantiles(op_s)
    wall_p50, wall_p90, _ = quantiles(wall_s)
    attempted = passes * len(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / sum(op_s), "ops/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MiB"),
    }
    lines = [
        f"# {len(ops)} ops x {passes} passes = {attempted} timed samples; "
        f"percentiles over the {len(ops)} per-op medians, {above} above p90",
        f"# reference kernel: median {statistics.median(probe.samples) * 1e3:.3f} ms over "
        f"{len(probe.samples)} runs (REF_MS {REF_MS})",
        f"# wall clock, unscaled: ops_per_s {len(ops) / sum(wall_s):.4f} "
        f"op_p50_ms {wall_p50 * 1e3:.4f} op_p90_ms {wall_p90 * 1e3:.4f}",
        f"# setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}",
    ]
    more, correct = failure_lines(failures, attempted)
    summary = {"correct": correct, "attempted": attempted, "failed": len(failures)}
    return {**summary, "metrics": metrics}, lines + more


def baseline_ms(code: str) -> float:
    """Median wall time of ``python -c code`` with the package on the path."""
    import workloads

    env = workloads.cli_env()
    samples = []
    for _ in range(BASELINE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def cli_main_by_subcommand(tracer, ops) -> dict[str, float]:
    """Self time of ``cli.main`` per subcommand, in ms."""
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_ns()):
        if span[0] == "cli.main":
            sub = ops[span[4]].params["sub"]
            totals[sub] = totals.get(sub, 0.0) + own / 1e6
    return totals


def traced(workload: str, seed: int, ops) -> tuple[dict, list[str]]:
    import scaling
    import tracing
    import workloads

    run = workloads.Runner(in_process_cli=True)
    plain_s, traced_s, tracers, failures = [], [], [], []
    for _ in range(TRACE_PASSES):
        times, results = run_pass(ops, run)
        plain_s.append(sum(t for t, _ in times))
        failures += check_pass(ops, results)
        tracer = tracing.Tracer()
        with tracer:
            times, results = run_pass(ops, run, tracer)
        traced_s.append(sum(t for t, _ in times))
        failures += check_pass(ops, results)
        tracers.append(tracer)
    repeatable = all(t.counts() == tracers[0].counts() for t in tracers)

    metrics = tracing.layer_metrics(tracers)
    metrics["cli.interpreter_ms"] = baseline_ms("pass")
    metrics["cli.numpy_import_ms"] = baseline_ms("import numpy")
    metrics["cli.package_import_ms"] = baseline_ms("import cfqsim")
    overhead = min(traced_s) / min(plain_s)
    metrics["trace.overhead_ratio"] = overhead
    units = dict(tracing.metric_names())
    scaling_report = scaling.report()
    by_sub = cli_main_by_subcommand(tracers[0], ops)

    with open(workloads.OUT_DIR / f"trace-{workload}.json", "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "machine": fingerprint(),
                "untraced_pass_s": plain_s,
                "traced_pass_s": traced_s,
                "metrics": metrics,
                "cli_main_self_ms_by_subcommand": by_sub,
                "scaling": scaling_report,
                **tracing.span_records(tracers[0]),
            },
            fh,
        )
    attempted = 2 * TRACE_PASSES * len(ops)
    lines = [
        f"# tracing overhead {overhead:.4f} (best traced / best untraced pass of {TRACE_PASSES})",
        f"# spans per traced pass: {len(tracers[0].spans)}; counts repeat: {repeatable}",
    ]
    lines += [f"# cli.main.self_ms[{sub}] {ms:.3f}" for sub, ms in sorted(by_sub.items())]
    lines += scaling.lines(scaling_report)
    more, correct = failure_lines(failures, attempted)
    summary = {"correct": correct and repeatable, "attempted": attempted, "failed": len(failures)}
    return {**summary, "metrics": {k: (v, units[k]) for k, v in metrics.items()}}, lines + more


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfqsim" / "__init__.py").is_file():
        print(f"error: no cfqsim sources under {SRC}", file=sys.stderr)
        return 2
    ops, run = setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.trace:
        result, lines = traced(args.workload, args.seed, ops)
    else:
        result, lines = end_to_end(args.workload, args.seed, args.seconds, ops, run)
    machine = fingerprint()
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for line in lines:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
