"""Spans around the calls into cfqsim's public functions, from outside src/.

``Tracer.install`` wraps each traced function at every binding that holds
it: ``apply_map``, ``sector``, ``product_state`` and friends are imported
by name into ``michelson``, ``star``, ``zeno``, ``transfer`` and ``cli``,
so wrapping ``states.apply_map`` alone would miss most calls.  A span
records name, start, end, parent span and op id, plus label counts
(``len(state.amps)``) at the boundary.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

MODULES = ("states", "michelson", "zeno", "star", "transfer", "costs", "cli")


def _labels(state) -> int:
    return len(state.amps)


def _absorbed(chain_result) -> int:
    return sum(1 for label in chain_result.final.amps if "absorbed" in label)


# Traced functions: (module, attribute, labels_in?, labels_out(result),
# extra(result), metric quantities).  Label counts are summed over calls.
TARGETS = (
    ("states", "product_state", False, _labels, None, ("calls", "self_ms", "labels_out")),
    ("states", "apply_map", True, _labels, None, ("calls", "self_ms", "labels_in", "labels_out")),
    ("states", "sector", True, _labels, None, ("calls", "self_ms", "labels_in", "labels_out")),
    ("states", "PureState.normalized", False, None, None, ("calls", "self_ms")),
    ("states", "PureState.restrict", False, None, None, ("calls", "self_ms")),
    ("states", "postselect", False, None, None, ("calls", "self_ms")),
    ("states", "entanglement_entropy", False, None, None, ("calls", "self_ms")),
    ("states", "fidelity_up_to_phase", False, None, None, ("calls", "self_ms")),
    ("michelson", "forward_beamsplitter", False, None, None, ("calls", "self_ms")),
    ("michelson", "switch_interaction", False, None, None, ("calls", "self_ms")),
    ("michelson", "return_beamsplitter", False, None, None, ("calls", "self_ms")),
    ("michelson", "run_round", False, None, None, ("self_ms",)),
    ("michelson", "run_scqkd_round", False, None, None, ("self_ms",)),
    ("michelson", "round_record", False, None, None, ("self_ms",)),
    ("transfer", "transfer_alice_to_bob", False, None, None, ("self_ms",)),
    ("transfer", "transfer_bob_to_alice", False, None, None, ("self_ms",)),
    ("transfer", "transfer_without_correction", False, None, None, ("self_ms",)),
    ("zeno", "chain_step", True, None, None, ("calls", "self_ms", "labels_in")),
    ("zeno", "obstacle_step", True, None, None, ("calls", "self_ms", "labels_in")),
    ("zeno", "run_chain", False, lambda r: len(r.final.amps), _absorbed, ("self_ms",)),
    ("star", "partial_propagator", True, _labels, None, ("calls", "self_ms", "labels_in", "labels_out")),
    ("star", "run_star", False, lambda r: len(r.state.amps), None, ("self_ms",)),
    ("costs", "monte_carlo", False, None, None, ("calls", "self_ms")),
    ("costs", "cost_profile", False, None, None, ("calls", "self_ms")),
    ("costs", "golden_section_min", False, None, None, ("calls", "self_ms")),
    ("cli", "main", False, None, None, ("self_ms",)),
)

# Metrics that are not a per-function sum, with their units; ``run.py``
# fills the last four.
DERIVED = (
    ("zeno.absorbed_share", "ratio"),
    ("star.label_yield", "ratio"),
    ("cli.interpreter_ms", "ms"),
    ("cli.numpy_import_ms", "ms"),
    ("cli.package_import_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

UNITS = {"calls": "count", "self_ms": "ms", "labels_in": "count", "labels_out": "count"}
COUNTS = ("calls", "labels_in", "labels_out", "extra")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [
        (f"{module}.{attr}.{q}", UNITS[q])
        for module, attr, _, _, _, quantities in TARGETS
        for q in quantities
    ]
    return names + list(DERIVED)


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        # Span: [name, start_ns, end_ns, parent index, op id, labels_in, labels_out, extra]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count_in, count_out, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op,
                   len(args[0].amps) if count_in else 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if count_out is not None:
                rec[6] = count_out(out)
            if extra is not None:
                rec[7] = extra(out)
            return out

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"cfqsim.{m}") for m in MODULES]
        modules.append(importlib.import_module("cfqsim"))
        for module_name, attr, count_in, count_out, extra, _ in TARGETS:
            name = f"{module_name}.{attr}"
            home = importlib.import_module(f"cfqsim.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, count_in, count_out, extra))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, count_in, count_out, extra)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapper)

    def _patch(self, owner, binding, original, wrapper) -> None:
        setattr(owner, binding, wrapper)
        self._restore.append((owner, binding, original))

    def remove(self) -> None:
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the part covered by its children.

        Traced calls nest, so the children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - covered for (_, start, end, *_), covered in zip(self.spans, child_ns)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, self time in ms and summed counts."""
        out: dict[str, dict[str, float]] = {}
        for (name, _, _, _, _, lin, lout, extra), own in zip(self.spans, self.self_ns()):
            t = out.setdefault(name, dict.fromkeys((*COUNTS, "self_ms"), 0))
            t["calls"] += 1
            t["self_ms"] += own / 1e6
            t["labels_in"] += lin
            t["labels_out"] += lout
            t["extra"] += extra
        return out

    def built_under(self, child: str, parent: str) -> int:
        """Summed labels_out of ``child`` spans called directly by ``parent``."""
        return sum(
            s[6] for s in self.spans if s[0] == child and s[3] >= 0 and self.spans[s[3]][0] == parent
        )

    def counts(self) -> dict:
        """The deterministic part of ``totals`` (everything but times)."""
        return {name: {k: t[k] for k in COUNTS} for name, t in self.totals().items()}


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Per-layer metrics over repeated traced passes of one op list.

    Counts come from the first pass (every pass repeats them exactly);
    self times are the best over passes.
    """
    totals = [t.totals() for t in tracers]
    first = totals[0]
    zero = dict.fromkeys((*COUNTS, "self_ms"), 0)
    metrics: dict[str, float] = {}
    for module, attr, _, _, _, quantities in TARGETS:
        name = f"{module}.{attr}"
        for q in quantities:
            if q == "self_ms":
                value = min(t.get(name, zero)["self_ms"] for t in totals)
            else:
                value = first.get(name, zero)[q]
            metrics[f"{name}.{q}"] = value
    chain = first.get("zeno.run_chain", zero)
    metrics["zeno.absorbed_share"] = chain["extra"] / chain["labels_out"] if chain["labels_out"] else 0.0
    built = tracers[0].built_under("states.product_state", "star.run_star")
    kept = first.get("star.run_star", zero)["labels_out"]
    metrics["star.label_yield"] = kept / built if built else 0.0
    return metrics


def span_records(tracer: Tracer) -> dict:
    """JSON form of the spans: a name table plus one row per span, with
    times in ns from the first span's start."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0
    return {
        "fields": ["name", "start_ns", "end_ns", "parent", "op", "labels_in", "labels_out", "extra"],
        "names": names,
        "spans": [[index[s[0]], s[1] - t0, s[2] - t0, *s[3:]] for s in tracer.spans],
    }
