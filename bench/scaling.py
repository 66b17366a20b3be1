"""Scaling report: star party count N and chain length L x layer count.

Informational, not an end-to-end metric.  Each point has a time budget.
Its time is predicted from the previous point's time (measured, or itself
predicted) scaled by the growth of the label work; a point predicted to
exceed the budget is recorded as ``skipped: budget`` and never run.
``run_star`` at N = 32 would build 2^33 labels.
"""

from __future__ import annotations

import time

from cfqsim import michelson, star, states, zeno

POINT_BUDGET_S = 1.0
STAR_N = (4, 8, 12, 16, 32, 64)
CHAIN_L = (10**2, 10**4, 10**6)
CHAIN_LAYERS = (1, 2, 4, 8)


def _star_point(n: int) -> dict:
    q = states.Qubit.balanced(("V", "H"))
    config = star.StarConfig(michelson.BeamSplitter(0.5), (q,) * n, states.Qubit.balanced(("P", "B")))
    result = star.run_star(config)
    want = 0.25**n * 2.0 * 0.5 ** (n + 1)  # (RT)^N (|a|^2 prod|nu|^2 + |b|^2 prod|mu|^2)
    return {"yield": result.yield_probability, "oracle_ok": abs(result.yield_probability - want) <= 1e-9 * want}


def _chain_point(L: int, layers: int) -> dict:
    result = zeno.run_chain(zeno.ChainConfig(L=L, layers=layers))
    return {"survival": result.survival, "labels": len(result.final.amps)}


def _sweep(points) -> list[dict]:
    """points: (label dict, label work, thunk) in report order."""
    rows, base = [], None
    for key, work, thunk in points:
        row = dict(key, label_work=work)
        predicted = base[1] * work / base[0] if base else 0.0
        if base:
            row["predicted_s"] = predicted
        if predicted > POINT_BUDGET_S:
            row["status"] = "skipped: budget"
            base = (work, predicted)
        else:
            t0 = time.perf_counter()
            row.update(thunk())
            elapsed = time.perf_counter() - t0
            row.update(status="ran", seconds=elapsed)
            base = (work, elapsed)
        rows.append(row)
    return rows


def report() -> dict:
    """Both sweeps; star work is the 2^(N+1) labels built, chain work is
    L x layers x 3^layers (one map call per layer and step over up to
    2 * 3^layers labels)."""
    star_points = [({"N": n}, 2 ** (n + 1), lambda n=n: _star_point(n)) for n in STAR_N]
    chain_points = [
        ({"L": L, "layers": k}, L * k * 3**k, lambda L=L, k=k: _chain_point(L, k))
        for k in CHAIN_LAYERS
        for L in CHAIN_L
    ]
    return {"budget_s": POINT_BUDGET_S, "star": _sweep(star_points), "chain": _sweep(chain_points)}


def lines(rep: dict) -> list[str]:
    out = []
    for sweep in ("star", "chain"):
        for row in rep[sweep]:
            key = " ".join(f"{k}={row[k]}" for k in ("N", "L", "layers") if k in row)
            if row["status"] == "ran":
                out.append(f"# scaling {sweep} {key}: {row['seconds'] * 1e3:.3f} ms")
            else:
                out.append(f"# scaling {sweep} {key}: skipped: budget (predicted {row['predicted_s']:.3g} s)")
    return out

