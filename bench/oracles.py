"""Independent checks of every benchmark op.

Each check compares an op's result with a closed form and never with the
simulator under test: the package's own closed forms (``closed_form_probs``,
``d1_state_closed_form``, ``chain_closed_form``, ``asymptotic_limit``),
formulas derived here from the beam splitter conventions, and, for ``mc``,
an in-process ``monte_carlo`` at the same seed (the CLI must reproduce it
bit for bit).  Overlaps and entropies are computed here from the raw
amplitude dictionaries, not with ``cfqsim.states``.

``check(op, result)`` returns ``None`` when the result is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import workloads
from cfqsim import costs, michelson, zeno

# Tolerances of the closed-form comparisons.
PROB_TOL = 1e-10  # probabilities, posterior fidelities, transfer fidelity
ENTROPY_TOL = 1e-9  # SVD entropy against the binary entropy of the weights
CHAIN_TOL = 1e-12  # unabsorbed chain sector and survival
STAR_RTOL = 1e-9  # star yield, relative
PRINT_TOL = 1e-9  # CLI numbers, printed at 12 significant digits
ARGMIN_TOL = 1e-6  # golden-section minimizer location


class Mismatch(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def near(got, want, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r}")


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def fidelity(got: dict, want: dict) -> float:
    """|<want|got>|^2 of the normalized label dictionaries."""
    n = sum(abs(a) ** 2 for a in got.values()) * sum(abs(a) ** 2 for a in want.values())
    acc = sum(want[k].conjugate() * a for k, a in got.items() if k in want)
    return abs(acc) ** 2 / n


def weights_entropy(w0: float, w1: float) -> float:
    return h2(w0 / (w0 + w1))


# ------------------------------------------------------------ round mix


def _d1_weights(p: dict) -> tuple[float, float]:
    d1 = michelson.d1_state_closed_form(workloads.round_config(p))
    return abs(d1.amps.get(("H", "P"), 0j)) ** 2, abs(d1.amps.get(("V", "B"), 0j)) ** 2


def scqkd_probs(p: dict) -> tuple[float, float, float, float, float]:
    """(P_D1, P_D2, P_DB, w0, w1) of the pass/block round.

    w0 and w1 are the D1 weights of (block, pass) and (pass, block); each
    party's block absorbs its own arm, and the two single-blocker branches
    click D1 with probability RT.
    """
    R = p["R"]
    T = 1.0 - R
    (ap, ab), (bp, bb) = p["a"], p["b"]
    both_pass = abs(ap * bp) ** 2
    w0 = abs(ab * bp) ** 2
    w1 = abs(ap * bb) ** 2
    p_d1 = R * T * (w0 + w1)
    p_d2 = both_pass + T * T * w0 + R * R * w1
    p_db = abs(ab * bb) ** 2 + R * w0 + T * w1
    return p_d1, p_d2, p_db, w0, w1


def _check_record(record: dict, probs: tuple[float, float, float], w0: float, w1: float, tol: float) -> None:
    for key, want in zip(("P_D1", "P_D2", "P_DB"), probs):
        near(record[key], want, tol, key)
    entropy = weights_entropy(w0, w1) if probs[0] > 1e-12 else 0.0
    near(record["entropy_D1"], entropy, max(tol, ENTROPY_TOL), "entropy_D1")


def check_round_record(p: dict, record: dict, tol: float = PROB_TOL) -> None:
    cf = michelson.closed_form_probs(workloads.round_config(p))
    _check_record(record, (cf.P_D1, cf.P_D2, cf.P_DB), *_d1_weights(p), tol)


def check_scqkd_record(p: dict, record: dict, tol: float = PROB_TOL) -> None:
    p_d1, p_d2, p_db, w0, w1 = scqkd_probs(p)
    _check_record(record, (p_d1, p_d2, p_db), w0, w1, tol)


def split_round_posteriors(p: dict) -> dict[str, dict]:
    """Unnormalized outcome states of the polarization-resolved N09 round.

    A passed photon interferes entirely into D2 with amplitude i; an
    absorbed one leaves the internal arm, which reaches D1 with -rt and D2
    with iR.  The blocked sector keeps the channel amplitude t.
    """
    R = p["R"]
    r, t = math.sqrt(R), math.sqrt(1.0 - R)
    mu, nu = p["a"]
    alpha, beta = p["b"]
    return {
        "D1V": {("V", "B", "D1V"): -r * t * beta * mu},
        "D1H": {("H", "P", "D1H"): -r * t * alpha * nu},
        "D2V": {("V", "P", "D2V"): 1j * alpha * mu, ("V", "B", "D2V"): 1j * R * beta * mu},
        "D2H": {("H", "B", "D2H"): 1j * beta * nu, ("H", "P", "D2H"): 1j * R * alpha * nu},
        "DB": {("H", "P"): t * alpha * nu, ("V", "B"): t * beta * mu},
    }


def check_run_round_split(p: dict, outcomes) -> None:
    want = split_round_posteriors(p)
    expect([o.outcome for o in outcomes] == list(want), "outcome order")
    cf = michelson.closed_form_probs(workloads.round_config(p))
    probs = {o.outcome: o.probability for o in outcomes}
    near(probs["D1V"] + probs["D1H"], cf.P_D1, PROB_TOL, "P_D1")
    near(probs["D2V"] + probs["D2H"], cf.P_D2, PROB_TOL, "P_D2")
    near(probs["DB"], cf.P_DB, PROB_TOL, "P_DB")
    for o in outcomes:
        mass = sum(abs(a) ** 2 for a in want[o.outcome].values())
        near(o.probability, mass, PROB_TOL, f"P_{o.outcome}")
        if mass > 1e-12:
            near(fidelity(o.posterior.amps, want[o.outcome]), 1.0, PROB_TOL, f"{o.outcome} posterior")


def _check_transfer(t, branch: str, flip_branch: str, target: dict, got: dict) -> None:
    expect(t.sender_outcome == branch, "sender outcome")
    expect(t.classical_bit == int(branch == flip_branch), "classical bit")
    near(t.branch_probability, 0.5, PROB_TOL, "branch probability")
    near(t.fidelity, 1.0, PROB_TOL, "reported fidelity")
    near(fidelity(got, target), 1.0, PROB_TOL, "received state")


def check_transfer_a2b(p: dict, t) -> None:
    mu, nu = p["a"]
    got = {"P": t.receiver_state.amp0, "B": t.receiver_state.amp1}
    _check_transfer(t, p["branch"], "V", {"P": nu, "B": mu}, got)


def check_transfer_b2a(p: dict, t) -> None:
    alpha, beta = p["b"]
    got = {"V": t.receiver_state.amp0, "H": t.receiver_state.amp1}
    _check_transfer(t, p["branch"], "B", {"V": beta, "H": alpha}, got)


def no_correction_fidelity(p: dict) -> float:
    """One branch is exact, the other has fidelity (|nu|^2 - |mu|^2)^2."""
    mu, nu = p["a"]
    return 0.5 * (1.0 + (abs(nu) ** 2 - abs(mu) ** 2) ** 2)


# ----------------------------------------------------------------- star


def star_closed_form(p: dict) -> tuple[float, dict]:
    """Yield (RT)^N (|a prod nu|^2 + |b prod mu|^2) and the two-term cat."""
    n = len(p["alices"])
    alpha, beta = p["bob"]
    prod_nu, prod_mu = alpha, beta
    for mu, nu in p["alices"]:
        prod_nu *= nu
        prod_mu *= mu
    w = abs(prod_nu) ** 2 + abs(prod_mu) ** 2
    cat = {("H",) * n + ("P",): prod_nu, ("V",) * n + ("B",): prod_mu}
    return (p["R"] * (1.0 - p["R"])) ** n * w, cat


def check_star(p: dict, result) -> None:
    cat_result, cat_fid, entropy = result
    want_yield, cat = star_closed_form(p)
    got_yield = cat_result.yield_probability
    expect(
        abs(got_yield - want_yield) <= STAR_RTOL * want_yield,
        f"yield: got {got_yield!r}, want {want_yield!r}",
    )
    near(fidelity(cat_result.state.amps, cat), 1.0, STAR_RTOL, "post-selected state")
    w_nu, w_mu = (abs(a) ** 2 for a in cat.values())
    r = 1.0 / math.sqrt(2.0)
    ideal = {k: r for k in cat}
    near(cat_fid, fidelity(cat, ideal), STAR_RTOL, "cat fidelity")
    near(entropy, weights_entropy(w_nu, w_mu), ENTROPY_TOL, "entropy")


# ---------------------------------------------------------------- chain


def chain_expected(p: dict, L: int) -> tuple[dict, float, float]:
    """Unabsorbed sector, survival and fidelity to the infinite-chain state."""
    obstacle = workloads.chain_obstacle(p)
    layers = p["layers"]
    sector = zeno.chain_closed_form(obstacle, L, math.pi / (2 * L), layers, p["readout"]).amps
    survival = sum(abs(a) ** 2 for a in sector.values())
    limit = zeno.asymptotic_limit(obstacle, layers).amps
    # The full output has unit norm and the limit lies in the unabsorbed sector.
    overlap = sum(a.conjugate() * sector.get(k, 0j) for k, a in limit.items())
    return sector, survival, abs(overlap) ** 2


def check_chain(p: dict, result) -> None:
    chain, fid = result
    sector, survival, want_fid = chain_expected(p, p["L"])
    got = {k: a for k, a in chain.final.amps.items() if "absorbed" not in k}
    for k in got.keys() | sector.keys():
        near(got.get(k, 0j), sector.get(k, 0j), CHAIN_TOL, f"unabsorbed amplitude {k}")
    near(chain.survival, survival, CHAIN_TOL, "survival")
    near(fid, want_fid, PROB_TOL, "fidelity to the asymptotic limit")


# ------------------------------------------------------------------ cli


def cost_expected(R: float) -> dict:
    """Balanced-device cost profile, derived from the outcome probabilities."""
    p_d1 = R * (1.0 - R) / 2.0
    p_d2 = (1.0 + R * R) / 2.0
    p1 = R * (1.0 - R) / (1.0 + R)
    c = h2(p1) * (1.0 + R) / (R * (1.0 - R))
    return {
        "R": R,
        "P_D1": p_d1,
        "P_D2": p_d2,
        "P_DB": (1.0 - R) / 2.0,
        "p1_prime": p1,
        "p2_prime": 1.0 - p1,
        "C_q": 2.0 / (R * (1.0 - R)),
        "C": c,
        "total_qst_cost": c + 1.0,
    }


def _near_all(got: dict, want: dict, what: str) -> None:
    for key, value in want.items():
        near(float(got[key]), value, PRINT_TOL * max(1.0, abs(value)), f"{what} {key}")


def _csv(text: str) -> list[dict]:
    header, *rows = text.strip().split("\n")
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def _check_cli_output(p: dict, out: str) -> None:
    sub = p["sub"]
    if sub == "table":
        R = p["R"]
        rows = {row["inputs"]: row for row in _csv(out)}
        expect(list(rows) == ["VP|HB", "VB|HP"], "table rows")
        _near_all(rows["VP|HB"], {"P_D1": 0.0, "P_D2": 1.0, "P_DB": 0.0}, "VP|HB")
        _near_all(rows["VB|HP"], {"P_D1": R * (1 - R), "P_D2": R * R, "P_DB": 1 - R}, "VB|HP")
    elif sub == "round":
        check_round_record(p, json.loads(out), PRINT_TOL)
    elif sub == "scqkd":
        check_scqkd_record(p, json.loads(out), PRINT_TOL)
    elif sub == "star":
        record = json.loads(out)
        want_yield, cat = star_closed_form(p)
        near(record["yield"], want_yield, PRINT_TOL * want_yield, "yield")
        w_nu, w_mu = (abs(a) ** 2 for a in cat.values())
        r = 1.0 / math.sqrt(2.0)
        near(record["cat_fidelity"], fidelity(cat, {k: r for k in cat}), PRINT_TOL, "cat fidelity")
        near(record["entropy_any_bipartition"], weights_entropy(w_nu, w_mu), PRINT_TOL, "entropy")
    elif sub == "czqe":
        record = json.loads(out)
        _, survival, fid = chain_expected(p, p["L"])
        _near_all(record, {"survival": survival, "fidelity_asymptote": fid, "L": p["L"]}, "czqe")
    elif sub == "czqe_sweep":
        rows = _csv(out)
        expect([int(row["L"]) for row in rows] == p["L_values"], "sweep grid")
        for row, L in zip(rows, p["L_values"]):
            _, survival, fid = chain_expected({**p, "layers": 1}, L)
            _near_all(row, {"survival": survival, "fidelity": fid}, f"L={L}")
    elif sub == "qst":
        records = json.loads(out)
        expect([r["branch"] for r in records] == ["V", "H"], "qst branches")
        expect([r["bit"] for r in records] == [1, 0], "qst bits")
        for record in records:
            near(record["fidelity"], 1.0, PRINT_TOL, "qst fidelity")
    elif sub == "cost":
        _near_all(json.loads(out), cost_expected(p["R"]), "cost")
    elif sub == "cost_sweep":
        rows = _csv(out)
        count = int(round((p["stop"] - p["start"]) / p["step"])) + 1
        grid = [p["start"] + i * p["step"] for i in range(count)]
        grid = [R for R in grid if R <= p["stop"] + 1e-12]
        expect(len(rows) == len(grid), "sweep length")
        for row, R in zip(rows, grid):
            want = cost_expected(R)
            del want["p2_prime"], want["total_qst_cost"]
            _near_all(row, want, f"R={R}")
    elif sub == "cost_min":
        record = json.loads(out)
        r_star = math.sqrt(2.0) - 1.0
        near(record["R_quantum"], 0.5, ARGMIN_TOL, "R_quantum")
        near(record["R_classical"], r_star, ARGMIN_TOL, "R_classical")
        c_min = cost_expected(r_star)["C"]
        _near_all(record, {"C_q_min": 8.0, "C_min": c_min, "total_qst_cost_min": c_min + 1.0}, "cost-min")
    elif sub == "mc":
        record = json.loads(out)
        report = costs.monte_carlo(p["R"], p["runs"], p["seed"])
        counts = record["counts"]
        expect((counts["D1"], counts["D2"], counts["DB"]) == report.counts, "mc counts")
        expect(sum(report.counts) == p["runs"], "mc run total")
        announced = counts["D1"] + counts["D2"]
        p1 = counts["D1"] / announced
        near(record["empirical_C"], h2(p1) / p1, PRINT_TOL, "empirical_C")
        slope = (math.log2((1.0 - p1) / p1) * p1 - h2(p1)) / p1**2  # d/dp [h(p)/p]
        std_error = abs(slope) * math.sqrt(p1 * (1.0 - p1) / announced)
        near(record["std_error"], std_error, PRINT_TOL, "std_error")
    else:
        raise Mismatch(f"unknown subcommand {sub!r}")


def check_cli(p: dict, result) -> None:
    code, out, err = result
    if p["sub"] == "invalid":
        expect(code == 1, f"exit code {code}, want 1")
        expect(out == "" and err.startswith("error: "), "diagnostic")
        return
    expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
    _check_cli_output(p, out)


CHECKS = {
    "round_record": check_round_record,
    "run_round_split": check_run_round_split,
    "scqkd_record": check_scqkd_record,
    "transfer_a2b": check_transfer_a2b,
    "transfer_b2a": check_transfer_b2a,
    "transfer_nocorr": lambda p, f: near(f, no_correction_fidelity(p), PROB_TOL, "fidelity"),
    "star": check_star,
    "chain": check_chain,
    "cli": check_cli,
}


def check(op, result) -> str | None:
    """None when ``result`` matches the op's oracle, else the reason."""
    try:
        CHECKS[op.kind](op.params, result)
    except Mismatch as exc:
        return str(exc)
    except Exception as exc:  # a malformed result is a wrong result
        return f"{type(exc).__name__}: {exc}"
    return None
