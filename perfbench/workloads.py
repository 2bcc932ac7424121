"""Seeded job lists for the three workloads.

A job is one config and the CLI calls a user makes on it, in order.  Jobs
are laid out in rounds; each round visits every stratum (constructor route,
network size, model family) once, so a run cut short by the clock still
sees every stratum in its usual share.  Coefficients are scaled so the
verdict sits well away from the boundary (``HOLD`` and ``FAIL`` ranges),
and the expected verdict is taken from the oracle, never from the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# Nearer to one, the path constructors on holding sum networks slow down
# by orders of magnitude (single n = 5 networks took 37 s at 0.66), which no
# 30-second run can average out.
HOLD = (0.35, 0.5)
FAIL = (1.25, 2.0)


@dataclass(frozen=True)
class Job:
    name: str
    doc: dict
    commands: tuple
    expect: str | None
    stratum: str


def _num(x: float) -> str:
    return f"{x:.6g}"


def _strongly_connected(rng, n: int, extra: float) -> np.ndarray:
    """Adjacency (row i reads column j) with a Hamiltonian cycle plus extras."""
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for k in range(n):
        adj[order[k], order[(k + 1) % n]] = True
    adj |= rng.random((n, n)) < extra
    np.fill_diagonal(adj, False)
    return adj


def _target(rng, fail: bool) -> float:
    lo, hi = FAIL if fail else HOLD
    return float(rng.uniform(lo, hi))


def _net(gains, mu, ext=None, **extra) -> dict:
    n = len(gains)
    doc = {"n": n, "gains": gains, "external_gains": ext or ["0"] * n, "mu": mu}
    doc.update(extra)
    return doc


def _leaf(kind: str, c: float) -> str:
    if kind == "lin":
        return f"{_num(c)}*s"
    if kind == "sat":
        return f"{_num(c)}*s/(1+s)"
    return f"{_num(c)}*atan(s)"


def concave_sum_net(rng, adj, fail, kinds, mu="sum", both=False,
                    row_sum_below=None, **extra) -> dict:
    """Sum (or max) rows of linear/saturating/arctangent gains at a target
    spectral radius (cycle mean for max rows) of the slope matrix at 0.

    ``both`` puts the first two kinds on the first and last edge, so a mixed
    network always holds both gain classes.  With ``row_sum_below``, slopes
    and kinds are drawn again until the linear gains of every row sum below
    it."""
    n = adj.shape[0]
    measure = oracle.max_cycle_mean if mu == "max" else oracle.spectral_radius
    target = _target(rng, fail)
    while True:
        W = np.where(adj, rng.uniform(0.2, 1.0, (n, n)), 0.0)
        W *= target / measure(W)
        K = rng.choice(kinds, size=(n, n))
        if both:
            edges = np.argwhere(adj)
            K[tuple(edges[0])], K[tuple(edges[-1])] = kinds[0], kinds[1]
        linear = np.where(K == "lin", W, 0.0)
        if row_sum_below is None or linear.sum(axis=1).max() < row_sum_below:
            break
    gains = [[_leaf(K[i, j], W[i, j]) if adj[i, j] else "0" for j in range(n)]
             for i in range(n)]
    return _net(gains, [mu] * n, **extra)


def power_max_net(rng, adj, fail, ext=False, coef_below=None) -> dict:
    """Max rows of power-conjugate gains c_ij*s^(q_i/q_j), q_i in {1, 2}.

    With ``coef_below``, the slopes are drawn again until every ``c_ij`` is
    below it."""
    n = adj.shape[0]
    q = rng.choice([1.0, 2.0], size=n)
    target = _target(rng, fail)
    while True:
        A = np.where(adj, rng.uniform(0.2, 1.0, (n, n)), 0.0)
        A *= target / oracle.max_cycle_mean(A)
        if coef_below is None or (A ** q[:, None]).max() < coef_below:
            break
    gains = []
    for i in range(n):
        row = []
        for j in range(n):
            if not adj[i, j]:
                row.append("0")
                continue
            c, e = A[i, j] ** q[i], q[i] / q[j]
            row.append({1.0: f"{_num(c)}*s", 2.0: f"{_num(c)}*s^2",
                        0.5: f"{_num(c)}*sqrt(s)"}[e])
        gains.append(row)
    ext_gains = ["1*s" if ext and rng.random() < 0.5 else "0" for _ in range(n)]
    return _net(gains, ["max"] * n, ext_gains)


def _reducible_adj(rng, n: int, upper: int | None = None) -> np.ndarray:
    """Two strongly connected blocks, the lower one fed by the upper one,
    which has ``upper`` nodes (drawn when None)."""
    k = int(rng.integers(1, n)) if upper is None else upper
    up = np.arange(k)
    down = np.arange(k, n)
    adj = np.zeros((n, n), dtype=bool)
    for block in (up, down):
        if len(block) > 1:
            adj[np.ix_(block, block)] = _strongly_connected(rng, len(block), 0.3)
    adj[down[0], up[-1]] = True
    adj[np.ix_(down, up)] |= rng.random((len(down), len(up))) < 0.3
    return adj


# ---------------------------------------------------------------------------
# certify-mix


# The linear gains of holding irreducible and reducible networks, and of
# all mixed ones, sum below this in every row, and the coefficients of
# holding max networks stay below it.  The program's upward chaining along
# the ones direction stalls when Gamma(1) reaches one in some row: on a
# holding network it ends in PathStalled (see DEFECT_CASES), and in certify
# on a failing mixed network it ran from 2 s to past the 10-s call limit.
ROW_SUM_BELOW = 0.9


def _route_net(route: str, rng, n: int, fail: bool) -> dict:
    if route == "max":
        return power_max_net(rng, _strongly_connected(rng, n, 0.3), fail, ext=True,
                             coef_below=None if fail else ROW_SUM_BELOW)
    if route == "three_sum":
        return concave_sum_net(rng, ~np.eye(3, dtype=bool), fail, ["lin"])
    if route == "mixed":
        return concave_sum_net(rng, _strongly_connected(rng, n, 0.3), fail,
                               ["lin", "sat"], both=True, row_sum_below=ROW_SUM_BELOW)
    if route == "bounded":
        return concave_sum_net(rng, _strongly_connected(rng, n, 0.3), fail,
                               ["sat", "atan"])
    if route in ("irreducible", "homogeneous"):
        adj = _strongly_connected(rng, n, 0.3)
        if n == 3 and adj.sum() == 6:
            # a complete three-node sum network takes the three-sum route
            adj[0, 2] = False
        if route == "homogeneous":
            return concave_sum_net(rng, adj, fail, ["lin"], homogeneous=True)
        return concave_sum_net(rng, adj, fail, ["lin"],
                               row_sum_below=None if fail else ROW_SUM_BELOW)
    if route == "reducible":
        if fail:
            # one node feeding one failing block: with a holding block of
            # large row sums beside it, certify ran for 6 s before giving up
            return concave_sum_net(rng, _reducible_adj(rng, n, upper=1), fail, ["lin"])
        return concave_sum_net(rng, _reducible_adj(rng, n), fail, ["lin"],
                               row_sum_below=ROW_SUM_BELOW)
    raise ValueError(route)


CERTIFY_ROUTES = ("max", "three_sum", "mixed", "bounded", "irreducible",
                  "homogeneous", "reducible")

# hand-written verdicts for configs outside the oracle's exact families
HAND = {
    "bounded_pair": oracle.HOLDS,
    "linear_two_block": oracle.HOLDS,
    "max_pair": oracle.HOLDS,
    "max_pair_bad": oracle.FAILS,
    "neural_pair": oracle.HOLDS,
    "three_sum": oracle.HOLDS,
    # open item 3 of the roadmap: fails for s above about 1e10
    "roadmap3_reproducer": oracle.FAILS,
    # cycle gain 0.4*sqrt(0.5*0.3)*s < s: holds
    "sqrt_cycle_sum": oracle.HOLDS,
}

HAND_CASES = {
    "roadmap3_reproducer": _net(
        [["0", "max(0.5*s, 1e-10*s^2)"], ["max(0.5*s, 1e-10*s^2)", "0"]],
        ["max", "max"]),
    "sqrt_cycle_sum": _net(
        [["0", "0.4*sqrt(s)", "0"], ["0", "0", "0.5*s"], ["0.3*s^2", "0", "0"]],
        ["sum", "sum", "sum"]),
}

# Reproducers of the program's known defects, run once per certify-mix run
# after the timed loop and reported with it, but not timed and not part of
# the result line's operation counts (the timed workloads avoid them).
DEFECT_CASES = {
    **HAND_CASES,
    # holds (cycle mean 0.46 in t_i = s_i^(1/q_i)); chaining up along the
    # ones direction stalls once 0.5*s^2 dominates
    "max_mixed_exponents": _net([["0", "0.5*s^2"], ["0.3*sqrt(s)", "0"]],
                                ["max", "max"]),
    # holds (cycle mean 0.23), with one slope above one
    "max_large_slope": _net([["0", "0", "0.14*s"], ["0.07*s", "0", "0"],
                             ["0", "1.2*s", "0"]], ["max"] * 3),
    # hold (spectral radius 0.41 and 0.47), with a row summing to 1.12 and 1.44
    "irreducible_row_sum": _net(
        [["0", "0.14*s", "0"], ["0.38*s", "0", "0.16*s"],
         ["0.58*s", "0.54*s", "0"]], ["sum"] * 3),
    "reducible_row_sum": _net(
        [["0", "0.45*s", "0", "0", "0"], ["0.46*s", "0", "0", "0", "0"],
         ["0", "0.35*s", "0", "0.4*s", "0.69*s"], ["0", "0", "0", "0", "0.22*s"],
         ["0.56*s", "0", "0.25*s", "0", "0"]], ["sum"] * 5),
}

# Outcome of each defect reproducer on the current program.  They count as
# wrong verdicts or undecided calls every time they run; the pin only keeps
# them from marking a run incorrect.  Any other wrong answer is not covered.
KNOWN_DEFECTS = {
    # open item 3 of the roadmap: certified although it fails above 1e10
    ("roadmap3_reproducer", "check"): "wrong",
    ("roadmap3_reproducer", "certify"): "wrong",
    ("sqrt_cycle_sum", "check"): "undecided",
    ("sqrt_cycle_sum", "certify"): "undecided",
    ("max_mixed_exponents", "certify"): "undecided",
    ("max_large_slope", "certify"): "undecided",
    ("irreducible_row_sum", "certify"): "undecided",
    ("reducible_row_sum", "certify"): "undecided",
}


def defect_probe() -> list:
    """One job per defect reproducer, with the calls its pins name."""
    return [Job(name, doc, tuple(cmd for (case, cmd) in KNOWN_DEFECTS if case == name),
                HAND.get(name) or oracle.verdict(doc), "defect")
            for name, doc in DEFECT_CASES.items()]


def _mixed_exponents(doc: dict) -> bool:
    return any("^" in g or "sqrt" in g for row in doc["gains"] for g in row)


def demo_configs(root: Path) -> dict:
    demo_dir = root / "demos" / "configs"
    out = {p.stem: json.loads(p.read_text()) for p in sorted(demo_dir.glob("*.json"))}
    if not out:
        raise FileNotFoundError(f"no demo configs under {demo_dir}")
    return out


def certify_mix(seed: int, root: Path, rounds: int = 40) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = [Job(name, doc, ("check", "certify"), HAND[name], "known")
            for name, doc in demo_configs(root).items()]
    for k in range(rounds):
        fail = k % 4 == 3
        for r, route in enumerate(CERTIFY_ROUTES):
            n = 3 if route == "three_sum" else 2 + (k + r) % 5
            if route == "reducible":
                n = max(n, 3)
            doc = _route_net(route, rng, n, fail)
            commands = ("check", "certify")
            if route == "max" and not fail and _mixed_exponents(doc):
                # certify stalls on these (max_mixed_exponents in DEFECT_CASES)
                commands = ("check",)
            jobs.append(Job(f"{route}-{k}", doc, commands, oracle.verdict(doc), route))
    return jobs


# ---------------------------------------------------------------------------
# scale-n


def count_cycles(adj: np.ndarray) -> int:
    """Number of simple cycles, by DFS from each node over smaller nodes."""
    n = adj.shape[0]
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    total = 0
    for start in range(n):
        stack = [(start, iter(succ[start]))]
        on_path = {start}
        while stack:
            node, it = stack[-1]
            for w in it:
                if w == start:
                    total += 1
                elif w < start and w not in on_path:
                    on_path.add(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                on_path.discard(node)
    return total


# simple-cycle bands per (row kind, failing): the falsifier walks every
# cycle of a holding network; on a failing max network it stops at the first
# witness, while a failing sum network is only refuted after the walks
SCALE_CYCLES = {("max", False): (18, 26), ("max", True): (40, 400),
                ("sum", False): (18, 26), ("sum", True): (18, 26)}


def _banded_adj(rng, n: int, band) -> tuple:
    lo, hi = band
    extra = 0.05
    while True:
        adj = _strongly_connected(rng, n, extra)
        c = count_cycles(adj)
        if lo <= c <= hi:
            return adj, c
        extra = extra * 0.9 if c > hi else min(extra * 1.1 + 0.005, 0.6)


def scale_n(seed: int, root: Path, rounds: int = 60) -> list:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for k in range(rounds):
        # two failing networks in every five
        fail = k % 5 in (1, 3)
        for kind in ("max", "sum"):
            n = 8 + (k + (kind == "sum")) % 5
            adj, cycles = _banded_adj(rng, n, SCALE_CYCLES[kind, fail])
            if kind == "max":
                doc = power_max_net(rng, adj, fail)
            else:
                doc = concave_sum_net(rng, adj, fail, ["lin"])
            jobs.append(Job(f"{kind}{n}-{k}-c{cycles}", doc, ("check",),
                            oracle.verdict(doc), f"{kind}-{'fail' if fail else 'hold'}"))
    return jobs


# ---------------------------------------------------------------------------
# verify-models

# RK4 step of the generated and demo model runs; the horizon stays as given
MODEL_DT = 0.05


def linear_model(rng, dims, driven: bool) -> dict:
    dims = np.asarray(dims)
    blocks = len(dims)
    A, B, Q = [], [], []
    for d in dims:
        if d == 1:
            A.append([[-float(rng.uniform(1.0, 2.0))]])
        else:
            a, w = rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5)
            A.append([[-a, w], [-w, -a]])
        B.append(np.ones((d, 1)).tolist())
        Q.append((2.0 * np.eye(d)).tolist())
    coupling = []
    for i in range(blocks):
        for j in range(blocks):
            if i != j and (j == (i + 1) % blocks or rng.random() < 0.3):
                m = rng.uniform(-1.0, 1.0, (dims[i], dims[j]))
                coupling.append({"i": i, "j": j, "matrix": m.tolist()})
    model = {"family": "linear", "A": A, "coupling": coupling, "B": B, "Q": Q,
             "epsilon": 0.5}
    scale = _target(rng, False) / oracle.spectral_radius(oracle.linear_design(model))
    for entry in coupling:
        entry["matrix"] = (np.array(entry["matrix"]) * scale).tolist()
    x0 = rng.uniform(-2.0, 2.0, int(dims.sum()))
    return _model_doc(model, x0, [float(rng.uniform(0.5, 1.5))] if driven else None)


def cg_model(rng, neurons: int, driven: bool) -> dict:
    adj = _strongly_connected(rng, neurons, 0.4)
    T = np.where(adj, rng.uniform(-1.0, 1.0, (neurons, neurons)), 0.0)
    model = {"family": "cohen_grossberg", "alpha_lo": [1.0] * neurons,
             "alpha_hi": [1.2] * neurons, "b_slope": [1.5] * neurons,
             "t_matrix": T.tolist(), "act_scale": [2.0] * neurons,
             "epsilon": 0.5, "rho_slope": 1.0, "bt": 1.0}
    T *= _target(rng, False) / oracle.spectral_radius(oracle.cg_design(model))
    model["t_matrix"] = T.tolist()
    x0 = rng.uniform(-2.0, 2.0, neurons)
    # the design's budget map is bounded, at 1e-5 for some populations: only
    # a tiny input lies safely inside the certified input range (near the
    # bound, the decrease check's rejection sampling runs for tens of seconds)
    drive = rng.uniform(1e-7, 5e-7, neurons).tolist() if driven else None
    return _model_doc(model, x0, drive)


def _model_doc(model: dict, x0, drive) -> dict:
    sim = {"x0": [float(v) for v in x0], "T": 20.0, "dt": MODEL_DT}
    if drive is not None:
        sim["input"] = {"kind": "step", "value": drive}
    return {"model": model, "simulation": sim}


def verify_models(seed: int, root: Path, rounds: int = 20) -> list:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for name, doc in demo_configs(root).items():
        if "model" in doc:
            doc = json.loads(json.dumps(doc))
            doc["simulation"]["dt"] = MODEL_DT
            jobs.append(Job(name, doc, ("simulate", "verify"), HAND[name], "known"))
    for k in range(rounds):
        size = 2 + k % 3
        # block sizes follow the round, so every seed has the same state sizes
        dims = [1 + (k + b) % 2 for b in range(size)]
        # two linear banks to one neural population: the populations verify
        # several times faster, and an even split would put the median job
        # in the gap between the two families
        for family, make, arg, driven in (("linear", linear_model, dims, False),
                                          ("linear", linear_model, dims, True),
                                          ("cg", cg_model, size, k % 2 == 1)):
            doc = make(rng, arg, driven)
            tag = f"{family}-{'driven' if driven else 'free'}"
            jobs.append(Job(f"{tag}{size}-{k}", doc, ("simulate", "verify"),
                            oracle.verdict(doc), tag))
    return jobs


WORKLOADS = {
    "certify-mix": certify_mix,
    "scale-n": scale_n,
    "verify-models": verify_models,
}
