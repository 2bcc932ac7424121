"""Small gain condition checks.

Three certification routes and one honest falsifier:

* cycle criterion for max-type aggregation,
* spectral radius for networks whose operator is (conjugate to) a linear map,
* Perron bound for networks homogeneous after a per-node power change
  (:func:`power_form`): a Collatz-Wielandt bound ``T(w) <= c w``, ``c < 1``,
  of the conjugate operator ``T`` is a proof,
* grid search for a witness s with Gamma_mu(s) >= s, which can only ever
  certify failure; absence of a witness stays Inconclusive.

:func:`decide` runs the routes that apply and combines them into one verdict.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    NotHomogeneous,
    NotLinearizable,
    WrongAggregation,
)
from .gains import (
    GainExpr,
    GainNetwork,
    Linear,
    MaxAgg,
    eval_operator,
)
from .graph import (
    CYCLE_ENUM_LIMIT,
    adjacency,
    scc_decompose,
    subordinated_cycles,
)

CERTIFIED_HOLDS = "CertifiedHolds"
CERTIFIED_FAILS = "CertifiedFails"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SgcVerdict:
    status: str
    method: str
    witness: np.ndarray | None = None
    cycle: tuple[int, ...] | None = None
    rho: float | None = None
    margins: dict = field(default_factory=dict)
    # the verdict of each route :func:`decide` ran, in order
    routes: tuple[SgcVerdict, ...] = ()

    @property
    def holds(self) -> bool:
        return self.status == CERTIFIED_HOLDS

    @property
    def fails(self) -> bool:
        return self.status == CERTIFIED_FAILS

    @property
    def inconclusive(self) -> bool:
        return self.status == INCONCLUSIVE


def _cycle_edge_gains(net: GainNetwork, cycle) -> list[GainExpr]:
    k = len(cycle)
    return [net.gamma[cycle[m]][cycle[(m + 1) % k]] for m in range(k)]


def _compose_cycle(gains, r):
    # ``r`` is check_cycle_condition's positive float grid, so each gain
    # skips the argument check of its ``__call__``; the bits are the same
    for g in reversed(gains):
        r = g._eval(r)
    return r


def check_cycle_condition(net: GainNetwork) -> SgcVerdict:
    """Cycle criterion for pure max aggregation.

    Certifies the condition when every cyclic gain composition stays below
    the identity: exactly (slope product < 1) when a cycle is all linear,
    otherwise on a log grid over [1e-8, 1e8].
    """
    if not all(isinstance(m, MaxAgg) for m in net.mu):
        raise WrongAggregation("cycle criterion needs max aggregation in every row")
    cycles = subordinated_cycles(adjacency(net))
    grid = np.geomspace(1e-8, 1e8, 97)
    min_margin = np.inf
    for c in cycles:
        gains = _cycle_edge_gains(net, c)
        if all(isinstance(g, Linear) for g in gains):
            prod = float(np.prod([g.slope for g in gains]))
            if prod >= 1.0:
                return SgcVerdict(
                    status=CERTIFIED_FAILS, method="cycle-linear", cycle=c,
                    witness=_cycle_witness(net, c),
                    margins={"slope_product": prod},
                )
            min_margin = min(min_margin, 1.0 - prod)
            continue
        vals = _compose_cycle(gains, grid)
        if (vals >= grid).any():
            return SgcVerdict(
                status=CERTIFIED_FAILS, method="cycle-grid", cycle=c,
                witness=_cycle_witness(net, c),
                margins={"worst_radius": float(grid[np.argmax(vals - grid)])},
            )
        min_margin = min(min_margin, float(((grid - vals) / grid).min()))
    return SgcVerdict(
        status=CERTIFIED_HOLDS, method="cycle",
        margins={"min_margin": float(min_margin), "cycles": len(cycles)},
    )


# start radii (major) and per-step inflations (minor) of the cycle walks
WITNESS_RADII = np.geomspace(1e-4, 1e4, 9)
WITNESS_DELTAS = (0.0, 1e-9, 1e-6, 1e-3, 0.03)
WALKS_PER_CYCLE = WITNESS_RADII.size * len(WITNESS_DELTAS)


def _cycle_witness(net: GainNetwork, cycle):
    """Vector supported on a bad cycle with Gamma_mu(s) >= s, if one verifies.

    The one-cycle case of :func:`_cycle_witnesses`.
    """
    hit = _cycle_witnesses(net, [cycle], WALKS_PER_CYCLE)
    return None if hit is None else hit[0]


def _cycle_witnesses(net, cycles, batch_rows):
    """First cycle walk with Gamma_mu(s) >= s, as ``(witness, cycle)``, or None.

    Walks each cycle making each edge tight via inversion; small per-step
    inflations absorb inversion residue when the composition has real
    slack.  The walks of consecutive cycles are verified together, at most
    ``batch_rows`` rows per operator call, and the walks of later cycles are
    not taken once a batch holds a hit.  The first hit in cycle order, then
    in (radius, inflation) order, is returned.
    """
    for cand, owner in _walk_batches(net, cycles, batch_rows):
        out = eval_operator(net, cand)
        hit = np.flatnonzero(np.any(cand > 0, axis=1) & np.all(out >= cand, axis=1))
        if hit.size:
            return cand[hit[0]], cycles[owner[hit[0]]]
    return None


def _walk_batches(net, cycles, batch_rows):
    """The cycle walks in order, cut into row batches, with each row's cycle."""
    parts, owners, rows = [], [], 0
    for k, cycle in enumerate(cycles):
        walks = _tight_cycle_vectors(net, cycle)
        parts.append(walks)
        owners.append(np.full(len(walks), k))
        rows += len(walks)
        if rows >= batch_rows:
            cand, owner = np.concatenate(parts), np.concatenate(owners)
            while len(cand) >= batch_rows:
                yield cand[:batch_rows], owner[:batch_rows]
                cand, owner = cand[batch_rows:], owner[batch_rows:]
            parts, owners, rows = [cand], [owner], len(cand)
    if rows:
        yield np.concatenate(parts), np.concatenate(owners)


def _tight_cycle_vectors(net, cycle) -> np.ndarray:
    """Cycle walks from every (radius, inflation) start, as rows.

    A walk is dropped where an edge cannot be inverted (at or above a bounded
    gain's sup) or the preimage is not finite and positive.  Each edge
    inverts all walks in one call, which gives every walk the bits of its
    own scalar inverse.
    """
    s = np.zeros((WALKS_PER_CYCLE, net.n))
    s[:, cycle[0]] = np.repeat(WITNESS_RADII, len(WITNESS_DELTAS))
    scale = np.tile(1.0 + np.array(WITNESS_DELTAS), WITNESS_RADII.size)
    for a, b in zip(cycle, cycle[1:]):
        g = net.gamma[a][b]
        keep = s[:, a] < g.sup()
        s, scale = s[keep], scale[keep]
        if not len(s):
            break
        nxt = g.inverse(s[:, a]) * scale
        keep = np.isfinite(nxt) & (nxt > 0)
        s, scale = s[keep], scale[keep]
        s[:, b] = nxt[keep]
    return s


def _is_witness(net, s):
    # an overflowed candidate compares inf >= inf and proves nothing
    return bool(np.all(np.isfinite(s)) and np.any(s > 0)
                and np.all(eval_operator(net, s) >= s))


def _sphere_directions(n: int, count: int, rng) -> np.ndarray:
    dirs = [np.eye(n)[i] for i in range(n)] + [np.ones(n)]
    while len(dirs) < count:
        support = rng.random(n) < rng.uniform(0.3, 1.0)
        w = rng.gamma(1.0, size=n) * support
        m = w.max()
        if m > 0:
            dirs.append(w / m)
    return np.array(dirs[:count])


@lru_cache(maxsize=32)
def _directions(n: int, count: int, seed: int) -> np.ndarray:
    """The falsifier's directions for one ``(n, count, seed)``, drawn once.

    Shared by every later call with the same key, so the array is read-only.
    """
    dirs = _sphere_directions(n, count, np.random.default_rng(seed))
    dirs.flags.writeable = False
    return dirs


# falsifier grid: FALSIFY_RADII log radii over FALSIFY_RANGE times a*n + b
# seeded directions, (a, b) = FALSIFY_DIRECTIONS
FALSIFY_RADII = 40
FALSIFY_RANGE = (1e-6, 1e6)
FALSIFY_DIRECTIONS = (2, 200)
# radii per operator call in the falsifier sweep: all 40 at once would hold
# 40 * (2n + 200) rows and their operator slots in memory; the cycle stage
# verifies as many rows per call
FALSIFY_CHUNK = 8


def falsify_sgc(net: GainNetwork, seed: int = 0) -> SgcVerdict:
    """Search for s != 0 with Gamma_mu(s) >= s componentwise.

    The grid is fixed by the ``FALSIFY_*`` constants; ``seed`` draws its
    directions.  A found witness certifies failure.  Nothing found is
    Inconclusive: a finite grid cannot certify the universal statement.
    """
    n = net.n
    radii = np.geomspace(*FALSIFY_RANGE, FALSIFY_RADII)
    per_node, fixed = FALSIFY_DIRECTIONS
    dirs = _directions(n, per_node * n + fixed, seed)
    best_deficit = np.inf

    # radius-major sweep, FALSIFY_CHUNK radii times all directions per call
    for k in range(0, radii.size, FALSIFY_CHUNK):
        rs = radii[k:k + FALSIFY_CHUNK]
        batch = (rs[:, None, None] * dirs).reshape(-1, n)
        deficit = np.max(batch - eval_operator(net, batch), axis=1)
        hit = np.flatnonzero((deficit <= 0.0) & np.any(batch > 0, axis=1))
        if hit.size:
            return SgcVerdict(
                status=CERTIFIED_FAILS, method="falsify", witness=batch[hit[0]],
                margins={"radius": float(rs[hit[0] // len(dirs)])},
            )
        best_deficit = min(best_deficit, float(deficit.min()))

    # structured candidates: tight cycle walks, then a Perron direction
    if n <= CYCLE_ENUM_LIMIT:
        hit = _cycle_witnesses(net, subordinated_cycles(adjacency(net)),
                               FALSIFY_CHUNK * len(dirs))
        if hit is not None:
            return SgcVerdict(status=CERTIFIED_FAILS, method="falsify-cycle",
                              witness=hit[0], cycle=hit[1])
    with suppress(NotLinearizable):
        rho, _p, ray = linear_perron(net)
        for w in (1e-3 * ray, ray, 1e3 * ray):
            if _is_witness(net, w):
                return SgcVerdict(status=CERTIFIED_FAILS, method="falsify-perron",
                                  witness=w, rho=rho)
    return SgcVerdict(
        status=INCONCLUSIVE, method="falsify",
        margins={"best_deficit": best_deficit},
    )


def power_form(net: GainNetwork):
    """Per-node exponents ``p``, and the matrix ``G`` when the conjugate is
    linear: the first two entries of :attr:`GainNetwork.power_form`."""
    return net.power_form[:2]


def linear_perron(net: GainNetwork):
    """Perron root and ray of an operator linear after a power substitution.

    Returns ``(rho, p, ray)``: the spectral radius of the slope matrix ``G``,
    the per-node exponents ``p`` and ``ray = v**p`` for a Perron vector
    ``v`` of ``G`` (max entry one), so ``Gamma_mu((r v)^p) = (rho r v)^p``.
    ``rho`` is the largest real eigenvalue of an irreducible diagonal block
    (a Perron root is simple there) and ``v`` that block's eigenvector
    embedded in zeros: rows outside the block only gain from it, so it still
    witnesses expansion.  Raises :class:`NotLinearizable` for any other
    operator.
    """
    p, G = power_form(net)
    if G is None:
        raise NotLinearizable("the conjugate operator is not a sum of linear gains")
    rho, v = 0.0, np.ones(net.n)
    for block in scc_decompose(G != 0):
        idx = np.array(block)
        vals, vecs = np.linalg.eig(G[np.ix_(idx, idx)])
        k = int(np.argmax(vals.real))
        if vals[k].real > rho:
            rho, v = float(vals[k].real), np.zeros(net.n)
            v[idx] = np.abs(vecs[:, k].real) / np.max(np.abs(vecs[:, k].real))
    return rho, p, np.power(v, p)


# the spectral and Perron routes prove the condition at a bound below 1 - SPECTRAL_TOL
SPECTRAL_TOL = 1e-9


def bound_verdict(net: GainNetwork, method: str, bound: float,
                  witness: np.ndarray) -> SgcVerdict:
    """Proof at ``bound < 1 - SPECTRAL_TOL``, failure if ``witness`` re-checks."""
    if bound < 1.0 - SPECTRAL_TOL:
        return SgcVerdict(status=CERTIFIED_HOLDS, method=method, rho=bound)
    if _is_witness(net, witness):
        return SgcVerdict(status=CERTIFIED_FAILS, method=method, rho=bound,
                          witness=witness)
    return SgcVerdict(status=INCONCLUSIVE, method=method, rho=bound)


def check_linear_spectral(net: GainNetwork) -> SgcVerdict:
    """Spectral radius route for operators linear after a power substitution.

    Certifies the condition when rho(G) < 1 - SPECTRAL_TOL; at rho >= 1
    tries the Perron direction as an explicit witness.
    """
    rho, _p, w = linear_perron(net)
    return bound_verdict(net, "spectral", rho, w)


def _conjugate(net: GainNetwork, p: np.ndarray, t) -> np.ndarray:
    """``T(t) = Gamma_mu(t^p)^(1/p)``, homogeneous for :func:`power_form`'s ``p``."""
    return eval_operator(net, np.power(t, p)) ** (1.0 / p)


def _conjugate_form(p: np.ndarray, rows, C: np.ndarray):
    """:func:`_conjugate` as array arithmetic on the power laws, for one ``t``.

    Row ``i`` is ``k_i A_i(...)^e_i`` over gains ``c_ij s^q_ij`` with
    ``e_i q_ij p_j = p_i`` (:func:`power_form`).  At ``s = t^p`` each gain
    reads ``c_ij t_j^(p_j q_ij) = c_ij t_j^r_i``, ``r_i = p_i / e_i``, so
    ``T_i(t) = (k_i A_i(c_ij t_j^r_i)^e_i)^(1/p_i)`` is

    * on sum and power-of-sum rows, ``k_i^(1/p_i) (sum_j c_ij t_j^r_i)^(1/r_i)``;
    * on max rows (``k_i = e_i = 1``, ``r_i = p_i``), ``max_j c_ij^(1/r_i) t_j``.
    """
    k, e, summed = (np.array(col) for col in zip(*rows))
    r = p / e
    mx, sm = np.flatnonzero(~summed), np.flatnonzero(summed)
    A = C[mx] ** (1.0 / r[mx, None])
    B, R, K = C[sm], r[sm, None], k[sm] ** (1.0 / p[sm])

    def max_rows(t):
        return (A * t).max(axis=1)

    def sum_rows(t):
        return K * (B * t ** R).sum(axis=1) ** (1.0 / R[:, 0])

    if not sm.size or not mx.size:
        return sum_rows if sm.size else max_rows

    def T(t):
        out = np.empty(t.size)
        out[mx], out[sm] = max_rows(t), sum_rows(t)
        return out

    return T


# w <- 1 + T(w) stops after a step below FIXED_TOL relative, past
# FIXED_CEILING (then the fixed point has c > 1 - 1e-12) or at FIXED_MAX_ITER;
# a linear T takes at most INVERSE_MAX_ITER inverse-iteration steps
FIXED_TOL = 1e-12
FIXED_CEILING = 1e12
FIXED_MAX_ITER = 20000
INVERSE_MAX_ITER = 50


def nonlinear_perron(net: GainNetwork):
    """Collatz-Wielandt bound of the conjugate of a power-homogeneous operator.

    Returns ``(c, p, w)``: ``p`` from :func:`power_form`, a positive ``w``
    and ``c = max_i T(w)_i / w_i``, a bound on the cone spectral radius of
    the monotone, degree-one ``T(t) = Gamma_mu(t^p)^(1/p)`` at any ``w``.
    A linear ``T = G t`` takes ``w = (I - G)^-1 1``, then steps
    ``w <- (I - G)^-1 w`` until ``c < 1 - 1e-9`` (each lowers ``c`` towards
    ``rho(G)``, however badly ``G`` is scaled).  Any other ``T`` iterates
    ``w <- 1 + T(w)`` from ``w = 1`` on its array form
    (:func:`_conjugate_form`), stopping early once ``T(w) >= w`` (``w^p`` is
    then a candidate witness).  Either way ``c`` is read with one operator
    evaluation at the returned ``w``, so it bounds the operator's own
    conjugate.
    """
    p, G, rows, C = net.power_form
    if G is not None:
        with suppress(np.linalg.LinAlgError):
            M, w = np.linalg.inv(np.eye(net.n) - G), np.ones(net.n)
            for _ in range(INVERSE_MAX_ITER):
                w = M @ w
                w = w / w.max()
                if not np.all(w > 0) or np.max(G @ w / w) < 1.0 - SPECTRAL_TOL:
                    break
            if np.all(w > 0):
                return float(np.max(_conjugate(net, p, w) / w)), p, w
    T = _conjugate_form(p, rows, C)
    w = np.ones(net.n)
    tw = T(w)
    for _ in range(FIXED_MAX_ITER):
        step = 1.0 + tw
        if ((tw >= w).all() or not w.max() < FIXED_CEILING
                or (step - w <= FIXED_TOL * step).all()):
            break
        w, tw = step, T(step)
    return float(np.max(_conjugate(net, p, w) / w)), p, w


def decide(net: GainNetwork, *, seed: int = 0) -> SgcVerdict:
    """Small-gain verdict from the routes that apply, run in order.

    The routes are the spectral radius, the cycle criterion, the Perron
    bound and the falsifier (seeded with ``seed``).  The run stops at the
    first proof: a spectral or Perron verdict either way (at
    ``rho < 1 - 1e-9``, or a Collatz-Wielandt bound ``c < 1 - 1e-9``, no
    ``s != 0`` has ``Gamma_mu(s) >= s``, and a failure carries a re-checked
    witness) or a failing cycle route.  A sampled cycle hold is not a proof,
    so the next route still runs after it.  Any failing route makes the
    verdict CertifiedFails, else any holding route CertifiedHolds, else it
    is Inconclusive.  Returned is the verdict of the first route with that
    status (the deciding route, named by ``method``), with the verdict of
    every route run in ``routes``.
    """
    routes = []
    try:
        routes.append(check_linear_spectral(net))
        if not routes[-1].inconclusive:
            return _combine(routes)
    except NotLinearizable:
        pass
    try:
        routes.append(check_cycle_condition(net))
        if routes[-1].fails:
            return _combine(routes)
    except WrongAggregation:
        pass
    try:
        c, p, w = nonlinear_perron(net)
        routes.append(bound_verdict(net, "perron", c, np.power(w, p)))
        if not routes[-1].inconclusive:
            return _combine(routes)
    except NotHomogeneous:
        pass
    routes.append(falsify_sgc(net, seed))
    return _combine(routes)


def _combine(routes: list[SgcVerdict]) -> SgcVerdict:
    statuses = [v.status for v in routes]
    for status in (CERTIFIED_FAILS, CERTIFIED_HOLDS, INCONCLUSIVE):
        if status in statuses:
            return replace(routes[statuses.index(status)], routes=tuple(routes))
