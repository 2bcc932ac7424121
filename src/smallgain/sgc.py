"""Small gain condition checks.

Three certification routes and one honest falsifier:

* cycle criterion for max-type aggregation,
* spectral radius for networks whose operator is (conjugate to) a linear map,
* nonlinear eigenvalue for homogeneous irreducible operators,
* grid search for a witness s with Gamma_mu(s) >= s, which can only ever
  certify failure; absence of a witness stays Inconclusive.

:func:`decide` runs the routes that apply and combines them into one verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    NoConvergence,
    NotHomogeneous,
    NotIrreducible,
    NotLinearizable,
    WrongAggregation,
)
from .gains import (
    Compose,
    DiagOp,
    GainExpr,
    GainNetwork,
    Linear,
    MaxAgg,
    OuterSum,
    PlusId,
    Power,
    SumAgg,
    eval_operator,
)
from .graph import (
    CYCLE_ENUM_LIMIT,
    adjacency,
    is_irreducible,
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


@dataclass(frozen=True)
class GridSpec:
    """Search grid for falsification: log radii times sphere directions."""

    radii: int = 40
    rmin: float = 1e-6
    rmax: float = 1e6
    directions: int | None = None  # default 2n+200
    seed: int = 0


def _cycle_edge_gains(net: GainNetwork, cycle) -> list[GainExpr]:
    k = len(cycle)
    return [net.gamma[cycle[m]][cycle[(m + 1) % k]] for m in range(k)]


def _compose_cycle(gains, r):
    v = np.asarray(r, dtype=float)
    for g in reversed(gains):
        v = g(v)
    return v


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
        if np.any(vals >= grid):
            return SgcVerdict(
                status=CERTIFIED_FAILS, method="cycle-grid", cycle=c,
                witness=_cycle_witness(net, c),
                margins={"worst_radius": float(grid[np.argmax(vals - grid)])},
            )
        min_margin = min(min_margin, float(np.min((grid - vals) / grid)))
    return SgcVerdict(
        status=CERTIFIED_HOLDS, method="cycle",
        margins={"min_margin": float(min_margin), "cycles": len(cycles)},
    )


# start radii (major) and per-step inflations (minor) of the cycle walks
WITNESS_RADII = np.geomspace(1e-4, 1e4, 9)
WITNESS_DELTAS = (0.0, 1e-9, 1e-6, 1e-3, 0.03)
WALKS_PER_CYCLE = WITNESS_RADII.size * len(WITNESS_DELTAS)


def _cycle_witness(net: GainNetwork, cycle, op=None, walk_net=None):
    """Vector supported on a bad cycle with Gamma_mu(s) >= s, if one verifies.

    The one-cycle case of :func:`_cycle_witnesses`.
    """
    hit = _cycle_witnesses(net, [cycle], op, walk_net, WALKS_PER_CYCLE)
    return None if hit is None else hit[0]


def _cycle_witnesses(net, cycles, op, walk_net, batch_rows):
    """First cycle walk with Gamma_mu(s) >= s, as ``(witness, cycle)``, or None.

    Walks each cycle of ``walk_net`` (default ``net``) making each edge
    tight via inversion; small per-step inflations absorb inversion residue
    when the composition has real slack.  The walks of consecutive cycles
    are verified together, at most ``batch_rows`` rows per call of ``op``
    (None: the operator of ``net``), and the walks of later cycles are not
    taken once a batch holds a hit.  The first hit in
    cycle order, then in (radius, inflation) order, is returned.
    """
    walk_net = net if walk_net is None else walk_net
    for cand, owner in _walk_batches(walk_net, cycles, batch_rows):
        out = eval_operator(net, cand) if op is None else op(cand)
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
    return bool(np.any(s > 0) and np.all(eval_operator(net, s) >= s))


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


# radii per operator call in the falsifier sweep: all 40 at once would hold
# 40 * (2n + 200) rows and their operator slots in memory; the cycle stage
# verifies as many rows per call
FALSIFY_CHUNK = 8


def falsify_sgc(net: GainNetwork, grid: GridSpec | None = None) -> SgcVerdict:
    """Search for s != 0 with Gamma_mu(s) >= s componentwise.

    A found witness certifies failure.  Nothing found is Inconclusive: a
    finite grid cannot certify the universal statement.
    """
    grid = grid or GridSpec()
    return _falsify(net, None, grid, None, method="falsify")


def _falsify(net, op, grid, edge_transform, method):
    n = net.n
    radii = np.geomspace(grid.rmin, grid.rmax, grid.radii)
    count = grid.directions if grid.directions is not None else 2 * n + 200
    dirs = _directions(n, count, grid.seed)

    apply = (lambda s: eval_operator(net, s)) if op is None else op
    best_deficit = np.inf

    # radius-major sweep, FALSIFY_CHUNK radii times all directions per call
    for k in range(0, radii.size, FALSIFY_CHUNK):
        rs = radii[k:k + FALSIFY_CHUNK]
        batch = (rs[:, None, None] * dirs).reshape(-1, n)
        out = apply(batch)
        deficit = np.max(batch - out, axis=1)
        hit = np.flatnonzero((deficit <= 0.0) & np.any(batch > 0, axis=1))
        if hit.size:
            return SgcVerdict(
                status=CERTIFIED_FAILS, method=method, witness=batch[hit[0]],
                margins={"radius": float(rs[hit[0] // len(dirs)])},
            )
        best_deficit = min(best_deficit, float(deficit.min()))

    # structured candidates: tight cycle walks, then a Perron direction
    if n <= CYCLE_ENUM_LIMIT:
        cnet = net if edge_transform is None else _transform_net(net, edge_transform)
        hit = _cycle_witnesses(net, subordinated_cycles(adjacency(net)), op, cnet,
                               FALSIFY_CHUNK * len(dirs))
        if hit is not None:
            return SgcVerdict(
                status=CERTIFIED_FAILS, method=method + "-cycle",
                witness=hit[0], cycle=hit[1],
            )
    if op is None and linearizes(net):
        rho, _p, ray = linear_perron(net)
        for scale in (1e-3, 1.0, 1e3):
            w = scale * ray
            if _is_witness(net, w):
                return SgcVerdict(
                    status=CERTIFIED_FAILS, method=method + "-perron",
                    witness=w, rho=rho,
                )
    return SgcVerdict(
        status=INCONCLUSIVE, method=method,
        margins={"best_deficit": best_deficit},
    )


def _transform_net(net, edge_transform):
    gamma = tuple(
        tuple(g if g.is_zero else edge_transform(g) for g in row)
        for row in net.gamma
    )
    return GainNetwork(n=net.n, gamma=gamma, gamma_u=net.gamma_u, mu=net.mu)


def check_strong_sgc(
    net: GainNetwork, d: DiagOp, side: str = "left", grid: GridSpec | None = None
) -> SgcVerdict:
    """Falsify the diagonally strengthened condition.

    side="left" searches D(Gamma_mu(s)) >= s, side="right" searches
    Gamma_mu(D(s)) >= s.  Semantics as in :func:`falsify_sgc`.
    """
    grid = grid or GridSpec()
    if side == "left":
        op = lambda s: d(eval_operator(net, s))
        tr = lambda g: Compose(PlusId(d.alpha), g)
    elif side == "right":
        op = lambda s: eval_operator(net, d(np.asarray(s, dtype=float)))
        tr = lambda g: Compose(g, PlusId(d.alpha))
    else:
        raise ValueError("side must be 'left' or 'right'")
    return _falsify(net, op, grid, tr, method=f"strong-{side}")


def _linearize(net: GainNetwork):
    """Slope matrix G and exponent p with Gamma_mu(s) = (G s^(1/p))^p.

    p=1 is the plain linear case (sum rows, linear gains).  p>1 covers sum
    rows wrapped in a pure power, with every gain a matching root power; the
    coordinate change t = s^(1/p) then makes the operator exactly linear.
    """
    exps = []
    for m in net.mu:
        if isinstance(m, SumAgg):
            exps.append(1.0)
        elif (
            isinstance(m, OuterSum)
            and isinstance(m.rho, Power)
            and m.rho.coeff == 1.0
        ):
            exps.append(float(m.rho.exponent))
        else:
            raise NotLinearizable("row aggregation is not sum or power-of-sum")
    if len(set(exps)) != 1:
        raise NotLinearizable("rows use different outer powers")
    p = exps[0]
    G = np.zeros((net.n, net.n))
    for i, row in enumerate(net.gamma):
        for j, g in enumerate(row):
            if g.is_zero:
                continue
            if p == 1.0 and isinstance(g, Linear):
                G[i, j] = g.slope
            elif isinstance(g, Power) and abs(g.exponent - 1.0 / p) <= 1e-12:
                G[i, j] = g.coeff
            else:
                raise NotLinearizable("gain does not match the row exponent")
    return G, p


# power iteration on a slope matrix: step tolerance (max norm) and step cap
POWER_TOL = 1e-14
POWER_MAX_ITER = 200000


def _power_rho(G: np.ndarray):
    """Spectral radius of a nonnegative matrix by blockwise power iteration.

    On a reducible matrix the plain iteration crawls (defective dominant
    eigenvalue), so the radius is taken as the max over irreducible diagonal
    blocks, where the +I shift makes convergence geometric.  The returned
    vector is the winning block's Perron direction embedded in zeros; rows
    outside the block only gain from it, so it still witnesses expansion.
    """
    n = G.shape[0]
    best = 0.0
    bestvec = np.ones(n)
    for b in scc_decompose(G != 0):
        idx = np.array(b)
        B = G[np.ix_(idx, idx)]
        if len(b) == 1:
            rho_b, v_b = float(B[0, 0]), np.ones(1)
        else:
            M = B + np.eye(len(b))
            v = np.ones(len(b))
            for _ in range(POWER_MAX_ITER):
                w = M @ v
                m = float(np.max(w))
                w = w / m
                if float(np.max(np.abs(w - v))) < POWER_TOL:
                    break
                v = w
            else:
                raise NoConvergence("power iteration did not settle")
            rho_b, v_b = m - 1.0, w
        if rho_b > best:
            best = rho_b
            bestvec = np.zeros(n)
            bestvec[idx] = v_b
    return best, bestvec


def linearizes(net: GainNetwork) -> bool:
    """Whether the operator is linear after a power substitution."""
    try:
        _linearize(net)
    except NotLinearizable:
        return False
    return True


def linear_perron(net: GainNetwork):
    """Perron root and ray of an operator linear after a power substitution.

    Returns ``(rho, p, ray)``: the spectral radius of the slope matrix ``G``,
    the exponent ``p`` and ``ray = v**p`` for the Perron vector ``v`` of
    ``G`` (max entry one).  Along the ray ``Gamma_mu(r ray) = rho**p r ray``.
    Raises :class:`NotLinearizable` for any other operator.
    """
    G, p = _linearize(net)
    rho, v = _power_rho(G)
    return rho, p, np.power(v, p)


# the spectral route certifies the condition at rho < 1 - SPECTRAL_TOL
SPECTRAL_TOL = 1e-9


def check_linear_spectral(net: GainNetwork) -> SgcVerdict:
    """Spectral radius route for operators linear after a power substitution.

    Certifies the condition when rho(G) < 1 - SPECTRAL_TOL; at rho >= 1
    tries the Perron direction as an explicit witness.
    """
    rho, _p, w = linear_perron(net)
    if rho < 1.0 - SPECTRAL_TOL:
        return SgcVerdict(status=CERTIFIED_HOLDS, method="spectral", rho=rho)
    if _is_witness(net, w):
        return SgcVerdict(
            status=CERTIFIED_FAILS, method="spectral", rho=rho, witness=w
        )
    return SgcVerdict(status=INCONCLUSIVE, method="spectral", rho=rho)


# the eigenpair iteration: step tolerance (max norm), step cap, and the seed
# of the 16 random points of the doubling test
PERRON_TOL = 1e-10
PERRON_MAX_ITER = 100000
PERRON_SEED = 0


def nonlinear_perron(net: GainNetwork):
    """Nonlinear eigenpair of a homogeneous irreducible operator.

    Damped normalized iteration s <- (Gamma_mu(s) + s) / max-norm; the raw
    normalized iteration can settle into a two-cycle, the damping cannot.
    Returns (lam, eigvec, residual) with the max-norm residual of
    Gamma_mu(v) = lam v at the fixed direction.
    """
    rng = np.random.default_rng(PERRON_SEED)
    s = rng.uniform(0.1, 10.0, size=(16, net.n))
    a = eval_operator(net, 2.0 * s)
    b = 2.0 * eval_operator(net, s)
    if np.any(np.max(np.abs(a - b), axis=1) > 1e-9 * (np.max(np.abs(a), axis=1) + 1e-12)):
        raise NotHomogeneous("operator fails the doubling test")
    if not is_irreducible(adjacency(net)):
        raise NotIrreducible("eigenpair iteration needs a strongly connected graph")
    v = np.ones(net.n)
    for _ in range(PERRON_MAX_ITER):
        w = eval_operator(net, v) + v
        m = float(np.max(w))
        w = w / m
        if float(np.max(np.abs(w - v))) < PERRON_TOL:
            v = w
            break
        v = w
    else:
        raise NoConvergence("eigen iteration hit the cap")
    gv = eval_operator(net, v)
    lam = float(np.max(gv))
    residual = float(np.max(np.abs(gv - lam * v)))
    return lam, v, residual


def decide(net: GainNetwork, *, seed: int = 0) -> SgcVerdict:
    """Small-gain verdict from the routes that apply, run in order.

    The routes are the spectral radius, the cycle criterion, the nonlinear
    Perron eigenvalue and the falsifier (seeded with ``seed``).  The run
    stops at the first proof: a spectral verdict either way (at
    ``rho < 1 - 1e-9`` no ``s != 0`` has ``Gamma_mu(s) >= s``, and a failure
    carries a re-checked witness) or a failing cycle route.  A sampled cycle
    hold or a Perron verdict is not a proof, so the falsifier still runs
    after it.  Any failing route makes the verdict CertifiedFails, else any
    holding route CertifiedHolds, else it is Inconclusive.  Returned is the
    verdict of the first route with that status (the deciding route, named
    by ``method``), with the verdict of every route run in ``routes``.
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
        lam, _vec, residual = nonlinear_perron(net)
        routes.append(SgcVerdict(
            status=CERTIFIED_HOLDS if lam < 1.0 - 1e-9 else CERTIFIED_FAILS,
            method="perron", rho=lam, margins={"residual": residual},
        ))
    except (NotHomogeneous, NotIrreducible, NoConvergence):
        pass
    routes.append(falsify_sgc(net, GridSpec(seed=seed)))
    return _combine(routes)


def _combine(routes: list[SgcVerdict]) -> SgcVerdict:
    statuses = [v.status for v in routes]
    for status in (CERTIFIED_FAILS, CERTIFIED_HOLDS, INCONCLUSIVE):
        if status in statuses:
            return replace(routes[statuses.index(status)], routes=tuple(routes))
