"""Small gain condition checks.

Three certification routes and one honest falsifier, in the order
:func:`decide` runs them:

* Perron bound for networks homogeneous after a per-node power change
  (:func:`power_form`), linear ones included: a Collatz-Wielandt bound
  ``T(w) <= c w``, ``c < 1``, of the conjugate operator ``T`` is a proof,
* cycle criterion for max-type aggregation, read from closed walks
  ``Gamma^k(r e_i)`` on a grid of radii (no cycle is listed, so any number of
  nodes), for the max networks the Perron bound leaves open,
* slope majorant for gains with a slope at zero on sum, max, outer-sum and
  block-max-sum rows (:attr:`GainNetwork.majorant`): the same bound on the
  linear ``L >= Gamma_mu`` is a proof, and the linearization at zero gives
  candidate witnesses,
* grid search for a witness s with Gamma_mu(s) >= s, then the closed walks'
  witnesses up to ``CYCLE_ENUM_LIMIT`` nodes (unless the cycle route's walks
  ran without a return), then the Perron direction, which can only ever
  certify failure; absence of a witness stays Inconclusive.

:func:`decide` runs the routes that apply and combines them into one verdict.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import CompatibilityError
from .gains import GainNetwork, MaxAgg, eval_operator
from .graph import CYCLE_ENUM_LIMIT, scc_decompose

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


# radii r of the closed walks from r e_i, 1e-8 to 1e8
WALK_RADII = np.geomspace(1e-8, 1e8, 97)


def _closed_walks(net: GainNetwork):
    """``n`` operator steps from ``r e_i``, every node ``i`` and every ``r``
    in :data:`WALK_RADII`, one call per step: ``(hit, witness, returns)``.

    ``hit = (k, i, r)`` is the first walk that returns, ``Gamma^k(r e_i)_i
    >= r``, in (step, node, radius) order, or None.  The largest state
    ``x`` of a returning walk before its return has ``Gamma(x) >= x`` on
    any monotone operator, which lifts each state to the next; ``witness``
    is the first such ``x`` that re-checks, and the walk stops there.
    ``returns[i, m]``, complete when no walk returns, is the largest
    ``Gamma^k(r e_i)_i``, ``k <= n``, at ``r = WALK_RADII[m]``; a NaN state
    neither returns nor counts in it.
    """
    n, size = net.n, WALK_RADII.size
    node, r = np.repeat(np.arange(n), size), np.tile(WALK_RADII, n)
    rows = np.arange(n * size)
    # column-major, so each gain reads its column contiguously
    state = np.zeros((n * size, n), order="F")
    state[rows, node] = r
    # the largest state so far, and the largest return so far, per walk
    top, returns = state, np.zeros(n * size)
    hit = witness = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            state = eval_operator(net, state)
            back = state[rows, node]
            returns = np.fmax(returns, back)
            ret = np.flatnonzero(back >= r)
            if ret.size:
                if hit is None:
                    hit = (k, int(node[ret[0]]), float(r[ret[0]]))
                # as _is_witness: an overflowed candidate proves nothing
                cand = top[ret]
                ok = np.flatnonzero(np.all(np.isfinite(cand), axis=1)
                                    & np.all(eval_operator(net, cand) >= cand, axis=1))
                if ok.size:
                    witness = cand[ok[0]]
                    break
            top = np.maximum(top, state)
    return hit, witness, returns.reshape(n, size)


def _returning_walk(net: GainNetwork, k: int, i: int, r: float) -> tuple[int, ...]:
    """The closed walk behind ``Gamma^k(r e_i)_i`` on max rows, traced back
    through the column whose gain gives each row its value, in
    row-to-column order from its largest node."""
    states = [np.zeros(net.n)]
    states[0][i] = r
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k - 1):
            states.append(eval_operator(net, states[-1]))
        walk = [i]
        for x in reversed(states[1:]):
            row, cols = net.gamma[walk[-1]], net.active_sets[walk[-1]]
            vals = [row[j]._eval(x[j:j + 1])[0] for j in cols]
            walk.append(cols[int(np.argmax(vals))])
    return _from_largest(walk)


def _from_largest(walk: list[int]) -> tuple[int, ...]:
    """A closed walk rotated to start at its largest node."""
    top = walk.index(max(walk))
    return tuple(walk[top:] + walk[:top])


def check_cycle_condition(net: GainNetwork) -> SgcVerdict:
    """Cycle criterion for pure max aggregation, by closed walks.

    On max rows ``Gamma^k(r e_i)_i`` is the largest gain composition over
    the closed walks of ``k`` steps through ``i``, read at ``r``, and every
    simple cycle is such a walk with ``k <= n``.  So no return among the
    walks of :func:`_closed_walks` is the cycle criterion on the grid
    :data:`WALK_RADII`, on any graph.  A failure names the first returning
    walk (:func:`_returning_walk`) and carries the walks' re-checked
    witness, if any; a hold reports the least ``(r - returns) / r``.
    """
    if not all(isinstance(m, MaxAgg) for m in net.mu):
        raise CompatibilityError("cycle criterion needs max aggregation in every row")
    hit, witness, returns = _closed_walks(net)
    if hit is not None:
        return SgcVerdict(status=CERTIFIED_FAILS, method="cycle",
                          cycle=_returning_walk(net, *hit), witness=witness,
                          margins={"radius": hit[2]})
    return SgcVerdict(status=CERTIFIED_HOLDS, method="cycle", margins={
        "min_margin": float(np.min((WALK_RADII - returns) / WALK_RADII))})


def _is_witness(net, s):
    # an overflowed candidate compares inf >= inf and proves nothing
    return bool(np.all(np.isfinite(s)) and np.any(s > 0)
                and np.all(eval_operator(net, s) >= s))


def embed_verdict(net: GainNetwork, block: tuple[int, ...],
                  verdict: SgcVerdict) -> SgcVerdict:
    """The failing ``verdict`` of the diagonal block ``block`` of ``net``,
    read on ``net``.

    The witness takes zeros outside the block.  Each block row then reads
    the block's own operator, and every other row is at least zero, so it
    witnesses expansion of ``net`` as well; it is re-checked on ``net`` and
    dropped if it does not re-check.  The cycle is renumbered into network
    indices.
    """
    witness = cycle = None
    if verdict.witness is not None:
        witness = np.zeros(net.n)
        witness[list(block)] = verdict.witness
        if not _is_witness(net, witness):
            witness = None
    if verdict.cycle is not None:
        cycle = _from_largest([block[k] for k in verdict.cycle])
    return replace(verdict, witness=witness, cycle=cycle)


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
# 40 * (2n + 200) rows and their operator slots in memory
FALSIFY_CHUNK = 8


def falsify_sgc(net: GainNetwork, seed: int = 0, *,
                _walks: bool = True) -> SgcVerdict:
    """Search for s != 0 with Gamma_mu(s) >= s componentwise.

    The grid is fixed by the ``FALSIFY_*`` constants; ``seed`` draws its
    directions.  A found witness certifies failure.  Nothing found is
    Inconclusive: a finite grid cannot certify the universal statement.
    ``_walks=False`` skips the closed walks, for a network whose walks have
    run without a return and so hold no witness.
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

    # structured candidates: closed walks, then a Perron direction.  The
    # walks run up to CYCLE_ENUM_LIMIT nodes only: on sum rows each step
    # fills every row's slots, about 97 n^4 slot operations per walk
    if _walks and n <= CYCLE_ENUM_LIMIT:
        witness = _closed_walks(net)[1]
        if witness is not None:
            return SgcVerdict(status=CERTIFIED_FAILS, method="falsify-walk",
                              witness=witness)
    with suppress(CompatibilityError):
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
    """Perron root and ray of an operator linear after a power substitution,
    as ``np.linalg.eig`` estimates them: candidate witnesses, never a proof.

    Returns ``(rho, p, ray)``: the largest real eigenvalue ``rho`` of an
    irreducible diagonal block of the slope matrix ``G`` (a Perron root is
    simple there), the per-node exponents ``p`` and ``ray = v**p`` for that
    block's eigenvector ``v`` (max entry one) embedded in zeros, so
    ``Gamma_mu((r v)^p) = (rho r v)^p``: rows outside the block only gain
    from it, so it still witnesses expansion.  Raises
    :class:`CompatibilityError` for any other operator.
    """
    p, G = power_form(net)
    if G is None:
        raise CompatibilityError("the conjugate operator is not a sum of linear gains")
    rho, v = 0.0, np.ones(net.n)
    for block in scc_decompose(G != 0):
        idx = np.array(block)
        vals, vecs = np.linalg.eig(G[np.ix_(idx, idx)])
        k = int(np.argmax(vals.real))
        if vals[k].real > rho:
            rho, v = float(vals[k].real), np.zeros(net.n)
            v[idx] = np.abs(vecs[:, k].real) / np.max(np.abs(vecs[:, k].real))
    return rho, p, np.power(v, p)


# the Perron and majorant routes prove the condition at a bound below 1 - SPECTRAL_TOL
SPECTRAL_TOL = 1e-9


def bound_verdict(net: GainNetwork, method: str, bound: float,
                  witnesses) -> SgcVerdict:
    """Proof at ``bound < 1 - SPECTRAL_TOL``, else failure at the first of
    ``witnesses`` (an iterable, read only past the proof) that re-checks."""
    if bound < 1.0 - SPECTRAL_TOL:
        return SgcVerdict(status=CERTIFIED_HOLDS, method=method, rho=bound)
    for witness in witnesses:
        if _is_witness(net, witness):
            return SgcVerdict(status=CERTIFIED_FAILS, method=method, rho=bound,
                              witness=witness)
    return SgcVerdict(status=INCONCLUSIVE, method=method, rho=bound)


def check_linear_spectral(net: GainNetwork) -> SgcVerdict:
    """Spectral radius of an operator linear after a power substitution.

    ``rho`` is :func:`linear_perron`'s eigenvalue, an estimate; the status is
    the Perron route's, with the eigenvector's ray as the first candidate
    witness.  Not one of :func:`decide`'s routes.
    """
    rho, _p, ray = linear_perron(net)
    c, p, w, image = nonlinear_perron(net)
    verdict = bound_verdict(net, "spectral", c, [ray, *perron_witnesses(p, w, image)])
    return replace(verdict, rho=rho)


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

    Returns ``(T, fixed_point)``.  ``fixed_point`` is None unless ``T`` has
    max rows and is max-of-linear (``r_i = 1`` on every sum row); then
    ``fixed_point(t)`` is :func:`_policy_iteration` on the same arrays,
    from the columns that give each max row its value at ``t``.
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

    fixed_point = None
    if mx.size and np.all(R == 1.0):
        def fixed_point(t):
            return _policy_iteration(A, mx, K[:, None] * B, sm, t)

    if not sm.size or not mx.size:
        return (sum_rows if sm.size else max_rows), fixed_point

    def T(t):
        out = np.empty(t.size)
        out[mx], out[sm] = max_rows(t), sum_rows(t)
        return out

    return T, fixed_point


def _policy_iteration(A: np.ndarray, mx: np.ndarray, L: np.ndarray, sm: np.ndarray,
                      t: np.ndarray):
    """``w = 1 + T(w)`` for the max-of-linear ``T`` with max rows ``mx``,
    ``max_j A_ij t_j``, and sum rows ``sm``, ``L t``; None when not found.

    Each round picks one column per max row, solves ``(I - M) w = 1`` for
    the picked linear ``M <= T``, and moves a pick only to a column strictly
    larger at that ``w``, from the largest columns at ``t``.  Below a cone
    spectral radius of one, ``w`` rises each round and the picks settle at
    ``w = 1 + T(w)`` (Cochet-Terrasson, Cohen, Gaubert, McGettrick and
    Quadrat, IFAC 1998).  A singular solve, one that is not positive
    (``w = 1 + M w > 0`` proves ``rho(M) < 1``, so a failing network ends
    here) and ``POLICY_MAX_ITER`` rounds give None.
    """
    n, picked = t.size, np.arange(mx.size)
    base = np.eye(n)
    base[sm] -= L
    pick = (A * t).argmax(axis=1)
    for _ in range(POLICY_MAX_ITER):
        D = base.copy()
        D[mx, pick] -= A[picked, pick]
        try:
            w = np.linalg.solve(D, np.ones(n))
        except np.linalg.LinAlgError:
            return None
        if not (w.min() > 0.0 and w.max() < np.inf):
            return None
        aw = A * w
        best = aw.argmax(axis=1)
        up = aw[picked, best] > aw[picked, pick]
        if not up.any():
            return w
        pick = np.where(up, best, pick)
    return None


# w <- 1 + T(w) stops after a step below FIXED_TOL relative, past
# FIXED_CEILING (then the fixed point has c > 1 - 1e-12) or at FIXED_MAX_ITER;
# a linear T takes at most INVERSE_MAX_ITER inverse-iteration steps, and a
# max-of-linear T turns to at most POLICY_MAX_ITER policy rounds at loop step
# POLICY_STEP: a failing network mostly stops before it (T(w) >= w), for less
# than the solve that would refute it
FIXED_TOL = 1e-12
FIXED_CEILING = 1e12
FIXED_MAX_ITER = 20000
INVERSE_MAX_ITER = 50
POLICY_STEP = 2
POLICY_MAX_ITER = 50


def nonlinear_perron(net: GainNetwork):
    """Collatz-Wielandt bound of the conjugate of a power-homogeneous operator.

    Returns ``(c, p, w, image)``: ``p`` from :func:`power_form`, a positive
    ``w``, ``c = max_i T(w)_i / w_i``, a bound on the cone spectral radius of
    the monotone, degree-one ``T(t) = Gamma_mu(t^p)^(1/p)`` at any ``w``, and
    ``image = Gamma_mu(w^p)``, from which ``c`` is read.  A linear
    ``T = G t`` takes ``w = (I - G)^-1 1``, then steps ``w <- (I - G)^-1 w``
    until ``c < 1 - 1e-9`` (each lowers ``c`` towards ``rho(G)``, however
    badly ``G`` is scaled); any other ``T`` iterates ``w <- 1 + T(w)`` from
    ``w = 1`` on its array form (:func:`_conjugate_form`).  Both stop early
    once ``T(w) >= w``, which no ``w > 0`` meets below a radius of one
    (``w^p`` is then a candidate witness).  A max-of-linear ``T`` that has
    not stopped by step ``POLICY_STEP`` takes the fixed point from
    :func:`_policy_iteration` instead; where that gives none (a failing
    network) the loop goes on from the same step, so it returns what the
    loop alone returns.  Either way ``c`` is read with one operator
    evaluation at the returned ``w``, so it bounds the operator's own
    conjugate; the witness search reads the same ``image``
    (:func:`_expanded_direction`).
    """
    p, G, rows, C = net.power_form
    if G is not None:
        with suppress(np.linalg.LinAlgError):
            M, w = np.linalg.inv(np.eye(net.n) - G), np.ones(net.n)
            for _ in range(INVERSE_MAX_ITER):
                w = M @ w
                w = w / w.max()
                gw = G @ w
                if (not np.all(w > 0) or (gw >= w).all()
                        or np.max(gw / w) < 1.0 - SPECTRAL_TOL):
                    break
            if np.all(w > 0):
                return _perron_bound(net, p, w)
    T, fixed_point = _conjugate_form(p, rows, C)
    w = np.ones(net.n)
    tw = T(w)
    for k in range(FIXED_MAX_ITER):
        step = 1.0 + tw
        if ((tw >= w).all() or not w.max() < FIXED_CEILING
                or (step - w <= FIXED_TOL * step).all()):
            break
        if k == POLICY_STEP and fixed_point is not None:
            fixed = fixed_point(step)
            if fixed is not None:
                return _perron_bound(net, p, fixed)
        w, tw = step, T(step)
    return _perron_bound(net, p, w)


def _perron_bound(net: GainNetwork, p: np.ndarray, w: np.ndarray):
    """:func:`nonlinear_perron`'s ``(c, p, w, image)`` at ``w``, with
    ``c = max T(w) / w`` read from ``image = Gamma_mu(w^p)``."""
    image = eval_operator(net, np.power(w, p))
    return float(np.max(image ** (1.0 / p) / w)), p, w, image


def slope_majorant(net: GainNetwork) -> GainNetwork:
    """:attr:`GainNetwork.majorant`, or :class:`CompatibilityError` when there
    is none."""
    if net.majorant is None:
        raise CompatibilityError("an outer-sum wrapper or a gain has no slope "
                                 "at zero")
    return net.majorant


# radii t of the slope majorant's candidate witnesses t v, 1 down to 1e-8
MAJORANT_RADII = 10.0 ** -np.arange(9.0)


def _expanded_direction(p: np.ndarray, w: np.ndarray, image: np.ndarray):
    """The ``w`` that :func:`nonlinear_perron` stopped at, zero on the rows
    where ``T(w) < w`` (a source row, say) and scaled to sup norm one; None
    when no row expands.  ``T(w)_i >= w_i`` is read as ``image_i >=
    (w^p)_i`` on the ``image = Gamma_mu(w^p)`` that came with ``w``."""
    v = np.where(image >= np.power(w, p), w, 0.0)
    return v / v.max() if v.any() else None


def perron_witnesses(p: np.ndarray, w: np.ndarray, image: np.ndarray):
    """The Perron route's candidate witness ``v^p``, for the
    :func:`_expanded_direction` ``v`` of :func:`nonlinear_perron`'s
    ``(p, w, image)``.  The scaling keeps each expanded row expanded, as
    ``T`` is homogeneous, but the zeros lower the other rows' inflow, so a
    caller re-checks it.  Generated lazily: nothing is computed unless a
    caller reads past a proof."""
    v = _expanded_direction(p, w, image)
    if v is not None:
        yield np.power(v, p)


def majorant_witnesses(majorant: GainNetwork, w: np.ndarray, image: np.ndarray):
    """Candidate witnesses ``t v``, ``t`` in :data:`MAJORANT_RADII`.

    ``v`` is the Perron direction of the majorant ``L``: its block Perron
    vector (:func:`linear_perron`) on sum rows, else the
    :func:`_expanded_direction` of the ``w`` and ``image = L(w)`` that
    :func:`nonlinear_perron` returned (``L`` is linear, so its ``p`` is
    one).  ``Gamma_mu(t v) = t L(v) + o(t)``, so ``t v`` is a witness
    for small ``t`` when ``L(v) > v`` off the zeros; not so on a
    block-max-sum row, where ``L`` only bounds the row, so the candidates
    are re-checked.  Generated lazily:
    nothing is computed unless a caller reads past a proof.
    """
    try:
        v = linear_perron(majorant)[2]
    except CompatibilityError:
        v = _expanded_direction(np.ones(majorant.n), w, image)
        if v is None:
            return
    for t in MAJORANT_RADII:
        yield t * v


def check_majorant(net: GainNetwork) -> SgcVerdict:
    """Slope-majorant route for gains with a slope at zero on sum, max,
    outer-sum (wrapper with a slope) and block-max-sum rows.

    ``L = net.majorant``, linear with sum and max rows, has ``Gamma_mu <=
    L`` on the orthant.  A Collatz-Wielandt bound ``L(w) <= c w`` at a
    positive ``w`` (from :func:`nonlinear_perron` on ``L``) with ``c < 1 -
    SPECTRAL_TOL`` proves the condition: ``Gamma_mu(s) >= s`` would give
    ``L(s) >= s``, which no ``s != 0`` meets.  Otherwise the candidates of
    :func:`majorant_witnesses` are re-checked against the operator itself.
    Raises :class:`CompatibilityError` when the network has no majorant.
    """
    majorant = slope_majorant(net)
    c, _p, w, image = nonlinear_perron(majorant)
    return bound_verdict(net, "majorant", c, majorant_witnesses(majorant, w, image))


def _check_perron(net: GainNetwork) -> SgcVerdict:
    """Perron-bound route: the :func:`nonlinear_perron` bound, proved below
    one, else failing at a re-checked :func:`perron_witnesses` candidate."""
    c, p, w, image = nonlinear_perron(net)
    return bound_verdict(net, "perron", c, perron_witnesses(p, w, image))


def decide(net: GainNetwork, *, seed: int = 0) -> SgcVerdict:
    """Small-gain verdict from the routes that apply, run in order.

    The routes are the Perron bound, the cycle criterion, the slope
    majorant and the falsifier (seeded with ``seed``).  A route that does
    not serve the network raises :class:`CompatibilityError` and is
    skipped.  The run stops at the first proof: a Perron or majorant
    verdict either way (at a Collatz-Wielandt bound ``c < 1 - 1e-9`` no
    ``s != 0`` has ``Gamma_mu(s) >= s``, and a failure carries a re-checked
    witness) or a failing cycle route.  The proofs come first, so the
    sampled cycle route runs only on a max network that the Perron route
    leaves open: one that is not power-homogeneous, or whose bound is not
    below one and gives no witness.  A sampled cycle hold is not a proof, so
    the next route still runs after it, and the falsifier skips the walks
    that held.  Any failing route makes the verdict CertifiedFails, else any
    holding route CertifiedHolds, else it is Inconclusive.  Returned is the
    verdict of the first route with that status (the deciding route, named
    by ``method``), with the verdict of every route run in ``routes``.
    """
    routes = []
    # built per call: the names are read now, so a patched route runs
    for check in (_check_perron, check_cycle_condition, check_majorant):
        try:
            verdict = check(net)
        except CompatibilityError:
            continue
        routes.append(verdict)
        if verdict.fails or (verdict.holds and verdict.method != "cycle"):
            return _combine(routes)
    # a cycle route that ran held: none of its walks returns with a witness
    walks = not any(v.method == "cycle" for v in routes)
    routes.append(falsify_sgc(net, seed, _walks=walks))
    return _combine(routes)


def _combine(routes: list[SgcVerdict]) -> SgcVerdict:
    statuses = [v.status for v in routes]
    for status in (CERTIFIED_FAILS, CERTIFIED_HOLDS, INCONCLUSIVE):
        if status in statuses:
            return replace(routes[statuses.index(status)], routes=tuple(routes))
