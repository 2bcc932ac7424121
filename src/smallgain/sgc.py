"""Small gain condition checks.

Three certification routes and one honest falsifier, in the order
:func:`decide` runs them:

* Perron bound for networks homogeneous after a per-node power change
  (:attr:`GainNetwork.power_form`), linear ones included: a
  Collatz-Wielandt bound ``T(w) <= c w``, ``c < 1``, of the conjugate
  operator ``T`` is a proof.  One method finds ``w``: Newton steps on
  ``w = 1 + T(w)``, each one linear solve with the Jacobian ``J`` of
  ``T``, then inverse steps; where they stop without a proof, ``w`` and
  the block Perron vector of ``J(w)`` are the candidate witnesses,
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

:func:`decide` runs the routes that apply and combines them into one verdict;
:func:`route_line` is the report line of one route's verdict.  The Perron
and majorant verdicts carry the point their bound was read at, from which
the path constructors build their rays.
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
    # (p, w) of a Perron or majorant bound: rho = max_i T(w)_i / w_i at the
    # positive w, for the conjugate T of the exponents p
    point: tuple[np.ndarray, np.ndarray] | None = None
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
    walk (:func:`_returning_walk`) and its re-checked witness, without
    which it is Inconclusive; a hold reports the least ``(r - returns) / r``.
    """
    if not all(isinstance(m, MaxAgg) for m in net.mu):
        raise CompatibilityError("cycle criterion needs max aggregation in every row")
    hit, witness, returns = _closed_walks(net)
    if hit is None:
        return SgcVerdict(status=CERTIFIED_HOLDS, method="cycle", margins={
            "min_margin": float(np.min((WALK_RADII - returns) / WALK_RADII))})
    return SgcVerdict(status=CERTIFIED_FAILS if witness is not None else INCONCLUSIVE,
                      method="cycle", cycle=_returning_walk(net, *hit), witness=witness,
                      margins={"radius": hit[2]})


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


def linear_perron(net: GainNetwork):
    """Perron root and ray of an operator linear after a power substitution,
    as ``np.linalg.eig`` estimates them: candidate witnesses, never a proof.

    Returns ``(rho, p, ray)``: :func:`_block_perron` of the slope matrix
    ``G``, the per-node exponents ``p`` and ``ray = v**p`` for its vector
    ``v``, so ``Gamma_mu((r v)^p) = (rho r v)^p`` on ``v``'s block: rows
    outside it only gain from it, so it still witnesses expansion.  Raises
    :class:`CompatibilityError` for any other operator.
    """
    p, G = net.power_form[:2]
    if G is None:
        raise CompatibilityError("the conjugate operator is not a sum of linear gains")
    rho, v = _block_perron(G)
    return rho, p, np.power(v, p)


def _block_perron(M: np.ndarray):
    """``(rho, v)`` of a nonnegative matrix ``M``, as ``np.linalg.eig`` reads
    them: the largest real eigenvalue ``rho`` of an irreducible diagonal
    block (a Perron root is simple there), and that block's eigenvector
    ``v`` (max entry one) embedded in zeros; ``(0, 1)`` when no block has a
    positive one."""
    rho, v = 0.0, np.ones(len(M))
    for block in scc_decompose(M != 0):
        idx = np.array(block)
        vals, vecs = np.linalg.eig(M[np.ix_(idx, idx)])
        k = int(np.argmax(vals.real))
        if vals[k].real > rho:
            rho, v = float(vals[k].real), np.zeros(len(M))
            v[idx] = np.abs(vecs[:, k].real) / np.max(np.abs(vecs[:, k].real))
    return rho, v


# the Perron and majorant routes prove the condition at a bound below 1 - SPECTRAL_TOL
SPECTRAL_TOL = 1e-9


def bound_verdict(net: GainNetwork, method: str, bound: float, point,
                  witnesses) -> SgcVerdict:
    """Proof at ``bound < 1 - SPECTRAL_TOL``, read at ``point = (p, w)``,
    else failure at the first of ``witnesses`` (an iterable, read only past
    the proof) that re-checks."""
    if bound < 1.0 - SPECTRAL_TOL:
        return SgcVerdict(status=CERTIFIED_HOLDS, method=method, rho=bound, point=point)
    for witness in witnesses:
        if _is_witness(net, witness):
            return SgcVerdict(status=CERTIFIED_FAILS, method=method, rho=bound,
                              witness=witness, point=point)
    return SgcVerdict(status=INCONCLUSIVE, method=method, rho=bound, point=point)


def check_linear_spectral(net: GainNetwork) -> SgcVerdict:
    """Spectral radius of an operator linear after a power substitution.

    ``rho`` is :func:`linear_perron`'s eigenvalue, an estimate; the status is
    the Perron route's, with the eigenvector's ray as the first candidate
    witness.  Not one of :func:`decide`'s routes.
    """
    rho, _p, ray = linear_perron(net)
    c, p, w, image = nonlinear_perron(net)
    verdict = bound_verdict(net, "spectral", c, (p, w),
                            [ray, *perron_witnesses(net, p, w, image)])
    return replace(verdict, rho=rho)


def _conjugate(net: GainNetwork, p: np.ndarray, t) -> np.ndarray:
    """``T(t) = Gamma_mu(t^p)^(1/p)``, homogeneous for the ``p`` of
    :attr:`GainNetwork.power_form`."""
    return eval_operator(net, np.power(t, p)) ** (1.0 / p)


def _conjugate_form(net: GainNetwork):
    """:func:`_conjugate` and its Jacobian as array arithmetic on the power
    laws of :attr:`GainNetwork.power_form`, at one positive ``t``.

    Row ``i`` is ``k_i A_i(...)^e_i`` over gains ``c_ij s^q_ij`` with
    ``e_i q_ij p_j = p_i``.  At ``s = t^p`` each gain reads ``c_ij
    t_j^(p_j q_ij) = c_ij t_j^r_i``, ``r_i = p_i / e_i``, so ``T_i(t) =
    (k_i A_i(c_ij t_j^r_i)^e_i)^(1/p_i)`` is

    * on max rows (``k_i = e_i = 1``, ``r_i = p_i``), ``max_j a_ij t_j``
      with ``a_ij = c_ij^(1/r_i)``;
    * on sum and power-of-sum rows, ``K_i S_i^(1/r_i)`` with ``S_i =
      sum_j c_ij t_j^r_i`` and ``K_i = k_i^(1/p_i)``.

    Returns ``(T, J)``, ``J(t)`` the Jacobian of ``T`` at ``t``: on a max
    row the coefficient ``a_ij`` of the column that gives the row its
    value, on the other rows ``K_i S_i^(1/r_i - 1) c_ij t_j^(r_i - 1)``,
    which is one matrix at every ``t`` where all ``r_i = 1`` (the matrix
    ``G`` of a linear ``T``).  ``T`` is homogeneous of degree one, so
    ``J(t) t = T(t)`` (Euler's identity).
    """
    p, G, rows, C = net.power_form
    if G is not None:
        return (lambda t: G @ t), (lambda t: G)
    k, e, summed = (np.array(col) for col in zip(*rows))
    r = p / e
    n, mx, sm = p.size, np.flatnonzero(~summed), np.flatnonzero(summed)
    A, picked = C[mx] ** (1.0 / r[mx, None]), np.arange(mx.size)
    B, R, K = C[sm], r[sm, None], k[sm] ** (1.0 / p[sm])
    # the rows r_i = 1 as one matrix, whose rows are their Jacobian at any t
    curved = not np.all(R == 1.0)
    linear = np.zeros((n, n))
    if not curved:
        linear[sm] = K[:, None] * B

    def T(t):
        out = linear @ t
        out[mx] = (A * t).max(axis=1)
        if curved:
            out[sm] = K * (B * t ** R).sum(axis=1) ** (1.0 / R[:, 0])
        return out

    def J(t):
        out = linear.copy()
        pick = (A * t).argmax(axis=1)
        out[mx, pick] = A[picked, pick]
        if curved:
            bt = B * t ** (R - 1.0)
            # a row without gains has S = 0 and a zero Jacobian row
            S = np.where(B.any(axis=1), (bt * t).sum(axis=1), 1.0)
            out[sm] = (K * S ** (1.0 / R[:, 0] - 1.0))[:, None] * bt
        return out

    return T, J


# Newton steps, and then inverse steps, each stop after PERRON_STEPS solves
PERRON_STEPS = 50


def _positive_solve(D: np.ndarray, b: np.ndarray):
    """``D^-1 b`` when ``D`` is regular and that is positive and finite,
    else None."""
    try:
        x = np.linalg.solve(D, b)
    except np.linalg.LinAlgError:
        return None
    return x if x.min() > 0.0 and x.max() < np.inf else None


def nonlinear_perron(net: GainNetwork):
    """Collatz-Wielandt bound of the conjugate of a power-homogeneous operator.

    Returns ``(c, p, w, image)``: ``p`` from :attr:`GainNetwork.power_form`,
    a positive ``w``, ``c = max_i T(w)_i / w_i``, a bound on the cone
    spectral radius of the monotone, degree-one ``T(t) =
    Gamma_mu(t^p)^(1/p)`` at any ``w``, and ``image = Gamma_mu(w^p)``, from
    which ``c`` is read.

    One method finds ``w`` on the array form ``(T, J)`` of
    :func:`_conjugate_form`.  Newton steps on ``w = 1 + T(w)`` from ``w =
    1`` solve ``(I - J(w)) w' = 1`` (Euler's identity) until ``J`` stops
    moving (Esparza, Kiefer and Luttenberger, SIAM J. Comput. 39(6),
    2010): on max rows that is policy iteration, on a linear ``T`` one
    solve.  Inverse steps ``(c I - J(w)) w' = w``, ``c`` the bound at
    ``w`` (Noda, Numer. Math. 17, 1971), scaled to sup norm one, then
    lower ``c`` until it is below ``1 - SPECTRAL_TOL`` or stops moving,
    however badly ``T`` is scaled; they also go on where a Newton solve
    failed, which on rows with ``r_i < 1`` (there ``J(w)`` lies above
    ``T``) does not rule out a proof.  The steps stop at ``T(w) >= w``
    (tested first at ``w = 1``), which no ``w > 0`` meets below a radius
    of one, at a singular or non-positive solve and after ``PERRON_STEPS``
    solves each; :func:`perron_witnesses` then looks for a witness there.
    ``c`` is read with one operator evaluation at the returned ``w``, so
    it bounds the operator's own conjugate whether or not the steps
    converged.
    """
    p = net.power_form[0]
    T, J = _conjugate_form(net)
    w, eye = np.ones(net.n), np.eye(net.n)
    if np.all(T(w) >= w):
        return _perron_bound(net, p, w)
    jw = J(w)
    for _ in range(PERRON_STEPS):
        step = _positive_solve(eye - jw, np.ones(net.n))
        if step is None:
            break
        w, moved, jw = step, jw, J(step)
        if np.array_equal(jw, moved):
            break
    tw = T(w)
    c = np.max(tw / w)
    for _ in range(PERRON_STEPS):
        if c < 1.0 - SPECTRAL_TOL or np.all(tw >= w):
            break
        # solved as (c I - W^-1 J W) y = 1, w' = W y for W = diag(w): a
        # diagonally dominant system, however badly w is scaled
        y = _positive_solve(c * eye - jw * w / w[:, None], np.ones(net.n))
        if y is None:
            break
        step = w * y
        step = step / step.max()
        if not step.min() > 0.0:
            break
        w, jw, settled = step, J(step), c
        tw = T(w)
        c = np.max(tw / w)
        if c == settled:
            break
    return _perron_bound(net, p, w)


def _perron_bound(net: GainNetwork, p: np.ndarray, w: np.ndarray):
    """:func:`nonlinear_perron`'s ``(c, p, w, image)`` at ``w``, with
    ``c = max T(w) / w`` read from ``image = Gamma_mu(w^p)``."""
    image = eval_operator(net, np.power(w, p))
    return float(np.max(image ** (1.0 / p) / w)), p, w, image


# radii t of the slope majorant's candidate witnesses t v, 1 down to 1e-8
MAJORANT_RADII = 10.0 ** -np.arange(9.0)


def perron_witnesses(net: GainNetwork, p: np.ndarray, w: np.ndarray,
                     image: np.ndarray):
    """The Perron route's candidate witnesses ``v^p`` at the ``w`` that
    :func:`nonlinear_perron` stopped at, with ``image = Gamma_mu(w^p)``,
    for two directions ``v`` of sup norm one:

    * ``w`` zero on the rows where ``T(w) < w`` (a source row, say), read
      as ``image_i < (w^p)_i``, unless no row expands.  ``T`` is
      homogeneous, so the scaling keeps each expanded row expanded, but
      the zeros lower the other rows' inflow;
    * the block Perron vector of ``J(w)`` (:func:`_block_perron`).  A failed
      solve means ``rho(J(w)) >= 1``, and on max rows and rows with ``r_i
      >= 1`` ``J(w) t <= T(t)``, so ``J(w) v >= v`` carries over to ``T``.

    A caller re-checks them.  Generated lazily: nothing is computed unless
    a caller reads past a proof, and the Jacobian only past the first."""
    v = np.where(image >= np.power(w, p), w, 0.0)
    if v.any():
        yield np.power(v / v.max(), p)
    yield np.power(_block_perron(_conjugate_form(net)[1](w))[1], p)


def majorant_witnesses(majorant: GainNetwork, w: np.ndarray, image: np.ndarray):
    """Candidate witnesses ``t v``, ``t`` in :data:`MAJORANT_RADII`, for the
    :func:`perron_witnesses` ``v`` of the majorant ``L`` at the ``w`` and
    ``image = L(w)`` that :func:`nonlinear_perron` returned (``L`` is
    linear, so its ``p`` is one).  ``Gamma_mu(t v) = t L(v) + o(t)``, so
    ``t v`` is a witness for small ``t`` when ``L(v) > v`` off the zeros;
    not so on a block-max-sum row, where ``L`` only bounds the row, so the
    candidates are re-checked.  Generated lazily: nothing is computed
    unless a caller reads past a proof.
    """
    for v in perron_witnesses(majorant, np.ones(majorant.n), w, image):
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
    majorant = net.majorant
    if majorant is None:
        raise CompatibilityError("an outer-sum wrapper or a gain has no slope "
                                 "at zero")
    c, p, w, image = nonlinear_perron(majorant)
    return bound_verdict(net, "majorant", c, (p, w),
                         majorant_witnesses(majorant, w, image))


def _check_perron(net: GainNetwork) -> SgcVerdict:
    """Perron-bound route: the :func:`nonlinear_perron` bound, proved below
    one, else failing at a re-checked :func:`perron_witnesses` candidate."""
    c, p, w, image = nonlinear_perron(net)
    return bound_verdict(net, "perron", c, (p, w),
                         perron_witnesses(net, p, w, image))


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
    below one and gives no witness.  Only a failing cycle route is a proof,
    so the next route runs after any other, and the falsifier skips the
    walks.  Any failing route makes the verdict CertifiedFails, else any
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
    # a cycle route that ran and did not fail found no witness in its walks
    walks = not any(v.method == "cycle" for v in routes)
    routes.append(falsify_sgc(net, seed, _walks=walks))
    return _combine(routes)


def _combine(routes: list[SgcVerdict]) -> SgcVerdict:
    statuses = [v.status for v in routes]
    for status in (CERTIFIED_FAILS, CERTIFIED_HOLDS, INCONCLUSIVE):
        if status in statuses:
            return replace(routes[statuses.index(status)], routes=tuple(routes))


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{x:.6g}" for x in np.atleast_1d(v)) + ")"


def _fmt_witness(v: SgcVerdict) -> str:
    return f", witness {_fmt_vec(v.witness)}" if v.witness is not None else ""


def route_line(v: SgcVerdict) -> str:
    """The report line of one route's verdict; on :func:`decide`'s combined
    verdict, the line of the deciding route.  Subsystems are numbered from
    one."""
    route = v.method.split("-")[0]
    if route == "cycle":
        if v.holds:
            return f"cycle condition: holds (min margin {v.margins['min_margin']:.6g})"
        state = "fails" if v.fails else "returns without a witness"
        return f"cycle condition: {state} on cycle {_fmt_vec(np.add(v.cycle, 1))}{_fmt_witness(v)}"
    bound = {"perron": "Perron bound", "majorant": "slope majorant"}.get(route)
    if bound:
        return f"{bound}: {v.rho:.6g} ({v.status}){_fmt_witness(v)}"
    if v.fails:
        return f"falsification: witness {_fmt_vec(v.witness)}"
    return "falsification: no witness found"
