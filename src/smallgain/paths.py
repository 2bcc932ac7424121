"""Construction and validation of strictly increasing decay paths.

A decay path ("Omega-path") for a monotone gain operator is a vector of
class K-infinity functions sigma with ``Gamma_mu(sigma(r)) < sigma(r)`` for
every positive radius.  Paths are represented piecewise linearly on anchor
radii and extended linearly beyond the last anchor.  Constructors cover the
power-homogeneous (a ray ``(r w)^p`` proved by a Collatz-Wielandt bound),
max-aggregation (the closure ``max_{k<n} (D o Gamma)^k(t 1)``, on any
graph), slope-majorant (the ray ``r w`` of the linear network of slopes at
zero, which lies above the operator), three-node additive, mixed
bounded/unbounded, bounded, irreducible (seed-and-chain) and reducible
cases.

:func:`construct_path`, the only dispatcher, runs :func:`sgc.decide` once
and builds from its verdict: decide proves, constructors build.  A network
that decide refutes raises :class:`SgcFails` with decide's verdict before
any constructor runs; the mixed route's inflated part and each reducible
block call back into :func:`construct_path`, so they pass the same gate.
The ray, max and majorant constructors build on the route verdict that
proved the hold (the point ``(p, w)`` of a Perron or majorant bound, the
cycle criterion's margin), and refuse without one; no constructor decides
the condition itself.  The dispatch tries the constructors in order: a constructor's
guard states the shape it serves, its :class:`CompatibilityError` hands
the network to the next one, and a give-up raises :class:`PathStalled` or
:class:`Stalled`.  The mixed splice is made once, at the crossover radius.
Two retries remain, each measured to rescue networks: the mixed route's
two inflation levels (2 of 400 random mixed sum networks certify at ``c =
0.01``, none needs a lower level) and the crossover radius's doubling
(twice in the tests).  Every constructor validates its result on a
log-spaced radius grid before returning it.  This module builds paths
only; the external budget map of a certificate comes from the path
(:func:`compose.derive_phi`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CompatibilityError, PathStalled, SgcFails, Stalled
from .gains import (
    BlockMaxSum,
    Compose,
    GainClass,
    GainNetwork,
    Linear,
    MaxAgg,
    PlusId,
    SumAgg,
    Zero,
    _strictly_less_rows,
    eval_operator,
    eval_operator_ext,
    strictly_less,
    zero_rows,
)
from .graph import adjacency, is_irreducible, scc_decompose
from .sgc import SgcVerdict, decide, embed_verdict, route_line

# top of the certified range: every constructor anchors past it, and the
# validation grid, 1000 log-spaced radii from 1e-6, ends at it
RADIUS_MAX = 1e6
VALIDATION_GRID = np.geomspace(1e-6, RADIUS_MAX, 1000)
VALIDATION_GRID.setflags(write=False)
# anchors per decade on synthetic radius grids
GRID_DENSITY = 12


def _log_grid(lo: float, hi: float, per_decade: int = GRID_DENSITY) -> np.ndarray:
    decades = np.log10(hi / lo)
    count = max(2, int(np.ceil(decades * per_decade)) + 1)
    return np.geomspace(lo, hi, count)


# ---------------------------------------------------------------------------
# Piecewise-linear path types


@dataclass(frozen=True)
class OmegaPath:
    """Vector of strictly increasing piecewise-linear K-infinity functions.

    Anchored at radii ``0 = r_0 < r_1 < ... < r_M`` with ``sigma(0) = 0``;
    beyond the last anchor each component continues with its final segment
    slope, which keeps every component unbounded.

    ``ray``, when given, is the direction ``d`` of a straight ray ``sigma(r)
    = r d``: finite and positive, and reproducing every anchor bit for bit
    (``values == radii d``), else :class:`ValueError`, so a direction cannot
    outlive a change of the anchors.  Between anchors the interpolant of a
    linear function is that function, so the ray is the path itself, and
    :meth:`inverse` divides by ``d`` where every other path interpolates.
    """

    radii: np.ndarray
    values: np.ndarray
    ray: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or radii.ndim != 1 or len(radii) != len(values):
            raise ValueError("anchor radii and values are inconsistent")
        if len(radii) < 2:
            raise ValueError("a path needs at least two anchors")
        if radii[0] != 0.0 or np.any(values[0] != 0.0):
            raise ValueError("paths start at the origin")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("anchor radii must increase strictly")
        if np.any(np.diff(values, axis=0) <= 0):
            raise ValueError("every component must increase strictly across anchors")
        radii.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if self.ray is not None:
            ray = np.asarray(self.ray, dtype=float)
            if ray.shape != (values.shape[1],) or not np.all(np.isfinite(ray) & (ray > 0)):
                raise ValueError("a ray direction is finite and positive, one entry per node")
            if not np.array_equal(values, radii[:, None] * ray):
                raise ValueError("the ray direction does not reproduce the anchors")
            ray.setflags(write=False)
            object.__setattr__(self, "ray", ray)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def anchor_count(self) -> int:
        return len(self.radii)

    @property
    def tail_slopes(self) -> np.ndarray:
        dr = self.radii[-1] - self.radii[-2]
        return (self.values[-1] - self.values[-2]) / dr

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        scalar = rr.ndim == 0
        rr = np.atleast_1d(rr)
        out = np.empty(rr.shape + (self.n,))
        for i in range(self.n):
            out[..., i] = np.interp(rr, self.radii, self.values[:, i])
        beyond = rr > self.radii[-1]
        if np.any(beyond):
            extra = (rr[beyond] - self.radii[-1])[:, None] * self.tail_slopes[None, :]
            out[beyond] = self.values[-1][None, :] + extra
        return out[0] if scalar else out

    def inverse(self, i: int, y):
        """Preimage of ``y`` under component ``i``; negative levels map to 0.

        A ray path divides, ``max(y, 0) / d_i``, at every level.  Any other
        path interpolates its anchors (the left segment at an anchor value)
        and continues with the tail slope past the last one.
        """
        if self.ray is not None:
            out = np.maximum(y, 0.0) / self.ray[i]
            return float(out) if np.ndim(out) == 0 else out
        yy = np.asarray(y, dtype=float)
        scalar = yy.ndim == 0
        yy = np.atleast_1d(yy)
        col = self.values[:, i]
        out = np.interp(yy, col, self.radii)
        beyond = yy > col[-1]
        if np.any(beyond):
            out[beyond] = self.radii[-1] + (yy[beyond] - col[-1]) / self.tail_slopes[i]
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PathReport:
    """Margins of a candidate path on a radius grid (no monotonicity audit:
    :class:`OmegaPath` rejects anchors that do not increase strictly)."""

    radii: np.ndarray
    margins: np.ndarray
    min_margin: float

    @property
    def valid(self) -> bool:
        return self.min_margin > 0.0


@dataclass(frozen=True)
class PathResult:
    """Decay path from :func:`construct_path` and the route that built it.

    ``route`` names the constructor that ran: ``ray`` (every
    power-homogeneous network), ``max`` (the closure path of any max
    network, reducible ones too), ``majorant`` (the ray of the slope
    majorant, on rows that are not all max: sum, outer-sum or block-max-sum
    rows, the neural designs among them), ``three_sum``, ``mixed``,
    ``bounded``, ``irreducible`` or ``reducible``.  The budget map comes
    from the path alone (:func:`compose.derive_phi`).
    """

    sigma: OmegaPath
    route: str


def path_margins(net: GainNetwork, sigma: OmegaPath, radii, phi=None):
    """Path values and rowwise margins ``sigma(r) - Gamma_ext(sigma(r), phi(r))``.

    ``phi`` is a budget map (:class:`compose.PLFunction`); without one the
    external channel is pinned at zero.
    """
    states = sigma(radii)
    image = eval_operator_ext(net, states, 0.0 if phi is None else phi(radii))
    return states, states - image


def validate_path(net: GainNetwork, sigma: OmegaPath) -> PathReport:
    """Margins ``min_i(sigma_i(r) - Gamma_i(sigma(r)))`` on
    :data:`VALIDATION_GRID` and the positive anchor radii."""
    rr = np.unique(np.concatenate([VALIDATION_GRID, sigma.radii[sigma.radii > 0]]))
    margins = path_margins(net, sigma, rr)[1].min(axis=1)
    return PathReport(radii=rr, margins=margins, min_margin=float(margins.min()))


def export_path_csv(net: GainNetwork, sigma: OmegaPath, out, radii=None) -> None:
    """Write ``r,sigma_1,...,sigma_n,margin_min`` rows at log-spaced radii."""
    rr = np.asarray(VALIDATION_GRID if radii is None else radii, dtype=float)
    states, margins = path_margins(net, sigma, rr)
    header = ["r", *(f"sigma_{i + 1}" for i in range(sigma.n)), "margin_min"]
    write_csv(out, header, np.column_stack([rr, states, margins.min(axis=1)]))


# cells per formatting block of write_csv: the kernel's temporaries, about
# 25 words per cell, then stay near 400 KB whatever the table's size
CSV_BLOCK = 2048


@functools.cache
def _csv_tables():
    """Tables of the ``%.12g`` kernel :func:`_encode_cells`, built on first use.

    ``digits[g]``: the four ASCII digits of ``g < 10^4``, first digit in
    the low byte; ``zeros[g]``: its trailing zeros (4 for 0);
    ``powers[e + 300]``: ``10^e`` correctly rounded; ``suffix[X + 300]``:
    ``e+XX`` of a scientific exponent ``X``, 0 in fixed notation;
    ``layout[13 c + nd]``: the words that print ``nd`` significant digits
    in exponent class ``c`` (``X + 4`` for ``-4 <= X < 12``, else 16).
    """
    g = np.arange(10000, dtype=np.uint64)
    digits = sum((48 + g // 10**(3 - b) % 10) << (8 * b) for b in range(4))
    zeros = sum((g % 10**b == 0).astype(np.intp) for b in range(1, 5))
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    suffix = np.array([0 if -4 <= x < 12 else int.from_bytes(b"e%+03d" % x, "little")
                       for x in range(-300, 301)], dtype=np.uint64)
    low, full = (lambda n: (1 << 8 * n) - 1), (1 << 64) - 1
    layout = np.zeros((17 * 13, 7), dtype=np.uint64)
    for c in range(17):
        # the digits of class 16 (scientific) sit as those of X = 0 do
        x = c - 4 if c < 16 else 0
        for nd in range(1, 13):
            # k digits printed, the dot after the first q of them (none at 12)
            k = max(nd, x + 1)
            q = x + 1 if 0 <= x < k - 1 else 12
            ka, kb = low(min(k, 8)), low(max(k - 8, 0))
            sa, sb = low(min(q, 8)), low(max(q - 8, 0))
            dot = 46 << 8 * q if q < 12 else 0
            pre = b"0." + b"0" * (-x - 1) if x < 0 else b""
            layout[13 * c + nd] = (ka & sa, ka & (full ^ sa), kb & sb, kb & (full ^ sb),
                                   dot & full, dot >> 64, int.from_bytes(b"\0\0\0" + pre, "little"))
    return digits, zeros, powers, suffix, layout


def _encode_cells(x) -> np.ndarray:
    """The ``%.12g`` text of each cell of ``x``: ``x.shape + (4,)``
    little-endian words, null-padded (see :func:`write_csv`)."""
    digits, zeros, powers, suffix, layout = _csv_tables()
    flat = np.ravel(x)
    a = np.abs(flat)
    slow = ~((a >= 1e-280) & (a <= 1e280))
    a[slow] = 1.0
    # D = round(|x| 10^(11 - X)), 12 digits, X from log10, fixed by one step
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * powers[300 + 11 - e]
    e += (s >= 1e12).astype(np.intp) - (s < 1e11)
    s = a * powers[300 + 11 - e]
    slow |= np.abs(s - np.floor(s) - 0.5) < 2e-3
    d = np.rint(s)
    carry = d >= 1e12
    e += carry
    hi, lo = np.divmod(np.where(carry, 1e11, d).astype(np.int64), 10**8)
    mid, lo = np.divmod(lo, 10**4)
    nd = 12 - zeros[lo] - (lo == 0) * (zeros[mid] + (mid == 0) * zeros[hi])
    cls = np.where((e >= -4) & (e < 12), e + 4, 16)
    ksa, kma, ksb, kmb, dot_a, dot_b, pre = np.take(layout, 13 * cls + nd, axis=0).T
    a_digits, b_digits = digits[hi] | digits[mid] << 32, digits[lo]
    out = np.empty((flat.size, 4), dtype="<u8")
    out[:, 0] = np.where(flat < 0, pre | ord("-") << 16, pre)
    out[:, 1] = (a_digits & ksa) | (a_digits & kma) << 8 | dot_a
    out[:, 2] = (a_digits & kma) >> 56 | (b_digits & ksb) | (b_digits & kmb) << 8 | dot_b
    out[:, 3] = suffix[e + 300]
    if slow.any():
        bits, inv = np.unique(flat[slow].view(np.uint64), return_inverse=True)
        text = b"".join(("%.12g" % v).encode().ljust(32, b"\0")
                        for v in bits.view(float).tolist())
        out[slow] = np.frombuffer(text, dtype="<u8").reshape(-1, 4)[inv]
    return out.reshape(np.shape(x) + (4,))


@functools.lru_cache(maxsize=2)
def _first_column(first: bytes) -> np.ndarray:
    """Encoded cells (:func:`_encode_cells`) of a table's first column,
    given by its float bytes.  Kept for two columns: the radius grid that
    every ``certify --out`` file starts with, and one more."""
    records = _encode_cells(np.frombuffer(first))
    records.flags.writeable = False
    return records


def write_csv(out, header: list[str], table) -> None:
    """Write ``header`` and each row of ``table`` as ``%.12g`` cells,
    ``,``-separated, each line ending in ``\\n``.

    ``out`` is an open text stream or a file path.  The text is exactly
    ``"%.12g" % x`` per cell, formatted by a numpy kernel in blocks of
    about :data:`CSV_BLOCK` cells (:func:`_encode_cells`).  Each cell
    becomes four little-endian words with null bytes in between: the sign
    and the ``0.000`` prefix, the 12 digits ``D = round(|x| 10^(11 - X))``
    with the decimal point and without trailing zeros, the ``e+XX``
    suffix, and the separator; one ``bytes.translate`` drops the nulls.
    The scaled value ``|x| 10^(11 - X)`` is a product of two correctly
    rounded doubles below ``10^12``, off by less than ``3e-4``, so its
    rounding is exact unless it lies within ``2e-3`` of a tie.  Such a
    cell, zero, a non-finite cell and one with ``|x|`` outside ``[1e-280,
    1e280]`` is formatted by ``%`` itself.  The first column's cells come
    from :func:`_first_column`.
    """
    cells = np.asarray(table, dtype=float)
    parts = [(",".join(header) + "\n").encode()]
    if len(cells):
        width = cells.shape[1]
        sep = np.full(width, ord(","), dtype=np.uint64) << 56
        sep[-1] = ord("\n") << 56
        first = _first_column(cells[:, 0].tobytes())
        step = max(1, CSV_BLOCK // width)
        for k in range(0, len(cells), step):
            rows = cells[k:k + step]
            block = np.empty(rows.shape + (4,), dtype="<u8")
            block[:, 0] = first[k:k + step]
            block[:, 1:] = _encode_cells(rows[:, 1:])
            block[..., 3] |= sep
            parts.append(block.tobytes().translate(None, b"\0"))
    data = b"".join(parts)
    if hasattr(out, "write"):
        out.write(data.decode())
    else:
        with open(out, "wb") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------
# Shared machinery: downward iteration, upward chaining, anchor assembly


# downward iteration: a step below DOWN_STALL_REL of the sup norm stalls,
# DOWN_STALL_LIMIT stalled steps in a row or DOWN_MAX_STEPS anchors give up
DOWN_STALL_REL = 1e-9
DOWN_STALL_LIMIT = 10
DOWN_MAX_STEPS = 50000


def _downward_leg(op, s0: np.ndarray, stop_abs: float) -> list[np.ndarray]:
    """Iterate ``op`` from ``s0`` until the sup norm drops below ``stop_abs``.

    The first step enforces membership in the strict decay set: an exact
    fixed point reports ``Stalled`` (the iteration cannot decrease, which
    contradicts the small gain condition), any other non-strict component
    reports ``PathStalled``.
    """
    s0 = np.asarray(s0, dtype=float)
    first = op(s0)
    if not strictly_less(first, s0):
        if np.array_equal(first, s0):
            raise Stalled("starting point is a fixed point of the gain operator")
        raise PathStalled("starting point is not strictly inside the decay set")
    anchors = [s0.copy()]
    s = s0
    stall = 0
    while s.max() >= stop_abs:
        nxt = op(s)
        if not np.all(nxt < s):
            raise Stalled("downward iteration stopped decreasing componentwise")
        if (s - nxt).max() < DOWN_STALL_REL * s.max():
            stall += 1
            if stall >= DOWN_STALL_LIMIT:
                raise Stalled(
                    "downward iteration is stalling above the stopping ball"
                )
        else:
            stall = 0
        s = nxt
        anchors.append(s.copy())
        if len(anchors) > DOWN_MAX_STEPS:
            raise Stalled("downward iteration exceeded the step budget")
    return anchors


# upward chaining: each step advances by UP_BACKOFF of the largest admissible
# one; a step below UP_GROWTH_TOL of the sup norm stalls, UP_STALL_LIMIT
# stalled steps in a row or UP_MAX_STEPS anchors give up
UP_BACKOFF = 0.5
UP_GROWTH_TOL = 1e-6
UP_STALL_LIMIT = 50
UP_MAX_STEPS = 20000


# exponents k of the step ladder t0 * 2**k: wide enough to hold both of its
# ends, the first step above 1e9 * scale and the first at or below
# 1e-14 * scale (t0 = 0.1 * scale, so k = 34 and k = -44)
_LADDER_EXPONENTS = np.arange(-64, 65)
# levels of the bisection's midpoint tree evaluated in one operator call
_BISECT_DEPTH = 5


def _midpoint_tree(lo: float, hi: float) -> np.ndarray:
    """``lo``, the midpoints of ``_BISECT_DEPTH`` bisection levels and ``hi``.

    Each midpoint is ``0.5 * (a + b)`` of the bracket a bisection holds
    when it takes it, so a walk down the tree replays the bisection.
    """
    bounds = np.array([lo, hi])
    for _ in range(_BISECT_DEPTH):
        finer = np.empty(2 * len(bounds) - 1)
        finer[0::2] = bounds
        finer[1::2] = 0.5 * (bounds[:-1] + bounds[1:])
        bounds = finer
    return bounds


def _chain_up(op, start: np.ndarray, target_sup: float) -> list[np.ndarray]:
    """Grow anchors along the ones direction until ``target_sup`` is passed.

    Each step takes ``t*`` = sup of admissible steps with
    ``op(s + t 1) < s`` and advances by ``UP_BACKOFF * t*``, which keeps the
    next image strictly below the previous anchor so whole segments stay in
    the decay set.  For operators with bounded rows ``t*`` is infinite; the
    step then jumps past ``target_sup`` in one segment.

    The search for ``t*`` is a sequential one, replayed from batched
    operator calls so every anchor keeps the bits the sequential search
    gives.  Starting at ``t0 = 0.1 * scale`` it doubles while the doubled
    step is admissible, up to a cap of ``1e9 * scale`` past which it tries
    the jump, or, when ``t0`` is not admissible, halves until a step is,
    down to ``1e-14 * scale``; then it bisects the bracket up to 60 times,
    until it is below ``1e-3`` relative.  One call evaluates the whole
    ladder, both ways and the jump; each further call evaluates
    ``_BISECT_DEPTH`` levels of the bisection's midpoint tree, which the
    bisection then walks by the returned flags.
    """
    s = np.asarray(start, dtype=float).copy()
    ones = np.ones_like(s)
    anchors = [s.copy()]
    stall = 0
    origin = int(np.searchsorted(_LADDER_EXPONENTS, 0))

    def admissible(steps: np.ndarray) -> np.ndarray:
        return _strictly_less_rows(op(s + steps[:, None] * ones), s)

    while s.max() < target_sup:
        scale = 1.0 + s.max()
        steps = np.ldexp(0.1 * scale, _LADDER_EXPONENTS)
        top = int(np.searchsorted(steps, 1e9 * scale, side="right"))
        bottom = int(np.searchsorted(steps, 1e-14 * scale, side="right")) - 1
        jump = max(4.0 * target_sup, 4.0 * float(steps[top]))
        good = admissible(np.append(steps[bottom:top + 1], jump))
        jump_ok, good = good[-1], good[:-1]
        at_t0 = origin - bottom
        if good[at_t0]:
            refused = np.flatnonzero(~good[at_t0 + 1:])
            if refused.size:
                t_lo = float(steps[origin + refused[0]])
                t_hi = 2.0 * t_lo
            elif jump_ok:
                anchors.append(s + jump * ones)
                return anchors
            else:
                t_lo, t_hi = float(steps[top]), jump
        else:
            accepted = np.flatnonzero(good[at_t0::-1])
            if not accepted.size:
                raise PathStalled(
                    "no admissible step above the strictness tolerance; "
                    "the operator is near-critical at this anchor"
                )
            t_lo = float(steps[origin - accepted[0]])
            t_hi = 2.0 * t_lo
        rounds = 0
        while rounds < 60 and not t_hi - t_lo < 1e-3 * t_lo:
            tree = _midpoint_tree(t_lo, t_hi)
            good = admissible(tree[1:-1])
            lo, hi = 0, len(tree) - 1
            while (hi - lo > 1 and rounds < 60
                   and not tree[hi] - tree[lo] < 1e-3 * tree[lo]):
                mid = (lo + hi) // 2
                if good[mid - 1]:
                    lo = mid
                else:
                    hi = mid
                rounds += 1
            t_lo, t_hi = float(tree[lo]), float(tree[hi])
        step = UP_BACKOFF * t_lo
        if step < UP_GROWTH_TOL * max(1.0, s.max()):
            stall += 1
            if stall >= UP_STALL_LIMIT:
                raise PathStalled(
                    "anchor growth below 1e-6 relative for 50 consecutive steps"
                )
        else:
            stall = 0
        s = s + step * ones
        anchors.append(s.copy())
        if len(anchors) > UP_MAX_STEPS:
            raise PathStalled("upward chaining exceeded the step budget")
    return anchors


def _find_seed(op, n: int, seed: int = 0) -> np.ndarray:
    """Point of the strict decay set on the unit sup-norm sphere.

    Tries the ones direction, 2n axis-biased directions, then 500 random
    simplex directions, each scaled to sup norm one, and returns the first
    that the operator shrinks.  The random directions are drawn up front;
    the candidates are checked in blocks of 1, 8, 64, ... rows, one
    operator call per block, and the first hit of the first block holding
    one is the first hit in candidate order.
    """
    cands = np.ones((1 + 2 * n + 500, n))
    axis = np.eye(n, dtype=bool)
    cands[1:2 * n + 1:2] = np.where(axis, 1.0, 0.5)
    if n > 1:
        cands[2:2 * n + 1:2] = np.where(axis, 0.5, 1.0)
    w = np.random.default_rng(seed).random((500, n)) + 1e-12
    cands[2 * n + 1:] = w / w.max(axis=1, keepdims=True)
    start, size = 0, 1
    while start < len(cands):
        block = cands[start:start + size]
        hits = np.flatnonzero(_strictly_less_rows(op(block), block))
        if hits.size:
            return block[hits[0]]
        start, size = start + size, 8 * size
    raise PathStalled(
        f"none of the {len(cands)} candidate directions on the unit sphere "
        "lies in the strict decay set"
    )


def _join_legs(op, seed: np.ndarray, up: list[np.ndarray]):
    """Positive anchors of a downward leg from ``seed`` joined to ``up``.

    The downward leg iterates ``op`` from ``seed`` (:func:`_downward_leg`);
    ``up`` starts at the same seed and increases.  Radii are the anchor sup
    norms above the seed; below the seed the radius assignment is
    compressed quadratically (``r = ||s||^2 / ||seed||``) so the path runs
    ahead of its radius near the origin and low-radius margins inherit the
    seed scale rather than collapsing with the anchors.  The downward leg
    stops once the smallest anchor's compressed radius lands below the
    ``1e-6`` edge of the validation grid.
    """
    rho0 = float(seed.max())
    down = _downward_leg(op, seed, stop_abs=float(np.sqrt(0.9e-6 * rho0)))
    rows = [row for row in list(reversed(down))[:-1] + up if row.max() > 0]
    sups = np.array([row.max() for row in rows])
    return np.where(sups >= rho0, sups, sups**2 / rho0), np.array(rows)


def _finalize(net: GainNetwork, radii: np.ndarray, values: np.ndarray,
              ray: np.ndarray | None = None) -> OmegaPath:
    """Path through the origin and the positive anchors given, validated
    (:class:`PathStalled` when it fails); every constructor ends here.  A
    component that does not rise above the anchor before (a gain saturating
    in floats, a drift below one ulp) is lifted one ulp above it.  ``ray`` is
    the direction of a straight ray (:class:`OmegaPath`)."""
    if np.any(np.diff(values, axis=0) <= 0):
        values = np.array(values)
        for k in range(1, len(values)):
            values[k] = np.maximum(values[k], np.nextafter(values[k - 1], np.inf))
    sigma = OmegaPath(np.concatenate([[0.0], radii]), np.vstack([np.zeros(net.n), values]),
                      ray=ray)
    report = validate_path(net, sigma)
    if not report.valid:
        raise PathStalled(
            f"constructed path failed validation (min margin {report.min_margin:.3g})"
        )
    return sigma


# ---------------------------------------------------------------------------
# Constructors


def path_bounded(net: GainNetwork) -> OmegaPath:
    """Path for operators whose nonzero gains are all bounded.

    The rowwise structural supremum ``s*`` gives an interior point
    ``s0 = 1.05 s*`` of the decay set; the upward leg is the ray through
    ``s0`` (every inflation of ``s0`` stays strictly decaying), the downward
    leg iterates the operator.
    """
    classes = {g.classify() for row in net.gamma for g in row}
    if GainClass.K_INFINITY in classes:
        raise CompatibilityError("unbounded internal gains present: bounded gains only")
    if zero_rows(net):
        raise CompatibilityError("rows without nonzero gains: every row needs an inflow")
    sups = np.array([
        net.mu[i].aggregate(
            np.array([0.0 if net.gamma[i][j].is_zero else net.gamma[i][j].sup()
                      for j in range(net.n)]),
            np.array(0.0),
        )
        for i in range(net.n)
    ])
    if not np.all(np.isfinite(sups)):
        raise CompatibilityError("row aggregation is unbounded despite bounded gains")
    s0 = 1.05 * sups
    for _ in range(41):
        if strictly_less(eval_operator(net, s0), s0):
            break
        s0 = 2.0 * s0
    else:
        raise PathStalled("inflated rowwise supremum never entered the decay set")
    up = [s0, 1.05 * RADIUS_MAX / float(s0.max()) * s0]
    return _finalize(net, *_join_legs(lambda s: eval_operator(net, s), s0, up))


def path_irreducible(net: GainNetwork, *, seed: int = 0) -> OmegaPath:
    """Seed-and-chain construction for strongly connected unbounded gains.

    A seed on the unit sphere (:func:`_find_seed`) chains up past the
    certified range and iterates the operator down to the origin.
    """
    if net.n < 2 or not is_irreducible(adjacency(net)):
        raise CompatibilityError("interconnection graph is not strongly connected: "
                                 "needs one block of two or more nodes")
    for row in net.gamma:
        for g in row:
            if not g.is_zero and g.classify() is not GainClass.K_INFINITY:
                raise CompatibilityError("bounded gains present: unbounded gains only")
    op = lambda s: eval_operator(net, s)
    # as in sgc's closed walks: an overflowed state, inf or NaN, passes no
    # strictness test, so numpy's warning about it is noise
    with np.errstate(over="ignore", invalid="ignore"):
        seed_vec = _find_seed(op, net.n, seed)
        up = _chain_up(op, seed_vec, target_sup=1.05 * RADIUS_MAX)
        legs = _join_legs(op, seed_vec, up)
    return _finalize(net, *legs)


# most anchors a ray with unequal exponents may take
RAY_MAX_ANCHORS = 20000


def path_homogeneous(net: GainNetwork, verdict: SgcVerdict) -> OmegaPath:
    """Ray ``sigma_i(r) = (r w_i)^p_i`` at the point ``(p, w)`` of the
    Perron bound ``c`` that ``verdict`` holds (:func:`_holding_route`).

    ``T(w) <= c w`` with ``c < 1`` gives ``Gamma_mu(sigma(r)) <= (c r w)^p <
    sigma(r)`` at every radius, on any graph.  With one exponent the path is
    the straight ray ``r w^p``, exact on any anchors (a dense log grid serves
    the budget maps), and the path carries its direction ``w^p``.
    Otherwise anchors sit at a ratio ``q <= min(10^(1/12), c^(-1/2))``:
    ``Gamma_mu(sigma(r[k+1])) <= (c q)^p sigma(r[k]) < sigma(r[k])`` proves
    each segment by monotonicity.
    """
    return _ray(net, _holding_route(verdict, "perron"))


def path_majorant(net: GainNetwork, verdict: SgcVerdict) -> OmegaPath:
    """Ray ``sigma(r) = r w`` of the slope majorant ``L = net.majorant``,
    on sum, max, outer-sum and block-max-sum rows.

    The majorant route that ``verdict`` holds (:func:`_holding_route`)
    gives ``L(w) <= c w``, and ``Gamma_mu <= L`` gives ``Gamma_mu(r w) <= c
    r w < r w`` at every radius, so the ray built for ``L`` is validated on
    the network itself.
    """
    return _ray(net, _holding_route(verdict, "majorant"))


def _holding_route(verdict: SgcVerdict, method: str) -> SgcVerdict:
    """The verdict of the ``method`` route, ``verdict`` itself (a route's
    own verdict) or one of ``verdict.routes`` (:func:`sgc.decide`'s).  It
    must hold: a constructor builds on a proof only, and raises
    :class:`CompatibilityError` where the route did not run or proved no
    hold."""
    for route in (verdict, *verdict.routes):
        if route.method == method:
            if not route.holds:
                raise CompatibilityError(f"{route_line(route)}: no hold to build on")
            return route
    raise CompatibilityError(f"no {method} route ran on this network")


def _ray(net: GainNetwork, route: SgcVerdict) -> OmegaPath:
    """The ray ``(r w)^p`` of :func:`path_homogeneous` at the bound ``c =
    route.rho`` and its point ``(p, w)``.  It serves only a ray of at most
    ``RAY_MAX_ANCHORS`` anchors inside the float range, and raises
    :class:`CompatibilityError` otherwise."""
    c, (p, w) = route.rho, route.point
    w = w / w.max()
    ray = None
    if np.all(p == p[0]):
        radii = _log_grid(1e-7, 1.05 * RADIUS_MAX)
        ray = np.power(w, p)
        values = radii[:, None] * ray
    else:
        per_decade = max(GRID_DENSITY, int(np.ceil(-2.0 / np.log10(max(c, 1e-12)))))
        if np.log10(1.05 * RADIUS_MAX / 1e-7) * per_decade > RAY_MAX_ANCHORS:
            raise CompatibilityError(f"{route_line(route)}: the ray needs over "
                                     f"{RAY_MAX_ANCHORS} anchors")
        radii = _log_grid(1e-7, 1.05 * RADIUS_MAX, per_decade)
        values = np.power(radii[:, None] * w, p)
    if not np.all(np.diff(values, axis=0, prepend=0.0) > 0):
        raise CompatibilityError(f"exponents {p} carry the ray out of the float range")
    return _finalize(net, radii, values, ray)


def path_max(net: GainNetwork, verdict: SgcVerdict) -> OmegaPath:
    """Closure path ``sigma(t) = max_{k<n} (D o Gamma)^k(t 1)`` for max rows.

    Built on the hold of the cycle route that ``verdict`` holds
    (:func:`_holding_route`).  ``D = (1 + alpha) id`` comes from the
    route's margin ``m`` by ``(1 + alpha)^(2n) max(1 - m, 4^-n) = 1``, at
    most one (a graph without cycles has ``m = 1``: no walk returns there,
    so any ``alpha > 0`` serves).  A walk of ``n`` steps repeats a node, so
    with every cycle of ``D o Gamma`` below the identity ``Gamma(sigma(t))
    <= D^-1(sigma(t)) < sigma(t)`` at every ``t > 0``, on any graph; the
    validation of :func:`_finalize` decides.  Each component is at least
    ``t``, so the path is K-infinity.  It is evaluated on all anchors in
    ``n - 1`` operator calls.
    """
    cycle = _holding_route(verdict, "cycle")
    lift = max(1.0 - cycle.margins["min_margin"], 4.0**-net.n) ** (-0.5 / net.n)
    radii = _log_grid(1e-7, 1.05 * RADIUS_MAX)
    walk = np.outer(radii, np.ones(net.n))
    values = walk
    for _ in range(net.n - 1):
        walk = lift * eval_operator(net, walk)
        values = np.maximum(values, walk)
    return _finalize(net, radii, values)


def path_three_sum(net: GainNetwork) -> OmegaPath:
    """Closed-form style construction for complete three-node sum networks.

    ``sigma_1 = r``; ``sigma_2`` balances the two transfer budgets of rows
    one and two; ``sigma_3`` sits halfway between the inflow ``h`` and the
    right-to-left running minimum ``g*`` of the remaining budget ``g``.

    The balance equation is solved by one bisection over all anchor radii
    at once: every round halves the bracket of each radius still open, and
    a radius leaves once its bracket is below ``1e-14`` relative, so each
    radius gets the bits of a bisection of its own.
    """
    if net.n != 3:
        raise CompatibilityError("the balanced construction is specific to n = 3")
    for mu in net.mu:
        if not isinstance(mu, SumAgg):
            raise CompatibilityError("the balanced construction needs additive rows")
    if any(net.gamma[i][j].classify() is not GainClass.K_INFINITY
           for i in range(3) for j in range(3) if i != j):
        raise CompatibilityError(
            "the balanced construction needs an unbounded gain on every edge")
    g12, g13 = net.gamma[0][1], net.gamma[0][2]
    g21, g23 = net.gamma[1][0], net.gamma[1][2]
    g31, g32 = net.gamma[2][0], net.gamma[2][1]

    radii = _log_grid(1e-7, 1.5 * RADIUS_MAX * 10.0)

    def residual(r: np.ndarray, cand: np.ndarray) -> np.ndarray:
        left = g13.inverse(np.maximum(r - g12(cand), 0.0))
        right = g23.inverse(np.maximum(cand - g21(r), 0.0))
        return left - right

    lo = g21(radii)
    hi = g12.inverse(radii)
    s2 = 0.5 * (lo + hi)
    no_bracket = hi < lo - 1e-12 * np.maximum(1.0, lo)
    # radii with room between the ends: sign check, then end or bisection
    ks = np.flatnonzero(hi > lo)
    flo = residual(radii[ks], lo[ks])
    fhi = residual(radii[ks], hi[ks])
    tol_r = 1e-9 * np.maximum(1.0, radii[ks])
    bad = no_bracket.copy()
    bad[ks] = (flo < -tol_r) | (fhi > tol_r)
    if np.any(bad):
        k = int(np.argmax(bad))
        what = ("no bracket for the balance equation" if no_bracket[k]
                else "balance equation bracket has the wrong signs")
        raise PathStalled(f"{what} at radius {radii[k]:.6g}")
    at_lo = flo <= 0.0
    at_hi = ~at_lo & (fhi >= 0.0)
    s2[ks[at_lo]] = lo[ks[at_lo]]
    s2[ks[at_hi]] = hi[ks[at_hi]]
    idx = ks[~(at_lo | at_hi)]
    r, a, b = radii[idx], lo[idx], hi[idx]
    live = np.ones(idx.size, dtype=bool)
    for _ in range(300):
        live &= ~((b - a) < 1e-14 * np.maximum(b, 1e-300))
        if not np.any(live):
            break
        mid = 0.5 * (a[live] + b[live])
        up = residual(r[live], mid) >= 0
        a[live] = np.where(up, mid, a[live])
        b[live] = np.where(up, b[live], mid)
    s2[idx] = 0.5 * (a + b)
    for k in range(1, len(radii)):
        if s2[k] <= s2[k - 1]:
            s2[k] = s2[k - 1] * (1.0 + 1e-14)

    h = g31._eval(radii) + g32._eval(s2)
    g = g13.inverse(np.maximum(radii - g12(s2), 0.0))
    g_star = np.minimum.accumulate(g[::-1])[::-1]
    if np.any(h >= g_star):
        k = int(np.argmax(h >= g_star))
        raise PathStalled(
            f"inflow meets the remaining budget at radius {radii[k]:.6g}; "
            "numerical evidence against the small gain condition"
        )
    s3 = 0.5 * (g_star + h)
    return _finalize(net, radii, np.column_stack([radii, s2, s3]))


def path_mixed(net: GainNetwork, *, seed: int = 0) -> OmegaPath:
    """Path for additive rows mixing bounded and unbounded gains.

    The unbounded part gets a path built against the inflated operator
    ``Gamma_U(s + rho(s))``, ``rho = c id``, by :func:`construct_path` (its
    sum rows and unbounded gains take the ray, the irreducible or the
    reducible route); the inflation term then absorbs the bounded part's
    supremum beyond a crossover radius, and a downward leg covers the radii
    below it (:func:`_splice_mixed`).  The inflation levels ``c = 0.05,
    0.01`` are tried in turn.  The inflated part passes the gate of
    :func:`construct_path`, but it is another operator: its refutation
    proves nothing about the network, and is reported as
    :class:`PathStalled`.  A network with only one gain class, or with a
    row without gains (a source node), raises :class:`CompatibilityError`.
    """
    for mu in net.mu:
        if not isinstance(mu, SumAgg):
            raise CompatibilityError("the split construction needs additive rows")
    if zero_rows(net):
        raise CompatibilityError("rows without nonzero gains: every row needs an inflow")
    classes = [[g.classify() for g in row] for row in net.gamma]
    present = {c for row in classes for c in row}
    if not {GainClass.K_BOUNDED, GainClass.K_INFINITY} <= present:
        raise CompatibilityError(
            "the split construction needs both bounded and unbounded gains")
    s_star = np.array([
        sum(g.sup() if c is GainClass.K_BOUNDED else 0.0 for g, c in zip(row, cls))
        for row, cls in zip(net.gamma, classes)
    ])

    zero_gain = Zero()
    for c in (0.05, 0.01):
        rho = Linear(c)
        inflated = tuple(
            tuple(Compose(g, PlusId(rho)) if k is GainClass.K_INFINITY else zero_gain
                  for g, k in zip(row, cls))
            for row, cls in zip(net.gamma, classes)
        )
        t_net = GainNetwork(net.n, inflated,
                            tuple(zero_gain for _ in range(net.n)), net.mu)
        try:
            sigma_u = construct_path(t_net, seed=seed).sigma
        except (PathStalled, Stalled) as exc:
            last_error = exc
            continue
        except SgcFails as exc:
            last_error = PathStalled(f"the unbounded part inflated by {c:g} id "
                                     f"fails: {exc}")
            continue
        try:
            return _splice_mixed(net, sigma_u, c, s_star)
        except PathStalled as exc:
            last_error = exc
    raise last_error


def _crossover_radius(sigma_u: OmegaPath, c: float, s_star: np.ndarray) -> float:
    """First anchor radius where ``c * sigma_u`` clears the bounded supremum.

    All anchor radii are checked in one evaluation of ``sigma_u``; when
    none clears, the last one is doubled until it does.
    """
    def clears(r):
        return np.all(c * sigma_u(r) >= s_star * (1.0 + 1e-6) + 1e-12, axis=-1)

    candidates = sigma_u.radii[sigma_u.radii > 0]
    hits = np.flatnonzero(clears(candidates))
    if hits.size:
        return float(candidates[hits[0]])
    r_star = float(candidates[-1])
    while not clears(r_star):
        r_star *= 2.0
        if r_star > 1e18:
            raise PathStalled("crossover radius ran away")
    return r_star


def _splice_mixed(net: GainNetwork, sigma_u: OmegaPath, c: float,
                  s_star: np.ndarray) -> OmegaPath:
    """``(1 + c) sigma_u`` from the crossover radius up, a downward leg below.

    The splice is made once, at :func:`_crossover_radius`: a start outside
    the decay set or a path that fails validation raises
    :class:`PathStalled`, which sends :func:`path_mixed` to its next
    inflation level.
    """
    r_star = _crossover_radius(sigma_u, c, s_star)
    candidates = sigma_u.radii[sigma_u.radii > 0]
    top = max(1.1 * RADIUS_MAX, 2.0 * r_star)
    upper_radii = np.unique(np.concatenate([
        [r_star],
        candidates[(candidates > r_star) & (candidates <= top)],
        [top],
    ]))
    upper_vals = sigma_u(upper_radii) * (1.0 + c)
    s0 = upper_vals[0]
    op = lambda s: eval_operator(net, s)
    if not strictly_less(op(s0), s0):
        raise PathStalled("the splice start is outside the decay set")
    return _finalize(net, *_join_legs(op, s0, list(upper_vals)))


# ---------------------------------------------------------------------------
# Reducible networks


def _subnet(net: GainNetwork, block: tuple[int, ...]) -> GainNetwork:
    zero_gain = Zero()
    gamma = tuple(
        tuple(net.gamma[i][j] for j in block) for i in block
    )
    mus = []
    for i in block:
        mu = net.mu[i]
        if isinstance(mu, BlockMaxSum):
            pos = {j: k for k, j in enumerate(block)}
            remapped = tuple(
                tuple(pos[j] for j in b if j in pos)
                for b in mu.blocks
            )
            remapped = tuple(b for b in remapped if b)
            mu = BlockMaxSum(remapped) if remapped else SumAgg()
        mus.append(mu)
    return GainNetwork(len(block), gamma,
                       tuple(zero_gain for _ in block), tuple(mus))


def path_reducible(net: GainNetwork, *, seed: int = 0) -> OmegaPath:
    """Blockwise construction for reducible interconnections.

    Blocks are processed from the most upstream one downward.  A block
    without inflow from other blocks keeps its local path unreparametrized;
    a block fed by other blocks is reparametrized so its local margins
    dominate twice its aggregated inflow plus its input at the identity
    level ``r``, generalizing the two-block recipe
    ``sigma = (2 eta~(r), r)``.  Each block of two or more nodes gets its
    local path from :func:`construct_path`; a single node rides the
    identity.  A block that :func:`construct_path`'s gate refutes fails the
    network: its :class:`SgcFails` is raised again with the verdict read on
    the network (:func:`sgc.embed_verdict`).  A block's own rows are
    evaluated on its subnetwork, whose aggregations are remapped to
    block-local columns; its inflow is the whole operator evaluated at the
    upstream values placed so far (this block's and the downstream columns
    are still zero).

    Every budget map is capped by the identity, so a fed row keeps half of
    its margin for an input up to ``r``: :func:`compose.derive_phi` is
    bound only by the rows of blocks without cross-block inflow.
    """
    adj = adjacency(net)
    if net.n > 1 and is_irreducible(adj):
        raise CompatibilityError("interconnection graph is strongly connected: "
                                 "needs two or more blocks")
    blocks = scc_decompose(adj)
    radii_pos = _log_grid(1e-7, 1.1 * RADIUS_MAX)
    m = len(radii_pos)
    values = np.zeros((m, net.n))

    for bi in reversed(range(len(blocks))):
        block = blocks[bi]
        cols = list(block)
        fed = [any(j not in block for j in net.active_sets[i]) for i in block]
        for i, cross in zip(block, fed):
            if (cross or net.ext_active[i]) and not isinstance(
                    net.mu[i], (SumAgg, MaxAgg)):
                raise CompatibilityError(
                    "cross-block inflow needs additive or max aggregation"
                )
        subnet = _subnet(net, block)
        if subnet.n == 1:
            # no self gains, so a single node has no cycle to check
            top = 1.1 * RADIUS_MAX
            bp = OmegaPath(np.array([0.0, top]), np.array([[0.0], [top]]))
        else:
            try:
                bp = construct_path(subnet, seed=seed).sigma
            except SgcFails as exc:
                verdict = embed_verdict(net, block, exc.verdict)
                raise SgcFails(f"diagonal block {bi} fails: {route_line(verdict)}",
                               verdict) from exc

        if not any(fed):
            values[:, cols] = bp(radii_pos)
            continue

        # blocks fed by other blocks: reparametrize the local path so its
        # margins dominate twice the aggregated inflow and input
        targets = 2.0 * eval_operator_ext(net, values, radii_pos)[:, cols]
        is_max = np.array([isinstance(net.mu[i], MaxAgg) for i in block])
        t_hi = 10.0 * RADIUS_MAX
        while True:
            t_grid = _log_grid(1e-10, t_hi)
            t_vals = bp(t_grid)
            tables = np.where(is_max, t_vals, t_vals - eval_operator(subnet, t_vals))
            suff = np.minimum.accumulate(tables[::-1], axis=0)[::-1]
            if np.all(suff[-1] >= targets.max(axis=0)):
                break
            t_hi *= 100.0
            if t_hi > 1e16 * RADIUS_MAX:
                raise PathStalled(
                    "local margins never dominate the aggregated inflow"
                )

        idx = np.zeros(m, dtype=int)
        for k in range(len(block)):
            idx = np.maximum(idx, np.searchsorted(suff[:, k], targets[:, k],
                                                  side="left"))
        idx = np.minimum(idx, len(t_grid) - 1)
        psi = t_grid[idx]
        psi = np.maximum.accumulate(psi)
        drift = 1e-3 * (psi[-1] + t_grid[0]) / radii_pos[-1]
        psi = psi + drift * radii_pos
        values[:, cols] = bp(psi)

    return _finalize(net, radii_pos, values)


# ---------------------------------------------------------------------------
# Dispatch


def construct_path(net: GainNetwork, *, seed: int = 0,
                   verdict: SgcVerdict | None = None) -> PathResult:
    """Path from the first constructor that serves the network, in the
    order ray, max, majorant, three_sum, mixed, bounded, irreducible,
    reducible; the result names the route.

    :func:`sgc.decide` runs once first, seeded with ``seed``, unless the
    caller passes the ``verdict`` it already holds from that call.  A network
    that it refutes raises :class:`SgcFails` carrying its verdict, with the
    deciding route's line as the message, before any constructor runs.  The
    ray, max and majorant constructors build on the route of the verdict
    that proved the hold.  A constructor's own guard states the shape it
    serves: its :class:`CompatibilityError` hands the network to the next
    one, and any other raise propagates (:class:`PathStalled` or
    :class:`Stalled` gives up).  A network with a zero row (a source node) reaches
    :func:`path_reducible`: the mixed, bounded and irreducible constructors
    refuse it.  The mixed route's inflated part and each reducible block
    call back into this dispatch, and so pass the same gate.  With no
    constructor left, :class:`CompatibilityError` is raised from the last
    refusal.
    """
    if verdict is None:
        verdict = decide(net, seed=seed)
    if verdict.fails:
        raise SgcFails(route_line(verdict), verdict)
    # built per call: the names are read now, so a patched constructor runs
    constructors = (
        ("ray", lambda net: path_homogeneous(net, verdict)),
        ("max", lambda net: path_max(net, verdict)),
        ("majorant", lambda net: path_majorant(net, verdict)),
        ("three_sum", path_three_sum), ("mixed", lambda net: path_mixed(net, seed=seed)),
        ("bounded", path_bounded),
        ("irreducible", lambda net: path_irreducible(net, seed=seed)),
        ("reducible", lambda net: path_reducible(net, seed=seed)),
    )
    refusal = None
    for route, build in constructors:
        try:
            return PathResult(build(net), route)
        except CompatibilityError as exc:
            refusal = exc
    raise CompatibilityError("no path constructor serves this network") from refusal
