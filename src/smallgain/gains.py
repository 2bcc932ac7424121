"""Comparison functions, monotone aggregations, and network gain operators.

The building block is an immutable expression tree (:class:`GainExpr`) over a
small closed vocabulary of class-K shapes: linear, power, saturating,
arctangent, sums, maxima, compositions, and ``id + g``.  Trees evaluate
vectorized over numpy arrays, classify themselves as zero, bounded class
K, or class K-infinity by their structural supremum, and invert
numerically by expanding bracket bisection (monotonicity is guaranteed by
construction, so no derivative information is needed).  ``power_law``
reads a tree that is exactly ``c*s^q`` as ``(c, q)``; ``slope_at_zero``
reads a slope ``c`` with ``g(s) <= c*s`` everywhere and ``g(s) = c*s +
o(s)`` at zero.

A :class:`GainNetwork` packages an n-by-n matrix of interconnection gains
(zero diagonal), one external gain per row, and one monotone aggregation per
row.  The induced operators on the positive orthant are
``eval_operator`` (internal inputs only) and ``eval_operator_ext`` (with the
external channel).  They evaluate only the active slots, the gains that are
not the zero gain, which the network computes once when it is built.  A max
row folds its active slots and its external slot with ``np.maximum``; the
other rows keep their zero slots exactly zero, so their aggregation sees the
same array as a dense evaluation.  Either way the result has the bits of the
dense evaluation.  Construction audits each row's aggregation for strict
monotonicity over the row's active gain slots and rejects incompatible
combinations.

Strict inequalities between state vectors are interpreted with a relative
slack of ``TOL_STRICT``: ``a < b`` means ``a <= b - TOL_STRICT*max(1, b)``
componentwise.  All certification code in the package goes through
:func:`strictly_less` so the semantics stay uniform.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompatibilityError, OutOfRange

# Relative slack that turns "<" into a checkable numerical statement.
TOL_STRICT = 1e-9
# Target relative residual of gain inversion.
TOL_INV = 1e-9
# Relative gap below which two power-law exponents count as one.
EXPONENT_TOL = 1e-12


class GainClass(enum.Enum):
    ZERO = "zero"
    K_BOUNDED = "K_bounded"
    K_INFINITY = "K_infinity"


def _as_float_array(s):
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("gain arguments live on the nonnegative half line")
    return arr


def _maybe_scalar(value, scalar: bool):
    return float(value) if scalar else value


@dataclass(frozen=True)
class GainExpr:
    """Base class for immutable gain expression trees."""

    def __call__(self, s):
        arr = _as_float_array(s)
        return _maybe_scalar(self._eval(arr), arr.ndim == 0)

    def _eval(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def classify(self) -> GainClass:
        """The class the structural supremum decides: zero, bounded or not."""
        sup = self.sup()
        if sup == 0.0:
            return GainClass.ZERO
        return GainClass.K_INFINITY if sup == math.inf else GainClass.K_BOUNDED

    def sup(self) -> float:
        """Structural supremum over the half line (inf for class K-infinity)."""
        raise NotImplementedError

    @cached_property
    def is_zero(self) -> bool:
        return self.sup() == 0.0

    def power_law(self) -> tuple[float, float] | None:
        """``(c, q)`` when this gain is exactly ``c*s^q``, else None."""
        return None

    def slope_at_zero(self) -> float | None:
        """Slope ``c`` with ``g(s) <= c*s`` for all ``s >= 0`` and
        ``g(s) = c*s + o(s)`` at zero, read from the tree, else None.

        Linear, saturating and arctangent leaves give their coefficient (a
        power only at exponent one), sums add, maxima take the largest,
        compositions multiply and ``id + g`` gives ``1 + c``: each step keeps
        both properties because every gain is increasing.
        """
        return None

    def _inverse_exact(self, y_arr: np.ndarray, tol: float):
        # closed-form preimages where available; None falls back to bisection
        return None

    def inverse(self, y, tol: float = TOL_INV):
        """Preimage of ``y`` under this (non-zero, strictly increasing) gain.

        Leaf gains and compositions invert in closed form; the rest use
        expanding-bracket bisection, halving until the image residual drops
        below ``tol`` relative to the target (steep fractional powers near
        zero need the residual criterion, not a fixed halving count).
        ``inverse(0)`` is exactly ``0``.  Values at or above the supremum of
        a bounded gain raise :class:`OutOfRange`.

        An array target inverts entry by entry: where no entry raises,
        ``inverse(y)[k]`` has the bits of ``inverse(float(y[k]))``.  Each
        entry stops bisecting after the round that meets its own stop rule,
        and a composition bisects only the entries its stagewise preimage
        misses.
        """
        sup = self.sup()
        if sup == 0.0:
            raise OutOfRange("the zero gain has no inverse", sup=0.0, value=None)
        y_arr = np.asarray(y, dtype=float)
        scalar = y_arr.ndim == 0
        y_arr = np.atleast_1d(y_arr)
        if np.any(y_arr < 0):
            raise ValueError("inversion targets live on the nonnegative half line")
        if np.any(y_arr >= sup):
            bad = float(np.max(y_arr))
            raise OutOfRange(
                f"cannot invert at {bad:.6g}: gain is bounded by sup = {sup:.6g}",
                sup=sup, value=bad,
            )
        root = self._inverse_exact(y_arr, tol)
        if root is None:
            root = self._bisect(y_arr, tol, sup)
        root = np.where(y_arr == 0.0, 0.0, root)
        return float(root[0]) if scalar else root

    def _bisect(self, y_arr: np.ndarray, tol: float, sup: float) -> np.ndarray:
        lo = np.zeros_like(y_arr)
        hi = np.ones_like(y_arr)
        doublings = 0
        while np.any(self._eval(hi) < y_arr):
            hi = np.where(self._eval(hi) < y_arr, hi * 2.0, hi)
            doublings += 1
            if doublings > 1100:  # cannot happen below sup; guards float overflow
                raise OutOfRange("bracket expansion exhausted", sup=sup,
                                 value=float(np.max(y_arr)))
        goal = tol * np.where(y_arr > 0.0, y_arr, 1.0)
        root = np.zeros_like(y_arr)
        idx = np.arange(y_arr.size)
        best = np.zeros_like(y_arr)
        best_res = y_arr.copy()
        for _ in range(1200):
            if not idx.size:
                break
            mid = 0.5 * (lo + hi)
            stalled = (mid == lo) | (mid == hi)
            fmid = self._eval(mid)
            res = np.abs(fmid - y_arr)
            improve = res < best_res
            best = np.where(improve, mid, best)
            best_res = np.where(improve, res, best_res)
            below = fmid < y_arr
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            # an entry leaves after the round in which it meets its stop rule
            done = (best_res <= goal) | stalled
            if done.any():
                root[idx[done]] = best[done]
                keep = ~done
                idx, y_arr, goal, lo, hi, best, best_res = (
                    a[keep] for a in (idx, y_arr, goal, lo, hi, best, best_res))
        root[idx] = best
        return root


@dataclass(frozen=True)
class Zero(GainExpr):
    def _eval(self, s):
        return np.zeros_like(s)

    def slope_at_zero(self):
        return 0.0

    def sup(self):
        return 0.0


@dataclass(frozen=True)
class Linear(GainExpr):
    slope: float

    def __post_init__(self):
        if not self.slope > 0:
            raise ValueError("linear gain requires a positive slope")

    def _eval(self, s):
        return self.slope * s

    def power_law(self):
        return self.slope, 1.0

    def slope_at_zero(self):
        return self.slope

    def _inverse_exact(self, y_arr, tol):
        return y_arr / self.slope

    def sup(self):
        return math.inf


@dataclass(frozen=True)
class Power(GainExpr):
    coeff: float
    exponent: float

    def __post_init__(self):
        if not (self.coeff > 0 and self.exponent > 0):
            raise ValueError("power gain requires positive coefficient and exponent")

    def _eval(self, s):
        return self.coeff * np.power(s, self.exponent)

    def power_law(self):
        return self.coeff, self.exponent

    def slope_at_zero(self):
        return self.coeff if self.exponent == 1.0 else None

    def _inverse_exact(self, y_arr, tol):
        return np.power(y_arr / self.coeff, 1.0 / self.exponent)

    def sup(self):
        return math.inf


@dataclass(frozen=True)
class Saturating(GainExpr):
    """``c*s/(1+s)``: strictly increasing, bounded by ``c``."""

    coeff: float

    def __post_init__(self):
        if not self.coeff > 0:
            raise ValueError("saturating gain requires a positive coefficient")

    def _eval(self, s):
        return self.coeff * s / (1.0 + s)

    def slope_at_zero(self):
        return self.coeff

    def _inverse_exact(self, y_arr, tol):
        return y_arr / (self.coeff - y_arr)

    def sup(self):
        return self.coeff


@dataclass(frozen=True)
class Atan(GainExpr):
    """``c*atan(s)``: strictly increasing, bounded by ``c*pi/2``."""

    coeff: float

    def __post_init__(self):
        if not self.coeff > 0:
            raise ValueError("atan gain requires a positive coefficient")

    def _eval(self, s):
        return self.coeff * np.arctan(s)

    def slope_at_zero(self):
        return self.coeff

    def _inverse_exact(self, y_arr, tol):
        return np.tan(y_arr / self.coeff)

    def sup(self):
        return self.coeff * math.pi / 2.0


def same_exponent(a: float, b: float) -> bool:
    """Whether two power-law exponents agree up to float rounding."""
    return abs(a - b) <= EXPONENT_TOL * max(a, b)


@dataclass(frozen=True)
class _Fold(GainExpr):
    """Children folded by ``_op``; coefficients and suprema combine by ``_combine``."""

    children: tuple[GainExpr, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError(f"{self._name} needs at least two children")
        object.__setattr__(self, "children", tuple(self.children))

    def _eval(self, s):
        out = self.children[0]._eval(s)
        for child in self.children[1:]:
            out = self._op(out, child._eval(s))
        return out

    def power_law(self):
        # (combined coefficients, q) when every child is c*s^q with one q
        laws = [c.power_law() for c in self.children]
        if None in laws or not all(same_exponent(q, laws[0][1]) for _c, q in laws):
            return None
        return self._combine(c for c, _q in laws), laws[0][1]

    def slope_at_zero(self):
        slopes = [c.slope_at_zero() for c in self.children]
        return None if None in slopes else self._combine(slopes)

    def sup(self):
        return self._combine(c.sup() for c in self.children)


class Sum(_Fold):
    _name = "sum"
    _op = staticmethod(operator.add)
    _combine = staticmethod(sum)


class Max(_Fold):
    _name = "max"
    _op = staticmethod(np.maximum)
    _combine = staticmethod(max)


@dataclass(frozen=True)
class Compose(GainExpr):
    """``outer(inner(s))``; class K-infinity only when both factors are."""

    outer: GainExpr
    inner: GainExpr

    def _eval(self, s):
        return self.outer._eval(self.inner._eval(s))

    def power_law(self):
        outer, inner = self.outer.power_law(), self.inner.power_law()
        if None in (outer, inner):
            return None
        return outer[0] * inner[0] ** outer[1], outer[1] * inner[1]  # c1 (c2 s^q2)^q1

    def slope_at_zero(self):
        outer, inner = self.outer.slope_at_zero(), self.inner.slope_at_zero()
        return None if None in (outer, inner) else outer * inner

    def _inverse_exact(self, y_arr, tol):
        # stagewise preimage at tightened tolerance; verified against the
        # composite because stage errors compound through the chain, and
        # bisected only on the entries where it misses
        tight = tol / 64.0
        try:
            mid = np.atleast_1d(self.outer.inverse(y_arr, tight))
        except OutOfRange:
            return None
        inner_sup = self.inner.sup()
        if math.isfinite(inner_sup):
            # rounding guard: the outer preimage may graze the inner supremum
            mid = np.minimum(mid, inner_sup * (1.0 - 1e-15))
        cand = np.atleast_1d(self.inner.inverse(mid, tight))
        res = np.abs(self._eval(cand) - y_arr)
        goal = tol * np.where(y_arr > 0.0, y_arr, 1.0)
        miss = ~((res <= goal) | (y_arr == 0.0))
        if miss.any():
            cand = np.array(cand)
            cand[miss] = self._bisect(y_arr[miss], tol, self.sup())
        return cand

    def sup(self):
        outer_sup, inner_sup = self.outer.sup(), self.inner.sup()
        if outer_sup == 0.0 or inner_sup == 0.0:
            return 0.0
        if inner_sup == math.inf:
            return outer_sup
        return float(self.outer._eval(np.asarray(inner_sup, dtype=float)))


@dataclass(frozen=True)
class PlusId(GainExpr):
    """``s + inner(s)``: dominates the identity, hence class K-infinity."""

    inner: GainExpr

    def _eval(self, s):
        return s + self.inner._eval(s)

    def power_law(self):
        law = self.inner.power_law()
        return (1.0 + law[0], 1.0) if law and same_exponent(law[1], 1.0) else None

    def slope_at_zero(self):
        c = self.inner.slope_at_zero()
        return None if c is None else 1.0 + c

    def sup(self):
        return math.inf


# ---------------------------------------------------------------------------
# Monotone aggregations


@dataclass(frozen=True)
class Maf:
    """Base class for per-row monotone aggregations.

    ``aggregate`` maps the row's internal slot values (shape ``(..., n)``)
    and the external slot value (shape ``(...,)``) to the row output.  Every
    variant vanishes at the origin and is monotone; ``check_active`` audits
    strict monotonicity over a given set of active slots.
    """

    def aggregate(self, internal: np.ndarray, ext: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_active(self, active: tuple[int, ...], n: int) -> None:
        """Raise :class:`CompatibilityError` unless strictly increasing on ``active``."""
        raise NotImplementedError


@dataclass(frozen=True)
class SumAgg(Maf):
    def aggregate(self, internal, ext):
        return internal.sum(axis=-1) + ext

    def check_active(self, active, n):
        pass  # the sum is strictly increasing in every slot


@dataclass(frozen=True)
class MaxAgg(Maf):
    def aggregate(self, internal, ext):
        return np.maximum(internal.max(axis=-1), ext) if internal.shape[-1] else ext

    def check_active(self, active, n):
        pass  # restricted to active slots (others pinned at zero) the max is strict


@dataclass(frozen=True)
class OuterSum(Maf):
    """``rho`` applied around the slot sum.

    With ``external_in_sum`` the external slot joins the sum before ``rho``
    (squared-sum aggregations of diffusively coupled linear blocks); without
    it the external slot is added after ``rho`` (neural-network aggregations
    where the external channel carries its own transform, folded into the
    external gain).
    """

    rho: GainExpr
    external_in_sum: bool = True

    def aggregate(self, internal, ext):
        inner = internal.sum(axis=-1)
        if self.external_in_sum:
            return self.rho._eval(inner + ext)
        return self.rho._eval(inner) + ext

    def check_active(self, active, n):
        if self.rho.classify() is not GainClass.K_INFINITY:
            raise CompatibilityError(
                "outer-sum aggregation needs an unbounded strictly increasing wrapper"
            )


@dataclass(frozen=True)
class BlockMaxSum(Maf):
    """Sum over blocks of the within-block maximum; external slot added on top."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise CompatibilityError("empty block in block-max-sum aggregation")
            for idx in block:
                if idx in seen:
                    raise CompatibilityError("overlapping blocks in block-max-sum aggregation")
                seen.add(idx)

    def aggregate(self, internal, ext):
        total = np.zeros(internal.shape[:-1])
        for block in self.blocks:
            total = total + internal[..., list(block)].max(axis=-1)
        return total + ext

    def check_active(self, active, n):
        covered = {idx for block in self.blocks for idx in block}
        if any(idx >= n or idx < 0 for idx in covered):
            raise CompatibilityError("block-max-sum indices out of range")
        missing = [idx for idx in active if idx not in covered]
        if missing:
            raise CompatibilityError(
                f"block-max-sum aggregation ignores active gain slots {missing}"
            )


# ---------------------------------------------------------------------------
# Gain networks


@dataclass(frozen=True)
class GainNetwork:
    """Interconnection gains, external gains, and per-row aggregations.

    ``gamma[i][j]`` is the gain from subsystem j into subsystem i (zero on
    the diagonal), ``gamma_u[i]`` the gain from the external input into row
    i, and ``mu[i]`` the row's aggregation.  Construction validates shapes,
    the zero diagonal, and aggregation compatibility with each row's active
    slot set; a failed audit's error names the row.
    """

    n: int
    gamma: tuple[tuple[GainExpr, ...], ...]
    gamma_u: tuple[GainExpr, ...]
    mu: tuple[Maf, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("network needs at least one subsystem")
        gamma = tuple(tuple(row) for row in self.gamma)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_u", tuple(self.gamma_u))
        object.__setattr__(self, "mu", tuple(self.mu))
        if len(gamma) != self.n or any(len(row) != self.n for row in gamma):
            raise ValueError("gain matrix must be n by n")
        if len(self.gamma_u) != self.n or len(self.mu) != self.n:
            raise ValueError("external gains and aggregations must have length n")
        for i in range(self.n):
            if not gamma[i][i].is_zero:
                raise CompatibilityError(
                    f"diagonal gain ({i},{i}) must be the zero gain", row=i)
            try:
                self.mu[i].check_active(self.active_sets[i], self.n)
            except CompatibilityError as exc:
                raise CompatibilityError(f"row {i}: {exc}", row=i) from exc

    @cached_property
    def active_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the columns whose gain is not the zero gain."""
        return tuple(
            tuple(j for j, g in enumerate(row) if not g.is_zero) for row in self.gamma
        )

    @cached_property
    def ext_active(self) -> tuple[bool, ...]:
        """Per row, whether the external gain is not the zero gain."""
        return tuple(not g.is_zero for g in self.gamma_u)

    @property
    def power_form(self):
        """``(p, G, rows, C)``: per-node exponents, the matrix ``G`` when the
        conjugate is linear, per row ``(k_i, e_i, not max)`` and the gain
        coefficients ``c_ij``, as read-only arrays.

        Read once per network (:meth:`_read_power_form`); a failed read keeps
        its message, and every access raises a fresh
        :class:`CompatibilityError`.
        """
        form, failure = self._power_form
        if failure is not None:
            raise CompatibilityError(failure)
        return form

    @cached_property
    def _power_form(self):
        try:
            return self._read_power_form(), None
        except CompatibilityError as exc:
            return None, str(exc)

    def _read_power_form(self):
        """:attr:`power_form`, read from the rows and gains.

        With sum, max or power-of-sum rows ``k_i A_i(...)^e_i`` and gains
        ``c_ij s^q_ij``, ``T(t) = Gamma_mu(t^p)^(1/p)`` is homogeneous
        of degree one iff ``e_i q_ij = p_i / p_j`` on every gain.  ``p`` is
        solved on a spanning forest of the undirected graph, each root keeping
        ``p = e``, then checked on every gain (else :class:`CompatibilityError`).
        With sum rows and ``p = e``, ``T(t) = G t`` for
        ``G_ij = k_i^(1/e_i) c_ij``; else ``G`` is None.
        """
        rows = []
        for mu in self.mu:
            law = (1.0, 1.0) if isinstance(mu, (SumAgg, MaxAgg)) else (
                mu.rho.power_law() if isinstance(mu, OuterSum) else None)
            if law is None:
                raise CompatibilityError(
                    "row aggregation is not a sum, max or power-of-sum")
            rows.append((*law, not isinstance(mu, MaxAgg)))
        e = np.array([row[1] for row in rows])
        laws, nbrs = {}, [[] for _ in range(self.n)]
        for i, cols in enumerate(self.active_sets):
            for j in cols:
                laws[i, j] = self.gamma[i][j].power_law()
                if laws[i, j] is None:
                    raise CompatibilityError(f"gain ({i + 1},{j + 1}) is not c*s^q")
                nbrs[i].append(j)
                nbrs[j].append(i)
        p = np.zeros(self.n)
        for root in range(self.n):
            if p[root]:
                continue
            p[root], stack = e[root], [root]
            while stack:
                k = stack.pop()
                for m in nbrs[k]:
                    if not p[m]:
                        # p_i = e_i q_ij p_j along the gain j -> i, read either way
                        p[m] = (e[m] * laws[m, k][1] * p[k] if (m, k) in laws
                                else p[k] / (e[k] * laws[k, m][1]))
                        stack.append(m)
        C = np.zeros((self.n, self.n))
        for (i, j), (c, q) in laws.items():
            if not same_exponent(e[i] * q, p[i] / p[j]):
                raise CompatibilityError(
                    f"gain ({i + 1},{j + 1}) breaks every per-node power change")
            C[i, j] = c
        G = None
        if all(row[2] and same_exponent(a, b) for row, a, b in zip(rows, p, e)):
            G = np.array([[k ** (1.0 / ei)] for (k, _e, _s), ei in zip(rows, e)]) * C
            G.setflags(write=False)
        p.setflags(write=False)
        C.setflags(write=False)
        return p, G, tuple(rows), C

    @cached_property
    def majorant(self) -> GainNetwork | None:
        """The slope majorant ``L``: gain ``(i, j)`` replaced by
        ``Linear(k_i c_ij)`` for its :meth:`GainExpr.slope_at_zero` ``c_ij``,
        no external gains.  Sum and max rows stay (``k_i = 1``); an outer-sum
        row ``rho(sum_j g_ij)`` becomes a sum row with ``k_i`` the slope of
        ``rho``, and a block-max-sum row a sum row (``k_i = 1``).

        ``Gamma_mu <= L`` on the whole orthant: ``rho`` is increasing with
        ``rho(x) <= k_i x``, and a block's maximum is at most its sum.
        ``Gamma_mu(t v) = t L(v) + o(t)`` at zero on every row but a
        block-max-sum row, whose ``L`` is only an upper bound there.  None
        when a row is an outer sum whose wrapper has no finite positive
        slope, or an active gain has none.
        """
        zero = Zero()
        gamma = [[zero] * self.n for _ in range(self.n)]
        for i, (cols, mu) in enumerate(zip(self.active_sets, self.mu)):
            k = mu.rho.slope_at_zero() if isinstance(mu, OuterSum) else 1.0
            for j in cols:
                c = self.gamma[i][j].slope_at_zero()
                # a nonzero gain has a positive slope unless it under- or overflowed
                if c is None or k is None or not 0.0 < k * c < math.inf:
                    return None
                gamma[i][j] = Linear(k * c)
        rows = tuple(mu if isinstance(mu, MaxAgg) else SumAgg() for mu in self.mu)
        return GainNetwork(self.n, gamma, (zero,) * self.n, rows)


def eval_operator_ext(net: GainNetwork, s, r):
    """Row-wise aggregation of internal gains at ``s`` and external gain at ``r``."""
    states = _as_float_array(s)
    ext = _as_float_array(r)
    squeeze = states.ndim == 1
    states = np.atleast_2d(states)
    ext = np.broadcast_to(np.atleast_1d(ext), states.shape[:-1])
    if states.shape[-1] != net.n:
        raise ValueError(f"state vector must have length {net.n}")
    # A max row folds its active columns into its external slot: max does
    # not depend on order, and the zero slots it skips never exceed a gain
    # of a nonnegative argument.  The other rows share one slot array, since
    # their sums depend on the slot positions: each fills its active columns,
    # aggregates, and puts them back to zero for the next row.  The image
    # keeps the memory order of the states, so an iteration on column-major
    # states reads each column contiguously.
    slots = np.zeros(states.shape)
    zero_ext = np.zeros(ext.shape)
    out = np.empty_like(states)
    for i, cols in enumerate(net.active_sets):
        row = net.gamma[i]
        ext_slot = net.gamma_u[i]._eval(ext) if net.ext_active[i] else zero_ext
        if isinstance(net.mu[i], MaxAgg):
            for j in cols:
                ext_slot = np.maximum(ext_slot, row[j]._eval(states[..., j]))
            out[..., i] = ext_slot
            continue
        for j in cols:
            slots[..., j] = row[j]._eval(states[..., j])
        out[..., i] = net.mu[i].aggregate(slots, ext_slot)
        for j in cols:
            slots[..., j] = 0.0
    return out[0] if squeeze else out


def eval_operator(net: GainNetwork, s):
    """Internal gain operator: external channel pinned at zero."""
    return eval_operator_ext(net, s, 0.0)


def _strictly_less_rows(a, b) -> np.ndarray:
    """Per row of the last axis, whether ``a < b`` as :func:`strictly_less` reads it."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    below = a_arr <= b_arr - TOL_STRICT * np.maximum(1.0, b_arr)
    return below.all(axis=-1) if below.ndim else below


def strictly_less(a, b) -> bool:
    """Componentwise ``a < b`` with relative slack ``TOL_STRICT*max(1, b)``."""
    return bool(np.all(_strictly_less_rows(a, b)))


def zero_rows(net: GainNetwork) -> tuple[int, ...]:
    """Rows with no active internal gain slot."""
    return tuple(i for i, cols in enumerate(net.active_sets) if not cols)

