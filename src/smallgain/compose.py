"""Composition of subsystem energies into a network certificate.

The composite function is ``V(x) = max_i sigma_i^{-1}(V_i(x_i))`` for a
decay path ``sigma``.  Alongside the path, a scalar budget map ``phi``
bounds the external input magnitude for which the decrease property is
guaranteed at each level: ``Gamma_ext(sigma(r), phi(r)) < sigma(r)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import GeneralCondFails, OutOfRange
from .gains import GainExpr, GainNetwork, MaxAgg, OuterSum, eval_operator
from .paths import VALIDATION_GRID, OmegaPath, construct_path, path_margins


@dataclass(frozen=True)
class SubsystemSpec:
    """State dimension and energy hook of one subsystem.

    ``V`` is batched: it maps an ``(m, dim)`` array of state slices, one
    per row, to the ``(m,)`` array of their nonnegative energies, with
    ``V(0) = 0``; ``name`` labels the subsystem.
    """

    dim: int
    V: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("subsystem dimension must be positive")


def _audit_subsystem(spec: SubsystemSpec, index: int) -> None:
    # one batched call on the origin and a seeded sample: the shape must
    # follow the contract, V(0) = 0 exactly, and V > 0 on every sample
    rng = np.random.default_rng(1234 + index)
    X = np.zeros((101, spec.dim))
    X[1:] = rng.normal(size=(100, spec.dim)) * 10.0 ** rng.uniform(-3, 2, (100, 1))
    contract = (f"subsystem {index}: energy must map an (m, {spec.dim}) batch "
                f"of states to shape (m,)")
    try:
        v = np.asarray(spec.V(X), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{contract}; it raised {exc!r}") from exc
    if v.shape != (len(X),):
        raise ValueError(f"{contract}, got shape {v.shape}")
    if v[0] != 0.0:
        raise ValueError(
            f"subsystem {index}: energy must vanish at the origin, got {v[0]:.3g}"
        )
    bad = np.flatnonzero(~(v[1:] > 0.0))
    if bad.size:
        raise ValueError(
            f"subsystem {index}: energy is not positive definite at {X[1 + bad[0]]}"
        )


@dataclass(frozen=True)
class PLFunction:
    """Scalar nondecreasing piecewise-linear map with ``f(0) = 0``.

    Used for external budget maps: between anchors the interpolant is the
    chord, beyond the last anchor the final slope continues (possibly zero,
    in which case the map is bounded).  Inversion stops at the last anchor
    value: past it the final chord is no bound on a concave budget map, so
    a higher level raises :class:`OutOfRange`.
    """

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape:
            raise ValueError("anchor radii and values are inconsistent")
        if radii[0] != 0.0 or values[0] != 0.0:
            raise ValueError("budget maps start at the origin")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("anchor radii must increase strictly")
        if np.any(np.diff(values) < 0):
            raise ValueError("budget maps must be nondecreasing")
        radii.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    @property
    def tail_slope(self) -> float:
        return float(
            (self.values[-1] - self.values[-2]) / (self.radii[-1] - self.radii[-2])
        )

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        scalar = rr.ndim == 0
        rr = np.atleast_1d(rr)
        out = np.interp(rr, self.radii, self.values)
        beyond = rr > self.radii[-1]
        if np.any(beyond):
            out[beyond] = self.values[-1] + self.tail_slope * (rr[beyond] - self.radii[-1])
        return float(out[0]) if scalar else out

    def inverse(self, y):
        """Smallest radius reaching level ``y`` (flat stretches resolve left)."""
        yy = float(y)
        if yy < 0:
            raise ValueError("budget levels live on the nonnegative half line")
        vals = self.values
        if yy > vals[-1]:
            if self.tail_slope <= 0:
                msg = f"budget map is bounded by {vals[-1]:.6g}; level {yy:.6g} unreachable"
            else:
                msg = (f"budget map is certified up to {vals[-1]:.6g} (radius "
                       f"{self.radii[-1]:.6g}); level {yy:.6g} lies past its last anchor")
            raise OutOfRange(msg, sup=float(vals[-1]), value=yy)
        idx = int(np.searchsorted(vals, yy, side="left"))
        if vals[idx] == yy:
            return float(self.radii[idx])
        r0, r1 = self.radii[idx - 1], self.radii[idx]
        v0, v1 = vals[idx - 1], vals[idx]
        return float(r0 + (yy - v0) * (r1 - r0) / (v1 - v0))


def _ext_budget(mu, level: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Largest external slot value keeping a row at or below its midpoint.

    ``level`` holds the row image per radius, its aggregation with the
    external slot at zero, and ``state`` the path value ``sigma_i``.  The
    row keeps half of its path margin: its target is the midpoint
    ``state - 0.5 (state - level)``.  A row adding the slot on top (sum,
    block-max-sum, or an outer sum with the slot after its wrapper) has
    room for ``target - level``; a max row takes the slot up to ``target``;
    an outer sum with the slot inside its wrapper has room for the
    wrapper-preimage gap ``rho^-1(target) - rho^-1(level)``.  Either way
    the budget is zero where the level alone passes the target.
    """
    target = state - 0.5 * (state - level)
    if isinstance(mu, MaxAgg):
        return np.where(level <= target, target, 0.0)
    if isinstance(mu, OuterSum) and mu.external_in_sum:
        return np.maximum(mu.rho.inverse(target) - mu.rho.inverse(level), 0.0)
    return np.maximum(target - level, 0.0)


def _capped_inverse(g: GainExpr, levels: np.ndarray) -> np.ndarray:
    """Componentwise preimages; levels at or beyond the supremum map to inf."""
    sup = g.sup()
    out = np.full_like(levels, np.inf)
    finite = np.isfinite(levels)
    mask = finite & (levels < sup * (1.0 - 1e-12))
    if np.any(mask):
        out[mask] = g.inverse(levels[mask])
    return out


def derive_phi(net: GainNetwork, sigma: OmegaPath) -> PLFunction:
    """Budget map that leaves each input-fed row half of its path margin.

    At each anchor of the path, an input-fed row takes the largest external
    slot that keeps it at or below the midpoint between its image
    ``Gamma_i(sigma(r))`` and ``sigma_i(r)`` (:func:`_ext_budget`).
    The budget is the smallest preimage of these slots under the external
    gains, capped by the identity, then flattened right-to-left into a
    nondecreasing envelope (the conservative choice between anchors).
    Without external gains the budget map is the identity.  Past the last
    anchor the budget follows the final chord, and its inverse stops there.
    This is the only budget map a certificate gets, whatever route built
    the path.
    """
    states = sigma.values[1:]
    image = eval_operator(net, states)
    caps = sigma.radii[1:].copy()
    for i in range(net.n):
        if net.ext_active[i]:
            budget = _ext_budget(net.mu[i], image[:, i], states[:, i])
            caps = np.minimum(caps, _capped_inverse(net.gamma_u[i], budget))
    caps = np.minimum.accumulate(caps[::-1])[::-1]
    return PLFunction(sigma.radii, np.concatenate([[0.0], caps]))


@dataclass(frozen=True)
class CompositeLyapunov:
    """Validated certificate: path, budget map, and subsystem energies.

    ``margins`` are the checked margins on :data:`VALIDATION_GRID`;
    ``route`` names the path constructor :func:`certify` ran.
    """

    net: GainNetwork
    sigma: OmegaPath
    phi: PLFunction
    subsystems: tuple[SubsystemSpec, ...]
    margins: np.ndarray
    route: str | None = None

    @property
    def offsets(self) -> tuple[int, ...]:
        out = []
        pos = 0
        for spec in self.subsystems:
            out.append(pos)
            pos += spec.dim
        return tuple(out)

    @property
    def state_dim(self) -> int:
        return sum(spec.dim for spec in self.subsystems)

    def eval_V(self, x) -> tuple[float, tuple[int, ...]]:
        """Composite value and the set of active (maximizing) indices.

        Ties resolve to every index within ``1e-12`` relative of the max;
        the path inverse takes the left segment at anchor values.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.state_dim,):
            raise ValueError(f"state vector must have length {self.state_dim}")
        scaled = self._levels(x[None, :])[:, 0]
        vmax = float(scaled.max())
        tol = 1e-12 * max(1.0, vmax)
        active = tuple(i for i in range(len(scaled))
                       if abs(scaled[i] - vmax) <= tol)
        return vmax, active

    def eval_V_batch(self, X) -> np.ndarray:
        """Composite values along a batch of states, shape ``(m, dim)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._levels(X).max(axis=0)

    def _levels(self, X: np.ndarray) -> np.ndarray:
        """Rescaled energies ``sigma_i^{-1}(V_i(x_i))`` of ``m`` states,
        shape ``(n, m)``: one row per subsystem, so the maximum over the
        subsystems reduces the outer axis, far cheaper than a reduction
        over a short inner axis or a transposed view."""
        rows = np.empty((len(self.subsystems), X.shape[0]))
        for i, (spec, off) in enumerate(zip(self.subsystems, self.offsets)):
            vi = spec.V(X[:, off:off + spec.dim])
            rows[i] = self.sigma.inverse(i, np.maximum(vi, 0.0))
        return rows

    def iss_threshold(self, u_norm: float) -> float:
        """Level below which the certificate guarantees eventual decay.

        Zero when the network has no external gains; raises
        :class:`OutOfRange` when the requested input magnitude lies past the
        budget map's last anchor value (the certified input range).
        """
        u = float(u_norm)
        if u < 0:
            raise ValueError("input magnitudes are nonnegative")
        if u == 0.0 or not any(self.net.ext_active):
            return 0.0
        return float(self.phi.inverse(u))


def compose(net: GainNetwork, sigma: OmegaPath, subsystems=()) -> CompositeLyapunov:
    """Assemble and check a composite certificate.

    ``subsystems`` is empty for a network given by its gains alone.  The
    budget map is derived from the path (:func:`derive_phi`).  The extended
    operator inequality is checked at 1000 log-spaced radii; a failure
    reports the smallest margin and the first failing radius.
    """
    if not isinstance(sigma, OmegaPath):
        raise TypeError("sigma must be a decay path")
    subsystems = tuple(subsystems)
    if subsystems and len(subsystems) != net.n:
        raise ValueError(f"need {net.n} subsystem specs, got {len(subsystems)}")
    for i, spec in enumerate(subsystems):
        _audit_subsystem(spec, i)
    phi = derive_phi(net, sigma)
    margins = path_margins(net, sigma, VALIDATION_GRID, phi)[1]
    bad = margins.min(axis=1) <= 0.0
    if np.any(bad):
        worst = float(margins.min())
        radius = float(VALIDATION_GRID[int(np.argmax(bad))])
        raise GeneralCondFails(f"margin {worst:.6g} at radius {radius:.6g}",
                               radius=radius)
    return CompositeLyapunov(net=net, sigma=sigma, phi=phi,
                             subsystems=subsystems, margins=margins)


def certify(net: GainNetwork, subsystems=(), *, seed: int = 0) -> CompositeLyapunov:
    """The network certificate: :func:`construct_path`, then :func:`compose`,
    which derives the budget map from the path (:func:`derive_phi`).

    ``construct_path`` runs :func:`sgc.decide` first, so a network that it
    refutes raises :class:`SgcFails` with decide's verdict and gets no
    certificate; the path is built on the proof decide found, if any.
    """
    res = construct_path(net, seed=seed)
    cl = compose(net, res.sigma, subsystems)
    return replace(cl, route=res.route)
