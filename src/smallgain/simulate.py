"""Worked example families, fixed-step simulation, and empirical checks.

Two built-in model families mirror the library's gain constructions: a
bank of diffusively coupled linear blocks with quadratic subsystem
energies, and a recurrent neural population with amplification bounds
and saturating activations, using the absolute value as the subsystem
energy.  A classical fixed-step RK4 integrator produces trajectories,
and two report-style checks probe a composite certificate against the
simulated dynamics: pointwise decrease of the composite function above
its input threshold, and trajectory-level decay and boundedness.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .compose import CompositeLyapunov, SubsystemSpec
from .errors import BadParameters, Diverged, NotHurwitz, TooLarge
from .gains import (
    Compose,
    GainNetwork,
    Linear,
    OuterSum,
    Power,
    Saturating,
    Zero,
)
from .paths import write_csv

DIVERGENCE_GUARD = 1e12
# RK4 steps stored between two checks of the divergence guard
RK4_BLOCK = 64
MAX_LYAP_DIM = 20
LYAP_RESIDUAL_TOL = 1e-8
# the empirical checks' tolerances: see check_decrease and check_iss_bound
DECREASE_RADII = (1e-3, 1e3)
THRESHOLD_GUARD = 0.05
DRIFT_TOL = 1e-8
CONTRACTION = 1e-3
SETTLE_FACTOR = 1.1
SETTLE_FRACTION = 0.25


def solve_lyapunov_eq(A, Q) -> np.ndarray:
    """Symmetric positive definite P with ``A'P + PA = -Q``.

    Solved as one dense linear system in the stacked entries of P, which
    caps the block dimension at a desk scale.  The Hurwitz requirement on
    A is validated after the fact: a singular system, a large residual,
    or an indefinite P all reject the block.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("state matrix must be square")
    if Q.shape != A.shape:
        raise ValueError("weight matrix must match the state matrix shape")
    d = A.shape[0]
    if d > MAX_LYAP_DIM:
        raise TooLarge(f"block dimension {d} above the dense-solve limit")
    if float(np.max(np.abs(Q - Q.T))) > 1e-12 * (1.0 + float(np.max(np.abs(Q)))):
        raise BadParameters("weight matrix must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise BadParameters("weight matrix must be positive definite")
    # row-major stacking: vec(A'P) = (A' (x) I) vec(P), vec(PA) = (I (x) A') vec(P)
    eye = np.eye(d)
    M = np.kron(A.T, eye) + np.kron(eye, A.T)
    try:
        p = np.linalg.solve(M, -Q.reshape(-1))
    except np.linalg.LinAlgError:
        raise NotHurwitz("Lyapunov system is singular")
    P = p.reshape(d, d)
    P = 0.5 * (P + P.T)
    residual = float(np.max(np.abs(A.T @ P + P @ A + Q)))
    if residual > LYAP_RESIDUAL_TOL:
        raise NotHurwitz(f"Lyapunov residual {residual:.3g} too large")
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise NotHurwitz("Lyapunov solution is not positive definite")
    return P


# ---------------------------------------------------------------------------
# Model families


@dataclass(frozen=True, eq=False)
class LinearBlock:
    """Diffusively coupled linear blocks sharing one input channel bank.

    ``A`` lists the square state matrices, ``delta`` maps off-diagonal
    pairs ``(i, j)`` to coupling matrices, and ``B`` lists per-block input
    matrices (None for unforced blocks).  All input matrices must agree
    on the channel count.
    """

    A: tuple
    delta: dict
    B: tuple

    def __post_init__(self):
        A = tuple(np.atleast_2d(np.asarray(a, dtype=float)) for a in self.A)
        if not A:
            raise BadParameters("at least one block is required")
        for a in A:
            if a.shape[0] != a.shape[1]:
                raise BadParameters("state matrices must be square")
        dims = tuple(a.shape[0] for a in A)
        offsets = np.concatenate([[0], np.cumsum(dims)])
        n = len(A)
        delta = {}
        for (i, j), m in dict(self.delta or {}).items():
            if i == j:
                raise BadParameters("self coupling belongs in the state matrix")
            if not (0 <= i < n and 0 <= j < n):
                raise BadParameters(f"coupling index ({i}, {j}) out of range")
            m = np.atleast_2d(np.asarray(m, dtype=float))
            if m.shape != (dims[i], dims[j]):
                raise BadParameters(f"coupling ({i}, {j}) has shape {m.shape}")
            delta[(i, j)] = m
        B = list(self.B) if self.B else [None] * n
        if len(B) != n:
            raise BadParameters("one input matrix per block (None allowed)")
        width = 0
        for b in B:
            if b is None:
                continue
            b = np.atleast_2d(np.asarray(b, dtype=float))
            if width and b.shape[1] != width:
                raise BadParameters("input matrices must agree on channel count")
            width = b.shape[1]
        Bn = []
        for i, b in enumerate(B):
            if b is None:
                Bn.append(np.zeros((dims[i], width)))
            else:
                b = np.atleast_2d(np.asarray(b, dtype=float))
                if b.shape != (dims[i], width):
                    raise BadParameters(f"block {i} input matrix has shape {b.shape}")
                Bn.append(b)
        N = int(offsets[-1])
        drift = np.zeros((N, N))
        for i in range(n):
            sl = slice(offsets[i], offsets[i + 1])
            drift[sl, sl] = A[i]
        for (i, j), m in delta.items():
            drift[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = m
        gain = np.vstack(Bn) if N else np.zeros((0, width))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "B", tuple(Bn))
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_offsets", tuple(int(o) for o in offsets))
        object.__setattr__(self, "_drift", drift)
        object.__setattr__(self, "_gain", gain)

    @property
    def n_blocks(self) -> int:
        return len(self.A)

    @property
    def dims(self) -> tuple:
        return self._dims

    @property
    def state_dim(self) -> int:
        return self._offsets[-1]

    @property
    def input_dim(self) -> int:
        return self._gain.shape[1]

    def f(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return x @ self._drift.T + u @ self._gain.T

    def _rk4_kernel(self, states, U0, Um, U1, dt: float):
        """Steps ``start`` to ``stop`` of :func:`_rk4` in closed form.

        The bank is affine in state and input, so one step is ``X @ S +
        C[k]``: ``S`` is the step of the unit states without input, and row
        ``k`` of ``C[g]`` the step of the zero state under group g's input
        of step k, both from :func:`_rk4_step`.  ``j`` steps from ``s`` are
        then ``X_s @ S^j + E_j``, with ``E_j = sum_{i<j} C[s+i] S^(j-1-i)``
        made by a doubling scan over the block.  The powers ``S^j``, ``j <=
        RK4_BLOCK``, are tabled once per run, and one matmul of ``[X_s, 1]``
        by ``[[S^j], [E_j]]`` writes a block of states for every group.  A
        sub-block ends before the first power with an entry past the
        divergence guard (or after one step, if ``S`` is), so a state the
        guard has not flagged never meets an infinite power (``0 * inf``
        would turn an exact zero into NaN).
        """
        N = self.state_dim
        G, rows = states.shape[1:3]
        zero = np.zeros(self.input_dim)
        S = _rk4_step(self, np.eye(N), zero, zero, zero, dt)
        C = np.stack([_rk4_step(self, np.zeros((len(U0), N)), U0[:, g], Um[:, g],
                                U1[:, g], dt) for g in range(G)])
        widths = [2 ** i for i in range(RK4_BLOCK.bit_length() - 1)]
        # P[j] = S^j for 1 <= j <= RK4_BLOCK, by doubling
        P = np.empty((RK4_BLOCK + 1, N, N))
        P[1] = S
        with np.errstate(all="ignore"):
            for w in widths:
                np.matmul(P[1:w + 1], P[w], out=P[w + 1:2 * w + 1])
        bounded = (np.abs(P[1:]) <= DIVERGENCE_GUARD).all(axis=(1, 2))
        span = RK4_BLOCK if bounded.all() else max(int(np.argmin(bounded)), 1)
        W = np.empty((G, RK4_BLOCK, N + 1, N))
        W[:, :, :N] = P[1:]
        Xa = np.ones((G, 1, rows, N + 1))

        def advance(start, stop):
            for s in range(start, stop, span):
                E = C[:, s:min(s + span, stop)]
                L = E.shape[1]
                for w in widths:
                    if w < L:
                        E[:, w:] += E[:, :-w] @ P[w]
                W[:, :L, N] = E
                Xa[:, 0, :, :N] = states[s]
                np.matmul(Xa, W[:, :L], out=states[s + 1:s + L + 1].swapaxes(0, 1))

        return advance


@dataclass(frozen=True, eq=False)
class CohenGrossberg:
    """Recurrent neural population with banded amplification.

    Neuron i evolves as ``-a_i(x_i) (b_i(x_i) - sum_j t_ij s_j(x_j) + u_i)``
    where the amplification ``a_i(x) = mid_i + spread_i tanh(x)`` stays
    strictly inside ``(alpha_lo_i, alpha_hi_i)``, the drift is
    ``b_i(x) = b_slope_i x``, and the activation
    ``s_j(x) = x / (1 + act_scale_j |x|)`` stays strictly under the unit
    saturating bound because ``act_scale_j > 1``.
    """

    alpha_lo: np.ndarray
    alpha_hi: np.ndarray
    b_slope: np.ndarray
    t_matrix: np.ndarray
    act_scale: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.alpha_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.alpha_hi, dtype=float))
        bs = np.atleast_1d(np.asarray(self.b_slope, dtype=float))
        ac = np.atleast_1d(np.asarray(self.act_scale, dtype=float))
        T = np.atleast_2d(np.asarray(self.t_matrix, dtype=float))
        n = len(lo)
        if not (len(hi) == len(bs) == len(ac) == n) or T.shape != (n, n):
            raise BadParameters("parameter arrays disagree on the neuron count")
        if not np.all(lo > 0.0) or not np.all(hi > lo):
            raise BadParameters("amplification band must satisfy 0 < lo < hi")
        if not np.all(bs > 0.0):
            raise BadParameters("drift slopes must be positive")
        if not np.all(ac > 1.0):
            raise BadParameters(
                "activation scales must exceed one to stay under the unit bound"
            )
        if np.any(np.diag(T) != 0.0):
            raise BadParameters("self connections are not representable as gains")
        for arr, name in ((lo, "alpha_lo"), (hi, "alpha_hi"), (bs, "b_slope"),
                          (T, "t_matrix"), (ac, "act_scale")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        mid = 0.5 * (lo + hi)
        spread = 0.5 * (hi - lo)
        mid.setflags(write=False)
        spread.setflags(write=False)
        object.__setattr__(self, "_mid", mid)
        object.__setattr__(self, "_spread", spread)

    @property
    def n_neurons(self) -> int:
        return len(self.alpha_lo)

    @property
    def state_dim(self) -> int:
        return len(self.alpha_lo)

    @property
    def input_dim(self) -> int:
        return len(self.alpha_lo)

    def f(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        amp = self._mid + self._spread * np.tanh(x)
        act = x / (1.0 + self.act_scale * np.abs(x))
        return -amp * (self.b_slope * x - act @ self.t_matrix.T + u)

    def _rk4_kernel(self, states, U0, Um, U1, dt: float):
        """Steps ``start`` to ``stop`` of :func:`_rk4`, step k written into
        ``states[k + 1]``.

        Every array is made once per run for the batch shape ``(G, rows, n)``,
        and each step runs on them with ufunc calls that write into them
        (``out`` passed by position).  On arrays this small a broadcast or
        Python-float operand costs more per call than a same-shape array, so
        the parameters are broadcast to the batch shape, the scalars are 0-d
        arrays, and step k's three inputs, one row per signal group, are
        copied into batch-shaped rows in one call.  Each operation and its
        order are those of :func:`_rk4_step` over :meth:`f`, so the steps
        equal the staged ones bit for bit.  Two rewrites are exact: ``-amp``
        is ``(-spread) tanh(x) + (-mid)``, and a single ``+`` or ``*`` may
        swap its operands.
        """
        shape = states.shape[1:]
        add, sub, mul, div, matmul = (np.add, np.subtract, np.multiply, np.divide,
                                      np.matmul)
        tanh, absolute, copyto = np.tanh, np.abs, np.copyto

        def batch(row):
            return np.broadcast_to(row, shape).copy()

        # layer 0 turns tanh(x) into -amp, layer 1 |x| into 1 + act_scale |x|
        coef = np.stack([batch(-self._spread), batch(self.act_scale)])
        base = np.stack([batch(-self._mid), np.ones(shape)])
        slope = batch(self.b_slope)
        t_mat = self.t_matrix.T
        half, full, two, sixth = (np.array(v) for v in (0.5 * dt, dt, 2.0, dt / 6.0))
        inputs = np.stack([U0, Um, U1], axis=1)[..., None, :]
        u_all = np.empty((3,) + shape)
        u0, um, u1 = u_all
        amp_den = np.empty((2,) + shape)
        neg_amp, den = amp_den
        act, inflow, xs, acc, k1, k2, k3, k4 = (np.empty(shape) for _ in range(8))

        def f(x, u, out):
            # -amp * ((b_slope x - act @ T') + u), act = x / (1 + act_scale |x|)
            tanh(x, neg_amp)
            absolute(x, den)
            mul(amp_den, coef, amp_den)
            add(amp_den, base, amp_den)
            div(x, den, act)
            matmul(act, t_mat, inflow)
            mul(slope, x, out)
            sub(out, inflow, out)
            add(out, u, out)
            mul(neg_amp, out, out)

        def stage(x, k, h):
            # the stage input x + h k
            mul(k, h, xs)
            add(x, xs, xs)
            return xs

        def advance(start, stop):
            for k in range(start, stop):
                x = states[k]
                copyto(u_all, inputs[k])
                f(x, u0, k1)
                f(stage(x, k1, half), um, k2)
                f(stage(x, k2, half), um, k3)
                f(stage(x, k3, full), u1, k4)
                # x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
                mul(k2, two, acc)
                add(k1, acc, acc)
                mul(k3, two, xs)
                add(acc, xs, acc)
                add(acc, k4, acc)
                mul(acc, sixth, acc)
                add(x, acc, states[k + 1])

        return advance


# ---------------------------------------------------------------------------
# Input signals and trajectories


@dataclass(frozen=True, eq=False)
class InputSignal:
    """Deterministic input descriptor evaluated on the integration grid."""

    kind: str
    value: np.ndarray
    at: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    times: np.ndarray | None = None
    levels: np.ndarray | None = None

    KINDS = ("constant", "step", "sinusoid", "piecewise")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        v = np.atleast_1d(np.asarray(self.value, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        if self.kind == "piecewise":
            t = np.atleast_1d(np.asarray(self.times, dtype=float))
            lv = np.atleast_2d(np.asarray(self.levels, dtype=float))
            if lv.shape != (len(t), len(v)):
                raise ValueError("piecewise levels must be (segments, channels)")
            if np.any(np.diff(t) <= 0):
                raise ValueError("piecewise times must be strictly increasing")
            t.setflags(write=False)
            lv.setflags(write=False)
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "levels", lv)

    @classmethod
    def zero(cls, m: int) -> "InputSignal":
        return cls(kind="constant", value=np.zeros(max(m, 0)))

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls(kind="constant", value=value)

    @classmethod
    def step(cls, value, at: float = 0.0) -> "InputSignal":
        return cls(kind="step", value=value, at=at)

    @classmethod
    def sinusoid(cls, amplitude, omega: float, phase: float = 0.0) -> "InputSignal":
        return cls(kind="sinusoid", value=amplitude, omega=omega, phase=phase)

    @classmethod
    def piecewise(cls, times, levels) -> "InputSignal":
        lv = np.atleast_2d(np.asarray(levels, dtype=float))
        return cls(kind="piecewise", value=lv[0], times=times, levels=lv)

    @property
    def dim(self) -> int:
        return len(self.value)

    def __call__(self, t) -> np.ndarray:
        """Input at time ``t``, shape ``(channels,)``, or at a 1-D array of
        ``k`` times, shape ``(k, channels)``."""
        tt = np.asarray(t, dtype=float)
        times = np.atleast_1d(tt)
        if self.kind == "constant":
            out = np.repeat(self.value[None, :], len(times), axis=0)
        elif self.kind == "step":
            out = np.where((times >= self.at)[:, None], self.value, 0.0)
        elif self.kind == "sinusoid":
            out = self.value * np.sin(self.omega * times + self.phase)[:, None]
        else:
            k = np.searchsorted(self.times, times, side="right") - 1
            out = np.where((k >= 0)[:, None], self.levels[np.maximum(k, 0)], 0.0)
        return out[0] if tt.ndim == 0 else out

    def is_zero(self) -> bool:
        if self.kind == "piecewise":
            return not np.any(self.levels)
        return not np.any(self.value)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-step record of one simulated run."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray | None = None


def export_trajectory_csv(traj: Trajectory, out) -> None:
    """Write ``t,x_1..x_N,u_1..u_M,V`` rows; V only when recorded."""
    cols = ["t", *(f"x_{i + 1}" for i in range(traj.x.shape[1])),
            *(f"u_{i + 1}" for i in range(traj.u.shape[1]))]
    table = [traj.t, traj.x, traj.u]
    if traj.v is not None:
        cols.append("V")
        table.append(traj.v)
    write_csv(out, cols, np.column_stack(table))


def _rk4_step(model, X, u0, um, u1, dt: float):
    """One classical RK4 step from the states ``X`` (one per row) under the
    inputs at the step start, midpoint and end."""
    k1 = model.f(X, u0)
    k2 = model.f(X + 0.5 * dt * k1, um)
    k3 = model.f(X + 0.5 * dt * k2, um)
    k4 = model.f(X + dt * k3, u1)
    return X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4(model, X, signals, steps: int, dt: float):
    """Batched classical RK4 under one or more input signals; returns
    ``(t, states, inputs, faults)``.

    ``X`` is a ``(G, rows, N)`` batch: group ``g`` holds the initial states
    of the runs driven by ``signals[g]``.  ``states`` is ``(steps + 1, G,
    rows, N)`` and ``inputs`` ``(steps + 1, G, M)``.  Each input is
    evaluated once per run, at the step starts ``k dt``, the midpoints ``k
    dt + dt/2`` and the ends ``k dt + dt``.  A model family with a
    ``_rk4_kernel(states, U0, Um, U1, dt)`` method, whose inputs are
    ``(steps, G, M)``, builds its own ``advance(start, stop)`` once per
    run, which writes ``states[start + 1:stop + 1]`` for every group at
    once: a linear bank fills the block in closed form from its step
    ``X @ S + C[k]`` (:meth:`LinearBlock._rk4_kernel`, within ``1e-12`` of
    the staged steps), a neural population runs the four stages of each
    step on buffers made for the run (:meth:`CohenGrossberg._rk4_kernel`,
    the same bits as the staged step).  Any other model is stepped by
    :func:`_rk4_step`, four ``f`` calls per step on one group's ``(rows,
    N)`` states and ``(M,)`` inputs at a time.  Every group's steps are
    those of a run of its own.

    ``advance`` runs once per block of ``RK4_BLOCK`` steps, and the
    divergence guard is checked after it, per group: ``faults[g]`` is None
    or the ``Diverged`` naming the time of group g's first stored step past
    it, for the caller to raise.  The run stops early once every group has
    diverged.
    """
    G = len(signals)
    t = np.arange(steps) * dt
    U0, Um, U1 = (np.stack([signal(tt) for signal in signals], axis=1)
                  for tt in (t, t + 0.5 * dt, t + dt))
    states = np.empty((steps + 1,) + X.shape)
    inputs = np.empty((steps + 1,) + U0.shape[1:])
    states[0] = X
    inputs[0] = U0[0]
    inputs[1:] = U1
    faults = [None] * G
    kernel = getattr(model, "_rk4_kernel", None)
    if kernel is not None:
        advance = kernel(states, U0, Um, U1, dt)
    else:
        def advance(start, stop):
            for k in range(start, stop):
                for g in range(G):
                    states[k + 1, g] = _rk4_step(model, states[k, g], U0[k, g],
                                                 Um[k, g], U1[k, g], dt)
    for start in range(0, steps, RK4_BLOCK):
        stop = min(start + RK4_BLOCK, steps)
        # the steps after a blow-up, up to the block's end, may overflow
        with np.errstate(all="ignore"):
            advance(start, stop)
            block = states[start + 1:stop + 1]
            peak = np.abs(block).reshape(len(block), G, -1).max(axis=2)
        # NaN fails the comparison too
        ok = peak <= DIVERGENCE_GUARD
        for g in np.flatnonzero(~ok.all(axis=0)):
            if faults[g] is None:
                tk = (start + int(np.argmin(ok[:, g])) + 1) * dt
                faults[g] = Diverged(f"state norm blew past the guard at t={tk:.6g}",
                                     t=tk)
        if all(faults):
            break
    return np.arange(steps + 1) * dt, states, inputs, faults


def integrate(model, x0, signal: InputSignal | None = None, T: float = 20.0,
              dt: float = 1e-3,
              certificate: CompositeLyapunov | None = None) -> Trajectory:
    """Fixed-step RK4 trajectory from ``x0`` under the given input.

    Records the composite function along the run when a certificate is
    attached.  The horizon is rounded to a whole number of steps.
    """
    if dt <= 0:
        raise ValueError("step size must be positive")
    if T < dt:
        raise ValueError("horizon must cover at least one step")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.state_dim,):
        raise ValueError(f"initial state must have length {model.state_dim}")
    if signal is None:
        signal = InputSignal.zero(model.input_dim)
    if signal.dim != model.input_dim:
        raise ValueError(f"input signal must have {model.input_dim} channels")
    steps = max(int(round(T / dt)), 1)
    t, states, inputs, (fault,) = _rk4(model, x0[None, None], (signal,), steps, dt)
    if fault is not None:
        raise fault
    x = states[:, 0, 0, :]
    v = None
    if certificate is not None:
        v = certificate.eval_V_batch(x)
    return Trajectory(t=t, x=x, u=inputs[:, 0], v=v)


# ---------------------------------------------------------------------------
# Gain designs for the model families


@dataclass(frozen=True, eq=False)
class LinearDesign:
    """Gain network, slope matrix, and energies for a linear block bank.

    ``certify(d.net, d.specs)`` certifies it; its rows take the input
    inside their squared sum.
    """

    net: GainNetwork
    G: np.ndarray
    P: tuple
    specs: tuple


@dataclass(frozen=True, eq=False)
class CGDesign:
    """Gain network and energies for a neural population.

    ``certify(d.net, d.specs)`` certifies it; its rows add the input after
    their wrapper.
    """

    net: GainNetwork
    specs: tuple


def linear_gains(model: LinearBlock, Q, epsilon: float) -> LinearDesign:
    """Quadratic-energy gain design for coupled linear blocks.

    Each block gets ``V_i = x' P_i x`` from its Lyapunov equation; the
    internal gains are square roots scaled by the coupling norms, the
    external gains are linear, and each row aggregates as a squared sum
    with the input slot inside the square.  Also produces the slope
    matrix ``G``; a Collatz-Wielandt bound ``G w <= c w``, ``c < 1``, proves the
    condition.
    """
    eps = float(epsilon)
    if not 0.0 < eps < 1.0:
        raise BadParameters("the margin split must lie strictly in (0, 1)")
    n = model.n_blocks
    Q = [np.atleast_2d(np.asarray(q, dtype=float)) for q in Q]
    if len(Q) != n:
        raise BadParameters("one weight matrix per block")
    P = []
    a = np.empty(n)
    b = np.empty(n)
    c = np.empty(n)
    for i in range(n):
        Pi = solve_lyapunov_eq(model.A[i], Q[i])
        eig = np.linalg.eigvalsh(Pi)
        a[i] = float(np.sqrt(eig[0]))
        b[i] = float(np.sqrt(eig[-1]))
        c[i] = float(np.linalg.eigvalsh(Q[i])[0])
        P.append(Pi)
    zero = Zero()
    gamma = []
    G = np.zeros((n, n))
    gamma_u = []
    for i in range(n):
        k_i = 2.0 * b[i] ** 3 / (c[i] * (1.0 - eps))
        row = []
        for j in range(n):
            m = model.delta.get((i, j))
            nrm = float(np.linalg.norm(m, 2)) if m is not None else 0.0
            if i == j or nrm == 0.0:
                row.append(zero)
            else:
                G[i, j] = k_i * nrm / a[j]
                row.append(Power(G[i, j], 0.5))
        gamma.append(tuple(row))
        bn = float(np.linalg.norm(model.B[i], 2)) if model.input_dim else 0.0
        gamma_u.append(Linear(k_i * bn) if bn > 0.0 else zero)
    mu = tuple(OuterSum(Power(1.0, 2.0), external_in_sum=True) for _ in range(n))
    net = GainNetwork(n, tuple(gamma), tuple(gamma_u), mu)
    # x' P x per row; vecdot rounds like a single state's ``x @ P @ x``
    specs = tuple(
        SubsystemSpec(
            dim=model.dims[i],
            V=(lambda X, Pi=P[i]: np.vecdot(X @ Pi, X)),
            name=f"block_{i + 1}",
        )
        for i in range(n)
    )
    return LinearDesign(net=net, G=G, P=tuple(P), specs=specs)


def cg_gains(model: CohenGrossberg, epsilon: float, rho_slope: float = 1.0,
             bt=1.0) -> CGDesign:
    """Absolute-value-energy gain design for a neural population.

    ``bt`` is the linear lower envelope slope of each drift (must stay
    below the model's drift slope); ``rho_slope`` fixes the linear slack
    split in the triangle inequality.  The input channel's own wrapper is
    folded into the external gain, leaving rows that add the external
    slot after a linear wrapper around the internal sum.
    """
    eps = float(epsilon)
    rho = float(rho_slope)
    n = model.n_neurons
    bt = np.broadcast_to(np.asarray(bt, dtype=float), (n,)).copy()
    if eps <= 0.0 or eps >= float(np.min(model.alpha_lo)):
        raise BadParameters("margin must satisfy 0 < eps < min amplification")
    if rho <= 0.0:
        raise BadParameters("slack slope must be positive")
    if not np.all((bt > 0.0) & (bt < model.b_slope)):
        raise BadParameters("drift envelope slope must lie in (0, b_slope)")
    coeff = model.alpha_hi / (model.alpha_lo - eps)
    zero = Zero()
    unit = Saturating(1.0)
    gamma = []
    gamma_u = []
    mu = []
    for i in range(n):
        row = []
        for j in range(n):
            t = float(model.t_matrix[i, j])
            if i == j or t == 0.0:
                row.append(zero)
            else:
                row.append(Compose(Linear(float(coeff[i]) * abs(t)), unit))
        gamma.append(tuple(row))
        gamma_u.append(Linear(float(coeff[i]) * (1.0 + 1.0 / rho) / float(bt[i])))
        mu.append(OuterSum(Linear((1.0 + rho) / float(bt[i])),
                           external_in_sum=False))
    net = GainNetwork(n, tuple(gamma), tuple(gamma_u), tuple(mu))
    specs = tuple(
        SubsystemSpec(dim=1, V=(lambda X: np.abs(X[:, 0])),
                      name=f"neuron_{i + 1}")
        for i in range(n)
    )
    return CGDesign(net=net, specs=specs)


# ---------------------------------------------------------------------------
# Canonical demo instances


def linear_demo(delta: float = 0.2, drive: float = 1.0, epsilon: float = 0.5):
    """Two scalar blocks in a symmetric cycle; returns (model, design)."""
    model = LinearBlock(
        A=([[-1.0]], [[-1.0]]),
        delta={(0, 1): [[delta]], (1, 0): [[delta]]},
        B=([[drive]], [[drive]]) if drive else (None, None),
    )
    design = linear_gains(model, ([[2.0]], [[2.0]]), epsilon)
    return model, design


def cg_demo(coupling: float = 0.2):
    """Two mutually coupled neurons; returns (model, design)."""
    model = CohenGrossberg(
        alpha_lo=(1.0, 1.0),
        alpha_hi=(1.2, 1.2),
        b_slope=(1.5, 1.5),
        t_matrix=((0.0, coupling), (coupling, 0.0)),
        act_scale=(2.0, 2.0),
    )
    design = cg_gains(model, epsilon=0.5, rho_slope=1.0, bt=1.0)
    return model, design


# ---------------------------------------------------------------------------
# Empirical certificate checks


@dataclass(frozen=True)
class DecreaseSpec:
    """Sampling plan for the pointwise decrease check."""

    samples: int = 10000
    u_norms: tuple = (0.0,)
    seed: int = 0


@dataclass(frozen=True)
class DecreaseReport:
    requested: int
    evaluated: int
    violations: int
    worst: float
    u_norms: tuple

    @property
    def verdict(self) -> str:
        """``fail`` on any violation, else ``inconclusive`` when the sampler
        found fewer states above the threshold than requested."""
        if self.violations:
            return "fail"
        return "inconclusive" if self.evaluated < self.requested else "pass"

    def summary(self) -> str:
        return (f"verdict={self.verdict} violations={self.violations} "
                f"worst={self.worst:.6g}")

    def text(self) -> str:
        lines = [
            "decrease check",
            f"  samples evaluated: {self.evaluated} of {self.requested}",
        ]
        if self.evaluated < self.requested:
            lines.append(f"  shortfall: {self.requested - self.evaluated} samples; "
                         "too few sampled states clear the input threshold")
        lines += [
            f"  input magnitudes: {', '.join(f'{u:g}' for u in self.u_norms)}",
            f"  worst derivative estimate: {self.worst:.6g}",
            self.summary(),
        ]
        return "\n".join(lines)


def check_decrease(model, cl: CompositeLyapunov,
                   spec: DecreaseSpec | None = None) -> DecreaseReport:
    """Directional-derivative sampling of the composite function.

    States are drawn from the log annulus ``DECREASE_RADII`` and kept when
    the composite value clears the input threshold by ``THRESHOLD_GUARD``
    (relative); the derivative along the flow is estimated by central
    differences.  A sample violates when the estimate fails to be negative
    beyond ``1e-8 (1 + V)``.
    """
    spec = spec or DecreaseSpec()
    rng = np.random.default_rng(spec.seed)
    N = model.state_dim
    M = model.input_dim
    lo, hi = DECREASE_RADII
    per = max(spec.samples // max(len(spec.u_norms), 1), 1)
    evaluated = 0
    violations = 0
    worst = -np.inf
    for u_norm in spec.u_norms:
        threshold = cl.iss_threshold(float(u_norm)) * (1.0 + THRESHOLD_GUARD)
        need = per
        attempts = 0
        while need > 0 and attempts < 500:
            attempts += 1
            k = max(need * 2, 256)
            dirs = rng.normal(size=(k, N))
            log_radii = rng.uniform(np.log10(lo), np.log10(hi), size=k)
            ud = rng.normal(size=(k, M)) if M and u_norm else None
            if threshold == 0.0:
                # every sample is kept: only the first ``need`` are scaled
                keep_idx = np.arange(need)
                dirs, log_radii = dirs[:need], log_radii[:need]
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            X = (10.0 ** log_radii)[:, None] * dirs
            V = cl.eval_V_batch(X)
            if threshold != 0.0:
                keep_idx = np.flatnonzero(V >= threshold)[:need]
                if keep_idx.size == 0:
                    continue
                X, V = X[keep_idx], V[keep_idx]
            if ud is None:
                U = np.zeros((keep_idx.size, M))
            else:
                ud = ud[keep_idx]
                U = u_norm * (ud / np.linalg.norm(ud, axis=1, keepdims=True))
            F = model.f(X, U)
            h = 1e-6 * (1.0 + np.linalg.norm(X, axis=1))
            step = h[:, None] * F
            vp = cl.eval_V_batch(X + step)
            vm = cl.eval_V_batch(X - step)
            est = (vp - vm) / (2.0 * h)
            tol = 1e-8 * (1.0 + V)
            bad = est >= -tol
            evaluated += keep_idx.size
            violations += int(np.count_nonzero(bad))
            worst = max(worst, float(np.max(est)))
            need -= keep_idx.size
    return DecreaseReport(
        requested=per * len(spec.u_norms),
        evaluated=evaluated,
        violations=violations,
        worst=worst,
        u_norms=tuple(float(u) for u in spec.u_norms),
    )


@dataclass(frozen=True)
class IssRunSpec:
    """Trajectory batch plan for the boundedness check."""

    runs: int = 50
    T: float = 20.0
    dt: float = 1e-3
    x0_scale: float = 1.0
    signal: InputSignal | None = None
    seed: int = 0


@dataclass(frozen=True)
class IssBoundReport:
    kind: str
    runs: int
    violations: int
    worst: float
    drift_worst: float | None = None
    contraction_worst: float | None = None
    settle_worst: float | None = None
    threshold: float | None = None

    @property
    def verdict(self) -> str:
        return "pass" if self.violations == 0 else "fail"

    def summary(self) -> str:
        return (f"verdict={self.verdict} violations={self.violations} "
                f"worst={self.worst:.6g}")

    def text(self) -> str:
        lines = [f"trajectory check ({self.kind})", f"  runs: {self.runs}"]
        if self.drift_worst is not None:
            lines.append(f"  worst per-step drift: {self.drift_worst:.6g}")
        if self.contraction_worst is not None:
            lines.append(f"  worst contraction ratio: {self.contraction_worst:.6g}")
        if self.threshold is not None:
            lines.append(f"  input threshold: {self.threshold:.6g}")
        if self.settle_worst is not None:
            lines.append(f"  worst settled level ratio: {self.settle_worst:.6g}")
        lines.append(self.summary())
        return "\n".join(lines)


def check_iss_bounds(model, cl: CompositeLyapunov, spec: IssRunSpec,
                     signals) -> Iterator[IssBoundReport]:
    """Trajectory-level evidence for decay and input boundedness: one
    report per signal of ``signals``, yielded in order.

    The ``spec.runs`` initial states are drawn once and driven by every
    signal in one :func:`_rk4` batch (``spec.signal`` is not read).  The
    composite function is evaluated one signal's runs at a time and only
    where its report reads it: at every step under a zero input, over the
    last ``SETTLE_FRACTION`` of the horizon under any other.  A signal
    whose runs diverged raises its ``Diverged`` at its turn.

    Under a zero input the composite function must be nonincreasing along
    every run up to ``DRIFT_TOL`` per step and the final state norm must
    shrink below ``CONTRACTION`` times the initial one.  Under any other
    input the composite function must sit below ``SETTLE_FACTOR`` times
    the input threshold over the last ``SETTLE_FRACTION`` of the horizon.
    """
    rng = np.random.default_rng(spec.seed)
    N = model.state_dim
    X0 = rng.normal(size=(spec.runs, N))
    X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
    X0 *= spec.x0_scale
    steps = max(int(round(spec.T / spec.dt)), 1)
    _t, states, inputs, faults = _rk4(
        model, np.broadcast_to(X0, (len(signals),) + X0.shape), signals, steps,
        spec.dt)
    tail = int(np.ceil((1.0 - SETTLE_FRACTION) * steps))
    for g, signal in enumerate(signals):
        if faults[g] is not None:
            raise faults[g]
        zero = signal.is_zero()
        window = states[:, g] if zero else states[tail:, g]
        V = cl.eval_V_batch(window.reshape(-1, N)).reshape(-1, spec.runs)
        if zero:
            drift = np.diff(V, axis=0)
            drift_run = drift.max(axis=0) if steps else np.zeros(spec.runs)
            norms0 = np.linalg.norm(X0, axis=1)
            norms1 = np.linalg.norm(states[-1, g], axis=1)
            ratio = norms1 / norms0
            bad = (drift_run > DRIFT_TOL) | (ratio >= CONTRACTION)
            yield IssBoundReport(
                kind="zero-input",
                runs=spec.runs,
                violations=int(np.count_nonzero(bad)),
                worst=float(drift_run.max()),
                drift_worst=float(drift_run.max()),
                contraction_worst=float(ratio.max()),
            )
            continue
        sup_u = float(np.max(np.linalg.norm(inputs[:, g], axis=1)))
        threshold = cl.iss_threshold(sup_u)
        tail_peak = V.max(axis=0)
        bound = SETTLE_FACTOR * threshold
        bad = tail_peak > bound
        settle_worst = float(tail_peak.max() / threshold) if threshold > 0 else np.inf
        yield IssBoundReport(
            kind="driven",
            runs=spec.runs,
            violations=int(np.count_nonzero(bad)),
            worst=settle_worst,
            settle_worst=settle_worst,
            threshold=threshold,
        )


def check_iss_bound(model, cl: CompositeLyapunov,
                    spec: IssRunSpec | None = None) -> IssBoundReport:
    """:func:`check_iss_bounds` under the one signal ``spec.signal``, zero
    when None: its report, or its ``Diverged``."""
    spec = spec or IssRunSpec()
    signal = spec.signal or InputSignal.zero(model.input_dim)
    (report,) = check_iss_bounds(model, cl, spec, (signal,))
    return report
