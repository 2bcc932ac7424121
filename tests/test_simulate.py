"""Model families, the integrator, and the empirical certificate checks."""

import io
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from smallgain import simulate
from smallgain.compose import CompositeLyapunov, certify, compose
from smallgain.errors import BadParameters, Diverged, NotHurwitz, TooLarge
from smallgain.gains import Compose, Linear, OuterSum, Power, Saturating, Zero
from smallgain.paths import OmegaPath, construct_path, path_bounded, validate_path
from smallgain.simulate import (
    DIVERGENCE_GUARD,
    RK4_BLOCK,
    CGDesign,
    CohenGrossberg,
    DecreaseReport,
    DecreaseSpec,
    InputSignal,
    IssBoundReport,
    IssRunSpec,
    LinearBlock,
    cg_demo,
    cg_gains,
    check_decrease,
    check_iss_bound,
    check_iss_bounds,
    export_trajectory_csv,
    integrate,
    linear_demo,
    linear_gains,
    solve_lyapunov_eq,
    _rk4,
)


def certified(design):
    """The design's certificate, built as every command builds it."""
    return certify(design.net, design.specs)


# ---------------------------------------------------------------------------
# Lyapunov equation


def test_lyapunov_scalar_closed_form():
    # a' p + p a = -q  =>  p = q / (2 |a|)
    P = solve_lyapunov_eq([[-1.0]], [[2.0]])
    assert P.shape == (1, 1)
    assert abs(P[0, 0] - 1.0) < 1e-12
    P = solve_lyapunov_eq([[-4.0]], [[3.0]])
    assert abs(P[0, 0] - 3.0 / 8.0) < 1e-12


def test_lyapunov_companion_block():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    Q = np.eye(2)
    P = solve_lyapunov_eq(A, Q)
    assert np.max(np.abs(A.T @ P + P @ A + Q)) < 1e-10
    assert np.all(np.linalg.eigvalsh(P) > 0)


def test_lyapunov_matches_reference_solver():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        R = rng.normal(size=(d, d))
        shift = max(np.real(np.linalg.eigvals(R)).max(), 0.0) + 0.5
        A = R - shift * np.eye(d)
        Q = np.eye(d)
        P = solve_lyapunov_eq(A, Q)
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        assert np.allclose(P, ref, rtol=1e-8, atol=1e-10)


def test_lyapunov_rejects_unstable():
    with pytest.raises(NotHurwitz):
        solve_lyapunov_eq([[1.0]], [[1.0]])
    with pytest.raises(NotHurwitz):
        solve_lyapunov_eq([[0.0, 1.0], [0.0, 0.0]], np.eye(2))


def test_lyapunov_rejects_bad_weight():
    with pytest.raises(BadParameters):
        solve_lyapunov_eq(np.diag([-1.0, -2.0]), [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(BadParameters):
        solve_lyapunov_eq(np.diag([-1.0, -2.0]), np.diag([1.0, -1.0]))


def test_lyapunov_dimension_cap():
    d = 21
    with pytest.raises(TooLarge):
        solve_lyapunov_eq(-np.eye(d), np.eye(d))


# ---------------------------------------------------------------------------
# Model construction


def test_linear_block_shapes():
    m = LinearBlock(
        A=([[-1.0, 0.5], [0.0, -2.0]], [[-3.0]]),
        delta={(0, 1): [[0.1], [0.2]], (1, 0): [[0.3, 0.0]]},
        B=([[1.0], [0.0]], None),
    )
    assert m.dims == (2, 1)
    assert m.state_dim == 3
    assert m.input_dim == 1
    x = np.array([1.0, 2.0, 3.0])
    u = np.array([0.5])
    want = np.array([
        -1.0 + 1.0 + 0.3 + 0.5,
        -4.0 + 0.6,
        0.3 - 9.0,
    ])
    assert np.allclose(m.f(x, u), want)


def test_linear_block_rejects_diagonal_coupling():
    with pytest.raises(BadParameters):
        LinearBlock(A=([[-1.0]], [[-1.0]]), delta={(0, 0): [[0.1]]}, B=(None, None))


def test_linear_block_rejects_shape_mismatch():
    with pytest.raises(BadParameters):
        LinearBlock(A=([[-1.0]], [[-1.0]]),
                    delta={(0, 1): [[0.1, 0.2]]}, B=(None, None))
    with pytest.raises(BadParameters):
        LinearBlock(A=([[-1.0]], [[-1.0]]), delta={},
                    B=([[1.0]], [[1.0, 0.0]]))


def test_cg_model_validation():
    ok = dict(alpha_lo=(1.0,), alpha_hi=(2.0,), b_slope=(1.0,),
              t_matrix=((0.0,),), act_scale=(2.0,))
    CohenGrossberg(**ok)
    with pytest.raises(BadParameters):
        CohenGrossberg(**{**ok, "alpha_hi": (0.5,)})
    with pytest.raises(BadParameters):
        CohenGrossberg(**{**ok, "act_scale": (1.0,)})
    with pytest.raises(BadParameters):
        CohenGrossberg(**{**ok, "t_matrix": ((0.5,),)})


def test_cg_vector_field():
    m = cg_demo(coupling=0.2)[0]
    x = np.array([1.0, -2.0])
    u = np.array([0.1, 0.0])
    amp = 1.1 + 0.1 * np.tanh(x)
    act = x / (1.0 + 2.0 * np.abs(x))
    want = -amp * (1.5 * x - np.array([0.2 * act[1], 0.2 * act[0]]) + u)
    assert np.allclose(m.f(x, u), want)


# ---------------------------------------------------------------------------
# Input signals


def test_input_signal_kinds():
    s = InputSignal.constant([2.0, 1.0])
    assert np.allclose(s(0.0), [2.0, 1.0])
    assert np.allclose(s(5.0), [2.0, 1.0])
    st = InputSignal.step([1.0], at=2.0)
    assert np.allclose(st(1.9), [0.0])
    assert np.allclose(st(2.0), [1.0])
    sn = InputSignal.sinusoid([3.0], omega=2.0)
    assert abs(sn(0.25 * np.pi)[0] - 3.0) < 1e-12
    pw = InputSignal.piecewise([1.0, 3.0], [[0.5], [2.5]])
    assert np.allclose(pw(0.5), [0.0])
    assert np.allclose(pw(1.0), [0.5])
    assert np.allclose(pw(3.7), [2.5])
    assert InputSignal.zero(2).is_zero()
    assert not st.is_zero()


def test_input_signal_on_time_arrays():
    t = np.array([0.0, 1.5, 2.0, 2.5])
    const = InputSignal.constant([2.0, -1.0])
    assert np.array_equal(const(t), [[2.0, -1.0]] * 4)
    # a step on a grid time is already on (t >= at)
    step = InputSignal.step([1.0, 3.0], at=2.0)
    assert np.array_equal(step(t), [[0.0, 0.0], [0.0, 0.0],
                                    [1.0, 3.0], [1.0, 3.0]])
    # before the first breakpoint the input is zero; on a breakpoint the
    # new level is already on (side="right")
    pw = InputSignal.piecewise([1.0, 3.0], [[0.5], [2.5]])
    tp = np.array([-1.0, 0.5, 1.0, 2.9, 3.0, 7.0])
    assert np.array_equal(pw(tp), [[0.0], [0.0], [0.5], [0.5], [2.5], [2.5]])
    sn = InputSignal.sinusoid([3.0, -0.5], omega=2.0, phase=0.3)
    ts = np.linspace(0.0, 10.0, 41)
    got = sn(ts)
    assert got.shape == (41, 2)
    for k, tk in enumerate(ts):
        for c, amp in enumerate((3.0, -0.5)):
            want = amp * math.sin(2.0 * tk + 0.3)
            assert abs(got[k, c] - want) <= 1e-15 * abs(want)


def test_input_signal_scalar_time_shape():
    signals = (InputSignal.constant([2.0, -1.0]),
               InputSignal.step([1.0, 3.0], at=2.0),
               InputSignal.sinusoid([3.0, -0.5], omega=2.0),
               InputSignal.piecewise([1.0, 3.0], [[0.5, 1.0], [2.5, 0.0]]))
    for sig in signals:
        for tk in (0.0, 2.0, 4.5):
            u = sig(tk)
            assert u.shape == (2,)
            assert np.array_equal(u, sig(np.array([tk]))[0])


def test_input_signal_validation():
    with pytest.raises(ValueError):
        InputSignal(kind="ramp", value=[1.0])
    with pytest.raises(ValueError):
        InputSignal.piecewise([2.0, 1.0], [[0.5], [2.5]])


# ---------------------------------------------------------------------------
# Integration


def test_rk4_matches_exponential():
    m = LinearBlock(A=([[-1.0]],), delta={}, B=(None,))
    traj = integrate(m, [1.0], T=1.0, dt=1e-3)
    assert abs(traj.x[-1, 0] - np.exp(-1.0)) < 1e-12
    assert traj.t[0] == 0.0 and abs(traj.t[-1] - 1.0) < 1e-12
    assert traj.x.shape == (1001, 1)


def test_rk4_fourth_order_factor():
    # halving the step must shrink the endpoint error about sixteenfold
    m = LinearBlock(A=([[-1.0]],), delta={}, B=(None,))
    errs = []
    for dt in (1e-2, 5e-3):
        traj = integrate(m, [1.0], T=1.0, dt=dt)
        errs.append(abs(traj.x[-1, 0] - np.exp(-1.0)))
    factor = errs[0] / errs[1]
    assert 16.0 * 0.8 <= factor <= 16.0 * 1.2


def test_equilibrium_stays_put():
    m = cg_demo()[0]
    traj = integrate(m, np.zeros(2), T=1.0, dt=1e-2)
    assert np.max(np.abs(traj.x)) == 0.0


def _staged_rk4(model, X, signal, steps, dt):
    """Reference: the four-stage RK4 loop with four ``f`` calls per step."""
    t = np.arange(steps) * dt
    U0, Um, U1 = signal(t), signal(t + 0.5 * dt), signal(t + dt)
    states = np.empty((steps + 1,) + X.shape)
    states[0] = X
    for k in range(steps):
        k1 = model.f(X, U0[k])
        k2 = model.f(X + 0.5 * dt * k1, Um[k])
        k3 = model.f(X + 0.5 * dt * k2, Um[k])
        k4 = model.f(X + dt * k3, U1[k])
        X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not float(np.max(np.abs(X))) <= DIVERGENCE_GUARD:
            tk = (k + 1) * dt
            raise Diverged(f"state norm blew past the guard at t={tk:.6g}", t=tk)
        states[k + 1] = X
    return states


def _rk4_one(model, X, signal, steps, dt):
    """The states of a one-group :func:`_rk4` run, or its ``Diverged``."""
    _t, states, _u, (fault,) = _rk4(model, X[None], (signal,), steps, dt)
    if fault is not None:
        raise fault
    return states[:, 0]


def _random_bank(rng, forced):
    n = int(rng.integers(2, 5))
    dims = rng.integers(1, 3, size=n)
    A = [rng.normal(size=(d, d)) - (2.0 + d) * np.eye(d) for d in dims]
    delta = {(i, j): 0.3 * rng.normal(size=(dims[i], dims[j]))
             for i in range(n) for j in range(n) if i != j and rng.random() < 0.6}
    B = None
    if forced:
        m = int(rng.integers(1, 3))
        B = [rng.normal(size=(d, m)) if rng.random() < 0.7 else None for d in dims]
        B[0] = rng.normal(size=(dims[0], m))
    return LinearBlock(A=tuple(A), delta=delta, B=tuple(B) if B else None)


def _signals(m):
    if m == 0:
        return [InputSignal.zero(0)]
    v = np.linspace(0.5, -1.5, m)
    return [InputSignal.zero(m), InputSignal.constant(v), InputSignal.step(v, at=0.3),
            InputSignal.sinusoid(v, omega=3.0, phase=0.2),
            InputSignal.piecewise([0.1, 0.4], [v, -2.0 * v])]


def test_linear_step_matrix_matches_staged_rk4():
    # a run of k steps is the first k steps of the 300-step reference; the
    # step counts end on, just before and just after a guard block's edge
    rng = np.random.default_rng(11)
    cases = 0
    for trial in range(8):
        model = _random_bank(rng, forced=trial % 2 == 1)
        for signal in _signals(model.input_dim):
            for runs in (1, 50):
                for dt in (1e-3, 0.05):
                    X0 = rng.normal(size=(runs, model.state_dim))
                    want = _staged_rk4(model, X0, signal, 300, dt)
                    for steps in (1, RK4_BLOCK - 1, RK4_BLOCK, RK4_BLOCK + 1,
                                  2 * RK4_BLOCK + 7, 300):
                        got = _rk4_one(model, X0, signal, steps, dt)
                        ref = want[:steps + 1]
                        scale = np.abs(ref).max(axis=(0, 2))
                        assert np.all(np.abs(got - ref) <= 1e-12 * scale[None, :, None])
                    cases += 1
    # unforced banks run the zero input only
    assert cases == 4 * 4 + 4 * 5 * 4


def test_linear_closed_form_keeps_an_unstable_origin():
    # S is about 4.2e10 and S^2 is past the guard, so every sub-block is
    # one step; with the powers up to S^64 the zero state would meet 0 * inf
    m = LinearBlock(A=([[1000.0]],), delta={}, B=(None,))
    traj = integrate(m, [0.0], T=200, dt=1)
    assert traj.x.shape == (201, 1)
    assert np.all(traj.x == 0.0)


def test_linear_step_makes_fixed_f_calls(monkeypatch):
    calls = []
    f = LinearBlock.f

    def counted(self, x, u):
        calls.append(1)
        return f(self, x, u)

    monkeypatch.setattr(LinearBlock, "f", counted)
    model = linear_demo()[0]
    for steps in (1, 400):
        calls.clear()
        _rk4_one(model, np.ones((3, 2)), InputSignal.step([1.0]), steps, 1e-2)
        assert len(calls) == 8


def _random_population(rng, n):
    lo = rng.uniform(0.5, 1.5, n)
    T = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)
    T[0, 1], T[1, 0] = 0.8, -0.6
    np.fill_diagonal(T, 0.0)
    return CohenGrossberg(alpha_lo=lo, alpha_hi=lo + rng.uniform(0.1, 1.0, n),
                          b_slope=rng.uniform(0.5, 3.0, n), t_matrix=T,
                          act_scale=rng.uniform(1.1, 4.0, n))


def test_cg_rk4_equals_staged_reference():
    # every population size meets every signal; rows and dt take turns, so
    # each (rows, dt) pair meets each signal kind and most sizes.  A run
    # of k steps is the first k steps of the 200-step reference, as step
    # k reads only the inputs at k dt
    rng = np.random.default_rng(5)
    cases = set()
    for n in (2, 3, 4, 5):
        model = _random_population(rng, n)
        for i, signal in enumerate(_signals(n)):
            rows, dt = ((1, 0.02), (50, 0.02), (1, 0.05), (50, 0.05))[(i + n) % 4]
            X0 = 2.0 * rng.normal(size=(rows, n))
            want = _staged_rk4(model, X0, signal, 200, dt)
            for steps in (1, RK4_BLOCK, RK4_BLOCK + 1, 200):
                got = _rk4_one(model, X0, signal, steps, dt)
                assert np.array_equal(got, want[:steps + 1])
            cases.add((signal.kind, signal.is_zero(), rows, dt))
    assert len(cases) == 20


def test_cg_kernel_buffers_belong_to_one_run():
    # back-to-back runs of one population on different batch shapes
    rng = np.random.default_rng(6)
    model = _random_population(rng, 3)
    signal = InputSignal.sinusoid([0.3, -0.2, 0.1], 2.0)
    for rows in (50, 1, 7, 50):
        X0 = rng.normal(size=(rows, 3))
        got = _rk4_one(model, X0, signal, 70, 0.05)
        assert np.array_equal(got, _staged_rk4(model, X0, signal, 70, 0.05))


def test_cg_step_makes_fixed_f_calls(monkeypatch):
    calls = []
    f = CohenGrossberg.f

    def counted(self, x, u):
        calls.append(1)
        return f(self, x, u)

    monkeypatch.setattr(CohenGrossberg, "f", counted)
    model = cg_demo(0.4)[0]
    counts = []
    for steps in (1, 400):
        calls.clear()
        _rk4_one(model, np.ones((3, 2)), InputSignal.step([1.0, -0.5]), steps, 1e-2)
        counts.append(len(calls))
    # the kernel steps without calling f at all
    assert counts == [0, 0]


class Kernelless:
    """A model without ``_rk4_kernel``: :func:`_rk4` steps it by ``f``, one
    signal group's ``(rows, N)`` states and ``(M,)`` inputs at a time."""

    def __init__(self, model):
        self.model = model
        self.state_dim, self.input_dim = model.state_dim, model.input_dim

    def f(self, x, u):
        assert x.ndim == 2 and u.shape == (self.input_dim,)
        return self.model.f(x, u)


@pytest.mark.parametrize("G", [1, 2, 3])
def test_grouped_rk4_equals_separate_runs(G):
    # each signal group of one batch is bit for bit the run of its signal
    # alone; the groups rotate through every signal kind, the zero one too
    rng = np.random.default_rng(40 + G)
    models = [_random_bank(rng, forced=True), _random_population(rng, 3),
              Kernelless(_random_population(rng, 2))]
    kinds = set()
    for model in models:
        signals = _signals(model.input_dim)
        for first in range(len(signals)):
            group = tuple(signals[(first + g) % len(signals)] for g in range(G))
            X = rng.normal(size=(G, 5, model.state_dim))
            t, states, inputs, faults = _rk4(model, X, group, RK4_BLOCK + 9, 0.05)
            assert faults == [None] * G
            assert states.shape == (RK4_BLOCK + 10, G, 5, model.state_dim)
            for g, signal in enumerate(group):
                t1, states1, inputs1, _ = _rk4(model, X[g][None], (signal,),
                                               RK4_BLOCK + 9, 0.05)
                assert np.array_equal(t, t1)
                assert np.array_equal(states[:, g], states1[:, 0])
                assert np.array_equal(inputs[:, g], inputs1[:, 0])
                kinds.add((type(model).__name__, signal.kind, signal.is_zero()))
    assert len(kinds) == 3 * 5


class ScaledGrowth:
    """``x' = (a + b u_1) x``: diverges with or without the drive, by sign."""

    state_dim, input_dim = 2, 1

    def __init__(self, a, b):
        self.a, self.b = a, b

    def f(self, x, u):
        return (self.a + self.b * u[0]) * x


@pytest.mark.parametrize("a, b, diverged", [
    (-1.0, 10.0, [False, True]),  # only under the drive
    (5.0, -10.0, [True, False]),  # only without it
    (5.0, 20.0, [True, True]),    # both, the driven group first
])
def test_grouped_rk4_divergence_per_group(a, b, diverged):
    # each group keeps the fault, and the time, of its run alone
    model = ScaledGrowth(a, b)
    signals = (InputSignal.zero(1), InputSignal.constant([1.0]))
    X = np.ones((2, 3, 2))
    faults = _rk4(model, X, signals, 800, 0.01)[3]
    assert [f is not None for f in faults] == diverged
    for g, signal in enumerate(signals):
        if faults[g] is None:
            continue
        with pytest.raises(Diverged) as ref:
            _staged_rk4(model, X[g], signal, 800, 0.01)
        assert faults[g].t == ref.value.t
        assert str(faults[g]) == str(ref.value)


@pytest.mark.parametrize("a, x2, diverged", [
    (5.0, 0.0, [False, True]),    # only the driven group, whole guard blocks
    (100.0, 0.0, [False, True]),  # S^28 is past the guard: 27-step sub-blocks
    (5.0, 1.0, [True, True]),     # both, the driven group first
])
def test_linear_grouped_rk4_divergence_per_group(a, x2, diverged):
    # blocks x1' = -x1 + u and x2' = a x2 + u: the input pushes x2 past the
    # guard, and without it x2 stays at zero from zero; each group keeps the
    # fault, the time and the states of its run alone
    model = LinearBlock(A=([[-1.0]], [[a]]), delta={}, B=([[1.0]], [[1.0]]))
    signals = (InputSignal.zero(1), InputSignal.constant([1.0]))
    X = np.stack([np.column_stack([np.linspace(-1.0, 1.0, 3), np.full(3, x2)])] * 2)
    _t, states, _u, faults = _rk4(model, X, signals, 800, 0.01)
    assert [f is not None for f in faults] == diverged
    for g, signal in enumerate(signals):
        _t, alone, _u, (fault,) = _rk4(model, X[g][None], (signal,), 800, 0.01)
        if faults[g] is None:
            assert fault is None
            assert np.array_equal(states[:, g], alone[:, 0])
            assert np.all(states[:, g, :, 1] == x2)
            continue
        with pytest.raises(Diverged) as ref:
            _staged_rk4(model, X[g], signal, 800, 0.01)
        assert faults[g].t == fault.t == ref.value.t
        assert str(faults[g]) == str(fault) == str(ref.value)


def test_divergence_guard():
    m = LinearBlock(A=([[5.0]],), delta={}, B=(None,))
    with pytest.raises(Diverged) as exc:
        integrate(m, [1.0], T=20.0, dt=1e-2)
    assert exc.value.t is not None and exc.value.t > 0.0
    with pytest.raises(Diverged) as ref:
        _staged_rk4(m, np.ones((1, 1)), InputSignal.zero(0), 2000, 1e-2)
    assert exc.value.t == ref.value.t


def test_divergence_guard_catches_nan():
    class NanModel:
        state_dim = 1
        input_dim = 0

        def f(self, x, u):
            return np.full_like(x, np.nan)

    with pytest.raises(Diverged) as exc:
        integrate(NanModel(), [1.0], T=1.0, dt=0.1)
    assert exc.value.t == 0.1


class NanAfter:
    """A growing scalar field whose ``f`` turns NaN from its ``calls``-th call on."""

    state_dim = 1
    input_dim = 0

    def __init__(self, calls):
        self.left = calls

    def f(self, x, u):
        self.left -= 1
        return x if self.left > 0 else np.full_like(x, np.nan)


@pytest.mark.parametrize("steps, first_nan", [
    (3 * RK4_BLOCK, RK4_BLOCK + RK4_BLOCK // 2),  # mid-block
    (2 * RK4_BLOCK + 7, 2 * RK4_BLOCK + 3),       # in a short last block
    (2 * RK4_BLOCK + 7, 2 * RK4_BLOCK + 6),       # the very last step
])
def test_divergence_guard_nan_inside_a_block(steps, first_nan):
    # four f calls per step: the first NaN comes in step ``first_nan``
    with pytest.raises(Diverged) as exc:
        _rk4_one(NanAfter(4 * first_nan + 1), np.ones((1, 1)), InputSignal.zero(0),
                 steps, 0.01)
    with pytest.raises(Diverged) as ref:
        _staged_rk4(NanAfter(4 * first_nan + 1), np.ones((1, 1)),
                    InputSignal.zero(0), steps, 0.01)
    assert exc.value.t == ref.value.t == (first_nan + 1) * 0.01
    assert str(exc.value) == str(ref.value)


def test_divergence_guard_emits_no_warning():
    # the state grows by ~4e10 per step: the rest of the block overflows
    m = LinearBlock(A=([[1000.0]],), delta={}, B=(None,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged) as exc:
            integrate(m, [1.0], T=2.0 * RK4_BLOCK, dt=1.0)
    assert exc.value.t == 2.0


def test_integrate_argument_validation():
    m = LinearBlock(A=([[-1.0]],), delta={}, B=(None,))
    with pytest.raises(ValueError):
        integrate(m, [1.0], dt=0.0)
    with pytest.raises(ValueError):
        integrate(m, [1.0], T=1e-4, dt=1e-3)
    with pytest.raises(ValueError):
        integrate(m, [1.0, 2.0])
    with pytest.raises(ValueError):
        integrate(m, [1.0], signal=InputSignal.constant([1.0, 2.0]))


def test_integrate_records_certificate_values():
    model, design = linear_demo()
    cl = certified(design)
    traj = integrate(model, [1.0, -0.5], T=0.5, dt=1e-3, certificate=cl)
    assert traj.v is not None and len(traj.v) == len(traj.t)
    k = 137
    assert abs(traj.v[k] - cl.eval_V(traj.x[k])[0]) < 1e-12


def test_trajectory_csv_roundtrip():
    model, design = linear_demo()
    cl = certified(design)
    traj = integrate(model, [1.0, 0.5], T=0.01, dt=1e-3, certificate=cl)
    buf = io.StringIO()
    export_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x_1,x_2,u_1,V"
    assert len(lines) == len(traj.t) + 1
    row = lines[4].split(",")
    assert float(row[0]) == pytest.approx(traj.t[3], abs=0.0)
    assert float(row[1]) == pytest.approx(traj.x[3, 0], rel=1e-10)
    assert float(row[-1]) == pytest.approx(traj.v[3], rel=1e-10)


# ---------------------------------------------------------------------------
# Gain designs


def test_linear_demo_design_values():
    model, design = linear_demo()
    assert np.allclose(design.G, [[0.0, 0.4], [0.4, 0.0]])
    g01 = design.net.gamma[0][1]
    assert isinstance(g01, Power)
    assert g01.coeff == pytest.approx(0.4, rel=1e-12)
    assert g01.exponent == 0.5
    gu = design.net.gamma_u[0]
    assert isinstance(gu, Linear) and gu.slope == pytest.approx(2.0)
    m = design.net.mu[0]
    assert isinstance(m, OuterSum) and m.external_in_sum
    assert isinstance(m.rho, Power) and m.rho.exponent == 2.0
    # energies are the quadratic forms of the Lyapunov solutions
    assert design.specs[0].V(np.array([[3.0]])) == pytest.approx(9.0)


def test_linear_gains_zero_coupling_gives_zero_gain():
    model = LinearBlock(A=([[-1.0]], [[-1.0]]), delta={(0, 1): [[0.3]]},
                        B=(None, None))
    design = linear_gains(model, ([[2.0]], [[2.0]]), 0.5)
    assert isinstance(design.net.gamma[1][0], Zero)
    assert isinstance(design.net.gamma_u[0], Zero)
    assert design.G[1, 0] == 0.0


def test_linear_gains_epsilon_validation():
    model = linear_demo()[0]
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(BadParameters):
            linear_gains(model, ([[2.0]], [[2.0]]), eps)


def test_cg_design_values():
    model, design = cg_demo()
    g = design.net.gamma[0][1]
    assert isinstance(g, Compose)
    assert isinstance(g.outer, Linear)
    assert g.outer.slope == pytest.approx(2.4 * 0.2, rel=1e-12)
    assert isinstance(g.inner, Saturating) and g.inner.coeff == 1.0
    gu = design.net.gamma_u[0]
    assert isinstance(gu, Linear) and gu.slope == pytest.approx(4.8, rel=1e-12)
    m = design.net.mu[0]
    assert isinstance(m, OuterSum) and not m.external_in_sum
    assert isinstance(m.rho, Linear) and m.rho.slope == pytest.approx(2.0)
    assert design.specs[1].V(np.array([[-3.0]])) == pytest.approx(3.0)


def test_cg_gains_parameter_validation():
    model = cg_demo()[0]
    with pytest.raises(BadParameters):
        cg_gains(model, epsilon=1.0)
    with pytest.raises(BadParameters):
        cg_gains(model, epsilon=0.5, rho_slope=0.0)
    with pytest.raises(BadParameters):
        cg_gains(model, epsilon=0.5, bt=1.5)


# ---------------------------------------------------------------------------
# Certificates against trajectories


def test_linear_certificate_decrease_clean():
    model, design = linear_demo()
    cl = certified(design)
    rep = check_decrease(model, cl,
                         DecreaseSpec(samples=2000, u_norms=(0.0, 1.0), seed=0))
    assert rep.verdict == "pass"
    assert rep.violations == 0
    assert rep.evaluated == 2000
    assert rep.worst < 0.0
    assert rep.summary().startswith("verdict=pass violations=0")


def test_linear_certificate_reducible_bank():
    # blocks 1 <-> 2 feed block 3: the bank is not strongly connected, and
    # its power-of-sum rows take the ray all the same
    model = LinearBlock(
        A=([[-1.0]], [[-1.0]], [[-1.0]]),
        delta={(0, 1): [[0.2]], (1, 0): [[0.2]], (2, 1): [[0.2]]},
        B=([[1.0]], [[1.0]], [[1.0]]),
    )
    design = linear_gains(model, ([[2.0]],) * 3, 0.5)
    res = construct_path(design.net)
    assert res.route == "ray"
    assert validate_path(design.net, res.sigma).valid
    cl = certified(design)
    rep = check_decrease(model, cl,
                         DecreaseSpec(samples=2000, u_norms=(0.0, 1.0), seed=0))
    assert rep.verdict == "pass" and rep.violations == 0


def test_corrupted_certificate_is_caught():
    # shrinking the path while keeping the budget map moves the qualifying
    # region into states the input can push outward
    model, design = linear_demo()
    cl = certified(design)
    bad_sigma = OmegaPath(cl.sigma.radii, cl.sigma.values * 0.01)
    bad = replace(cl, sigma=bad_sigma)
    rep = check_decrease(model, bad,
                         DecreaseSpec(samples=2000, u_norms=(1.0,), seed=0))
    assert rep.verdict == "fail"
    assert rep.violations >= 1
    assert rep.worst > 0.0


def test_decrease_check_short_of_samples_is_inconclusive(monkeypatch):
    # every sampled state lies below the input threshold, so none is
    # evaluated: no evidence either way
    model, design = linear_demo()
    cl = certified(design)
    monkeypatch.setattr(simulate, "DECREASE_RADII", (1e-6, 1e-5))
    rep = check_decrease(model, cl, DecreaseSpec(samples=100, u_norms=(1.0,)))
    assert rep.evaluated == 0 and rep.violations == 0
    assert rep.verdict == "inconclusive"
    assert "shortfall: 100 samples" in rep.text()
    assert rep.summary().startswith("verdict=inconclusive violations=0")


def test_decrease_check_deterministic():
    model, design = linear_demo()
    cl = certified(design)
    spec = DecreaseSpec(samples=500, u_norms=(0.0, 1.0), seed=7)
    a = check_decrease(model, cl, spec)
    b = check_decrease(model, cl, spec)
    assert a == b


def _decrease_reference(model, cl, spec):
    """Reference: the sampling loop that evaluates V on every drawn state."""
    rng = np.random.default_rng(spec.seed)
    N, M = model.state_dim, model.input_dim
    lo, hi = simulate.DECREASE_RADII
    per = max(spec.samples // max(len(spec.u_norms), 1), 1)
    evaluated = violations = 0
    worst = -np.inf
    for u_norm in spec.u_norms:
        threshold = cl.iss_threshold(float(u_norm)) * (
            1.0 + simulate.THRESHOLD_GUARD)
        need, attempts = per, 0
        while need > 0 and attempts < 500:
            attempts += 1
            k = max(need * 2, 256)
            dirs = rng.normal(size=(k, N))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=k)
            X = radii[:, None] * dirs
            if M and u_norm:
                ud = rng.normal(size=(k, M))
                ud /= np.linalg.norm(ud, axis=1, keepdims=True)
                U = u_norm * ud
            else:
                U = np.zeros((k, M))
            V = cl.eval_V_batch(X)
            keep = V >= threshold
            if threshold == 0.0:
                keep = np.ones(k, dtype=bool)
            keep_idx = np.flatnonzero(keep)[:need]
            if keep_idx.size == 0:
                continue
            X, U, V = X[keep_idx], U[keep_idx], V[keep_idx]
            F = model.f(X, U)
            h = 1e-6 * (1.0 + np.linalg.norm(X, axis=1))
            vp = cl.eval_V_batch(X + h[:, None] * F)
            vm = cl.eval_V_batch(X - h[:, None] * F)
            est = (vp - vm) / (2.0 * h)
            bad = est >= -1e-8 * (1.0 + V)
            evaluated += keep_idx.size
            violations += int(np.count_nonzero(bad))
            worst = max(worst, float(np.max(est)))
            need -= keep_idx.size
    return DecreaseReport(requested=per * len(spec.u_norms), evaluated=evaluated,
                          violations=violations, worst=worst,
                          u_norms=tuple(float(u) for u in spec.u_norms))


def test_decrease_check_matches_full_evaluation_loop(monkeypatch):
    linear_model, linear_design = linear_demo()
    neural_model, neural_design = cg_demo()
    # the population's budget map is bounded: it takes small inputs only
    cases = [(linear_model, certified(linear_design), 1.0),
             (neural_model, certified(neural_design), 1e-7)]
    for model, cl, u in cases:
        for u_norms in ((0.0,), (0.0, u), (u,), (1e-3 * u, 0.0)):
            for seed in (0, 1):
                spec = DecreaseSpec(samples=600, u_norms=u_norms, seed=seed)
                assert check_decrease(model, cl, spec) == \
                    _decrease_reference(model, cl, spec)
    rows = []
    eval_V_batch = CompositeLyapunov.eval_V_batch
    monkeypatch.setattr(CompositeLyapunov, "eval_V_batch",
                        lambda self, X: rows.append(len(X)) or eval_V_batch(self, X))
    check_decrease(linear_model, cases[0][1], DecreaseSpec(samples=1000))
    # V at each kept state and at its two difference points, nothing more
    assert sum(rows) == 3 * 1000


def _decrease_scaling_every_draw(model, cl, spec):
    """Reference: the sampling loop at commit d30befa, which scales every
    drawn direction, radius and input before it keeps any."""
    rng = np.random.default_rng(spec.seed)
    N, M = model.state_dim, model.input_dim
    lo, hi = simulate.DECREASE_RADII
    per = max(spec.samples // max(len(spec.u_norms), 1), 1)
    evaluated = violations = 0
    worst = -np.inf
    for u_norm in spec.u_norms:
        threshold = cl.iss_threshold(float(u_norm)) * (
            1.0 + simulate.THRESHOLD_GUARD)
        need, attempts = per, 0
        while need > 0 and attempts < 500:
            attempts += 1
            k = max(need * 2, 256)
            dirs = rng.normal(size=(k, N))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=k)
            X = radii[:, None] * dirs
            if M and u_norm:
                ud = rng.normal(size=(k, M))
                ud /= np.linalg.norm(ud, axis=1, keepdims=True)
                U = u_norm * ud
            else:
                U = np.zeros((k, M))
            if threshold == 0.0:
                keep_idx = np.arange(min(need, k))
                V = cl.eval_V_batch(X[keep_idx])
            else:
                V = cl.eval_V_batch(X)
                keep_idx = np.flatnonzero(V >= threshold)[:need]
                if keep_idx.size == 0:
                    continue
                V = V[keep_idx]
            X, U = X[keep_idx], U[keep_idx]
            F = model.f(X, U)
            h = 1e-6 * (1.0 + np.linalg.norm(X, axis=1))
            vp = cl.eval_V_batch(X + h[:, None] * F)
            vm = cl.eval_V_batch(X - h[:, None] * F)
            est = (vp - vm) / (2.0 * h)
            bad = est >= -1e-8 * (1.0 + V)
            evaluated += keep_idx.size
            violations += int(np.count_nonzero(bad))
            worst = max(worst, float(np.max(est)))
            need -= keep_idx.size
    return DecreaseReport(requested=per * len(spec.u_norms), evaluated=evaluated,
                          violations=violations, worst=worst,
                          u_norms=tuple(float(u) for u in spec.u_norms))


@pytest.mark.parametrize("name, u, radii, attempts", [
    ("linear", 1.0, None, 1),
    ("cg", 1e-7, None, 1),
    # a threshold above zero that few draws clear
    ("linear", 1.0, (0.1, 10.0), 4),
    ("cg", 1e-7, (1e-6, 5e-5), 4),
])
def test_decrease_check_scales_only_the_kept_samples(monkeypatch, name, u, radii,
                                                     attempts):
    # the same stream in the same order, scaled only where it is kept: the
    # reports equal the reference's bit for bit, undriven and driven
    model, design = linear_demo() if name == "linear" else cg_demo()
    cl = certified(design)
    if radii:
        monkeypatch.setattr(simulate, "DECREASE_RADII", radii)
    for u_norms in ((0.0,), (u,), (0.0, u)):
        spec = DecreaseSpec(samples=200, u_norms=u_norms, seed=3)
        got = check_decrease(model, cl, spec)
        want = _decrease_scaling_every_draw(model, cl, spec)
        assert got == want and got.worst.hex() == want.worst.hex()
        assert got.evaluated == 200
    # the driven draw's attempts: each one evaluates V on its k >= 256
    # states, and the kept states' calls take at most the 200 requested
    rows = []
    eval_V_batch = CompositeLyapunov.eval_V_batch
    monkeypatch.setattr(CompositeLyapunov, "eval_V_batch",
                        lambda self, X: rows.append(len(X)) or eval_V_batch(self, X))
    check_decrease(model, cl, DecreaseSpec(samples=200, u_norms=(u,), seed=3))
    assert sum(r >= 256 for r in rows) >= attempts


def test_zero_input_trajectories_contract():
    model, design = linear_demo()
    cl = certified(design)
    rep = check_iss_bound(model, cl, IssRunSpec(runs=8, T=12.0, dt=1e-3, seed=3))
    assert rep.kind == "zero-input"
    assert rep.verdict == "pass"
    assert rep.drift_worst <= 1e-8
    assert rep.contraction_worst < 1e-3


def test_short_horizon_fails_contraction():
    # the check reports honestly when the horizon is too short to settle
    model, design = linear_demo()
    cl = certified(design)
    rep = check_iss_bound(model, cl, IssRunSpec(runs=4, T=2.0, dt=1e-3))
    assert rep.verdict == "fail"
    assert rep.contraction_worst >= 1e-3


def test_step_input_settles_under_threshold():
    model, design = linear_demo()
    cl = certified(design)
    rep = check_iss_bound(
        model, cl,
        IssRunSpec(runs=8, T=8.0, dt=1e-3, x0_scale=20.0,
                   signal=InputSignal.step([1.0]), seed=5))
    assert rep.kind == "driven"
    assert rep.verdict == "pass"
    assert rep.threshold == pytest.approx(cl.iss_threshold(1.0))
    assert rep.settle_worst < 0.2


def test_cg_certificate_zero_input():
    model, design = cg_demo()
    cl = certified(design)
    rep = check_iss_bound(model, cl, IssRunSpec(runs=8, T=12.0, dt=1e-3, seed=1))
    assert rep.verdict == "pass"
    assert rep.drift_worst <= 1e-8


# check_iss_bound's linear reports at commit 88629b0, before the runs were
# grouped, when the bank stepped one RK4 step at a time
STEPWISE_ISS_LINEAR = (
    IssBoundReport(kind="zero-input", runs=6, violations=6,
                   worst=-0.0002519584120919769,
                   drift_worst=-0.0002519584120919769,
                   contraction_worst=0.09017541973882379),
    IssBoundReport(kind="driven", runs=6, violations=0,
                   worst=0.008856267970777572,
                   settle_worst=0.008856267970777572,
                   threshold=19.584673620537625))

# check_iss_bound's reports: the cg pair at commit 88629b0, before the runs
# were grouped; the linear pair since the bank advances a guard block in
# closed form, within 1e-12 of STEPWISE_ISS_LINEAR
FROZEN_ISS = {
    "linear": (
        IssBoundReport(kind="zero-input", runs=6, violations=6,
                       worst=-0.00025195841209197864,
                       drift_worst=-0.00025195841209197864,
                       contraction_worst=0.09017541973882466),
        IssBoundReport(kind="driven", runs=6, violations=0,
                       worst=0.00885626797077765,
                       settle_worst=0.00885626797077765,
                       threshold=19.584673620537636)),
    "cg": (
        IssBoundReport(kind="zero-input", runs=6, violations=6,
                       worst=-6.1896983540825205e-06,
                       drift_worst=-6.1896983540825205e-06,
                       contraction_worst=0.012545527977154679),
        IssBoundReport(kind="driven", runs=6, violations=0,
                       worst=0.014685701988166691,
                       settle_worst=0.014685701988166691,
                       threshold=4.440095313896107)),
}


@pytest.mark.parametrize("name", ["linear", "cg"])
def test_iss_reports_grouped_and_alone_match_frozen(name):
    if name == "linear":
        (model, design), signal = linear_demo(), InputSignal.sinusoid([0.8], 3.0, 0.2)
    else:
        (model, design), signal = cg_demo(), InputSignal.piecewise(
            [0.5, 1.5], [[0.3, -0.2], [-0.1, 0.4]])
    # the cg reports were frozen on the bounded path; certify gives the
    # neural design its slope majorant's ray, so the test builds that path
    cl = (certified(design) if name == "linear"
          else compose(design.net, path_bounded(design.net), design.specs))
    spec = IssRunSpec(runs=6, T=3.0, dt=0.01, x0_scale=2.0, seed=7)
    zero = InputSignal.zero(model.input_dim)
    alone = (check_iss_bound(model, cl, spec),
             check_iss_bound(model, cl, replace(spec, signal=signal)))
    assert alone == FROZEN_ISS[name]
    if name == "linear":
        for got, was in zip(alone, STEPWISE_ISS_LINEAR):
            for field in fields(IssBoundReport):
                a, b = getattr(got, field.name), getattr(was, field.name)
                assert a == b if not isinstance(a, float) else \
                    math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    assert tuple(check_iss_bounds(model, cl, spec, (zero, signal))) == alone
    assert tuple(check_iss_bounds(model, cl, spec, (signal, zero))) == alone[::-1]


def test_iss_bounds_evaluate_V_only_where_the_reports_read_it(monkeypatch):
    # the zero-input report reads V at every step, the driven report over
    # the last SETTLE_FRACTION of the horizon only
    model, design = linear_demo()
    cl = certified(design)
    spec = IssRunSpec(runs=6, T=2.0, dt=0.05, seed=2)
    steps = 40
    tail = math.ceil((1.0 - simulate.SETTLE_FRACTION) * steps)
    zero, step = InputSignal.zero(1), InputSignal.step([1.0])
    rows = []
    eval_V_batch = CompositeLyapunov.eval_V_batch
    monkeypatch.setattr(CompositeLyapunov, "eval_V_batch",
                        lambda self, X: rows.append(len(X)) or eval_V_batch(self, X))
    list(check_iss_bounds(model, cl, spec, (zero, step)))
    assert rows == [(steps + 1) * spec.runs, (steps + 1 - tail) * spec.runs]
    rows.clear()
    list(check_iss_bounds(model, cl, spec, (zero,)))
    assert rows == [(steps + 1) * spec.runs]


@pytest.mark.parametrize("a, b", [(-1.0, 10.0), (5.0, -10.0)])
def test_iss_bounds_raise_each_groups_divergence_in_turn(a, b):
    # the reports and the Diverged of one-signal calls, in signal order: the
    # reports of the signals before a diverged one, then its exception
    model, cl = ScaledGrowth(a, b), certified(linear_demo()[1])
    spec = IssRunSpec(runs=4, T=8.0, dt=0.01, seed=2)
    signals = (InputSignal.zero(1), InputSignal.constant([1.0]))
    want = []
    for signal in signals:
        try:
            want.append(check_iss_bound(model, cl, replace(spec, signal=signal)))
        except Diverged as exc:
            want.append((str(exc), exc.t))
            break
    got = []
    with pytest.raises(Diverged) as exc:
        for rep in check_iss_bounds(model, cl, spec, signals):
            got.append(rep)
    got.append((str(exc.value), exc.value.t))
    assert got == want
    # the one diverged run's time, from the staged reference
    rng = np.random.default_rng(spec.seed)
    X0 = rng.normal(size=(spec.runs, 2))
    X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
    with pytest.raises(Diverged) as ref:
        _staged_rk4(model, X0, signals[len(want) - 1], 800, spec.dt)
    assert want[-1] == (str(ref.value), ref.value.t)
    assert len(want) == (2 if a < 0 else 1)


def test_cg_decrease_clean():
    model, design = cg_demo()
    cl = certified(design)
    rep = check_decrease(model, cl, DecreaseSpec(samples=1000, seed=2))
    assert rep.verdict == "pass"
    assert rep.violations == 0
