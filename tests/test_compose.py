import importlib

import numpy as np
import pytest

from smallgain.compose import (
    CompositeLyapunov,
    PLFunction,
    SubsystemSpec,
    certify,
    compose,
    derive_phi,
)
from smallgain.errors import GeneralCondFails, OutOfRange
from smallgain.gains import (
    GainNetwork,
    Linear,
    MaxAgg,
    Power,
    Saturating,
    SumAgg,
    Zero,
)
from smallgain.paths import (
    RADIUS_MAX,
    OmegaPath,
    path_homogeneous,
    path_irreducible,
    path_max,
    path_reducible,
)
from smallgain.sgc import CERTIFIED_HOLDS, check_cycle_condition, decide
from smallgain.simulate import CohenGrossberg, cg_gains, linear_demo

Z = Zero()
# the package's ``compose`` name is the function; this is its module
compose_mod = importlib.import_module("smallgain.compose")


def net_of(rows, mu, gu=None):
    n = len(rows)
    return GainNetwork(n, tuple(tuple(r) for r in rows),
                       tuple(gu) if gu else (Z,) * n, tuple(mu))


def abs_spec():
    return SubsystemSpec(dim=1, V=lambda X: np.abs(X[:, 0]))


def quad_spec(dim=2):
    return SubsystemSpec(dim=dim, V=lambda X: np.einsum("mi,mi->m", X, X))


def tilted_path(n, slopes, top=1e6):
    slopes = np.asarray(slopes, dtype=float)
    return OmegaPath(np.array([0.0, top]),
                     np.vstack([np.zeros(n), top * slopes]))


def half_max_net(gu_slope=1.0):
    g = Linear(0.5)
    return net_of([[Z, g], [g, Z]], [MaxAgg(), MaxAgg()],
                  gu=[Linear(gu_slope), Linear(gu_slope)])


def test_max_mode_budget_frozen_example():
    net = half_max_net()
    sigma = tilted_path(2, [1.0, 0.75])
    phi = derive_phi(net, sigma)
    # row images are (0.375 r, 0.5 r), so the midpoints are
    # r - (r - 0.375 r)/2 = 0.6875 r and 0.75 r - (0.75 r - 0.5 r)/2 = 0.625 r;
    # a max row takes the external slot up to its midpoint, and unit
    # external gains keep the smaller one
    for r in [0.01, 1.0, 3000.0]:
        assert phi(r) == pytest.approx(0.625 * r, rel=1e-12)
    cl = compose(net, sigma, [abs_spec(), abs_spec()])
    assert cl.iss_threshold(1.0) == pytest.approx(1.6, rel=1e-9)
    assert cl.iss_threshold(0.0) == 0.0


def test_additive_mode_with_shifted_path():
    # the seed-and-chain path keeps a margin on every row; the budget
    # takes half of it, row by row
    g = Linear(0.25)
    net = net_of([[Z, g, g], [g, Z, g], [g, g, Z]], [SumAgg()] * 3,
                 gu=[Linear(1.0)] * 3)
    sigma = path_irreducible(net)
    cl = compose(net, sigma, [abs_spec()] * 3)
    rr = np.geomspace(1e-4, 1e4, 50)
    assert np.all(cl.phi(rr) > 0)
    pos = sigma.radii[1:]
    states = sigma(pos)
    image = 0.25 * (states.sum(axis=1, keepdims=True) - states)
    half = 0.5 * (states - image)
    # unit external gains: the budget is the smallest half margin, made
    # nondecreasing from the right
    ref = np.minimum.accumulate(np.minimum(pos, half.min(axis=1))[::-1])[::-1]
    assert np.allclose(cl.phi.values[1:], ref, rtol=1e-12, atol=0.0)


def test_additive_rows_certify_without_shift():
    # rows adding the external slot on top take half of their path margin:
    # row images (0.225 r, 0.3 r) against the path (r, 0.75 r) leave
    # budgets (0.3875 r, 0.225 r), and unit external gains keep the smaller
    g = Linear(0.3)
    net = net_of([[Z, g], [g, Z]], [SumAgg(), SumAgg()],
                 gu=[Linear(1.0), Linear(1.0)])
    sigma = tilted_path(2, [1.0, 0.75])
    phi = derive_phi(net, sigma)
    for r in [0.01, 1.0, 3000.0]:
        assert phi(r) == pytest.approx(0.225 * r, rel=1e-12)
    cl = compose(net, sigma, [abs_spec(), abs_spec()])
    assert cl.margins.min() > 0.0


def test_no_external_gains_identity_budget():
    g = Linear(0.5)
    net = net_of([[Z, g], [g, Z]], [MaxAgg(), MaxAgg()])
    sigma = path_max(net, check_cycle_condition(net))
    cl = compose(net, sigma, [abs_spec(), abs_spec()])
    for r in [0.25, 7.0]:
        assert cl.phi(r) == pytest.approx(r)
    assert cl.iss_threshold(5.0) == 0.0


def test_bounded_external_gain_drops_from_min():
    # the second row's external gain saturates at 2; once the row's
    # midpoint passes that level the row stops constraining the budget
    g = Linear(0.5)
    net = net_of([[Z, g], [g, Z]], [MaxAgg(), MaxAgg()],
                 gu=[Linear(1.0), Saturating(2.0)])
    sigma = path_max(net, check_cycle_condition(net))
    assert np.allclose(sigma.values[:, 0], sigma.values[:, 1])
    phi = derive_phi(net, sigma)
    # on the path (r, r) both midpoints are r - (r - 0.5 r)/2 = 0.75 r; at
    # r = 1 the saturating gain reaches 0.75 at 0.6, while at large radii
    # row 1 alone constrains: phi tracks 0.75 r
    assert phi(1.0) == pytest.approx(0.6, rel=2e-2)
    assert phi(1e5) == pytest.approx(0.75 * 1e5, rel=1e-3)


def test_bounded_budget_restricted_input_range():
    s = Saturating(1.0)
    net = net_of([[Z, s], [s, Z]], [MaxAgg(), MaxAgg()],
                 gu=[Linear(1.0), Linear(1.0)])
    sigma = path_max(net, check_cycle_condition(net))
    cl = compose(net, sigma, [abs_spec(), abs_spec()])
    # the row images stay below 1, but half of each row's margin grows
    # with the path, so input 2 is covered: on the path (r, r) the
    # midpoint r - (r - r/(1+r))/2 reaches 2 at r = 1 + sqrt(5)
    assert cl.iss_threshold(2.0) == pytest.approx(1.0 + 5 ** 0.5, rel=1e-3)
    # past the last anchor value the budget map certifies nothing
    with pytest.raises(OutOfRange):
        cl.iss_threshold(2.0 * cl.phi.values[-1])


def test_general_condition_failure_reports_radius(monkeypatch):
    # the identity budget lets the input fill each row past its path margin
    g = Linear(0.5)
    net = net_of([[Z, g], [g, Z]], [SumAgg(), SumAgg()],
                 gu=[Linear(1.0), Linear(1.0)])
    sigma = tilted_path(2, [1.0, 1.0])
    monkeypatch.setattr(compose_mod, "derive_phi", lambda net, sigma: PLFunction(
        np.array([0.0, RADIUS_MAX]), np.array([0.0, RADIUS_MAX])))
    with pytest.raises(GeneralCondFails) as exc:
        compose(net, sigma, [abs_spec(), abs_spec()])
    assert exc.value.radius is not None


def test_eval_V_and_ties():
    net = half_max_net()
    sigma = tilted_path(2, [1.0, 0.75])
    cl = compose(net, sigma, [abs_spec(), abs_spec()])
    v, active = cl.eval_V(np.array([2.0, 0.3]))
    assert v == pytest.approx(2.0)
    assert active == (0,)
    # component 2 rescales by 1/0.75
    v, active = cl.eval_V(np.array([0.0, 3.0]))
    assert v == pytest.approx(4.0)
    assert active == (1,)
    v, active = cl.eval_V(np.array([1.5, 1.125]))
    assert active == (0, 1)


def test_eval_V_scaling_invariance():
    net = half_max_net()
    rng = np.random.default_rng(9)
    cl1 = compose(net, tilted_path(2, [1.0, 0.75]),
                  [abs_spec(), abs_spec()])
    cl2 = compose(net, tilted_path(2, [2.0, 1.5]),
                  [abs_spec(), abs_spec()])
    for _ in range(25):
        x = rng.uniform(0, 5, 2)
        v1, a1 = cl1.eval_V(x)
        v2, a2 = cl2.eval_V(x)
        assert a1 == a2
        assert v1 == pytest.approx(2.0 * v2)


def test_eval_V_batch_matches_scalar():
    net = half_max_net()
    cl = compose(net, tilted_path(2, [1.0, 0.75]),
                 [abs_spec(), abs_spec()])
    rng = np.random.default_rng(2)
    X = rng.uniform(-3, 3, (40, 2))
    batch = cl.eval_V_batch(X)
    singles = np.array([cl.eval_V(x)[0] for x in X])
    assert np.allclose(batch, singles)


def test_eval_V_batch_equals_per_row_reference():
    # the levels are filled one subsystem at a time and reduced over the
    # subsystem axis: every value must equal the per-row maximum of the
    # rescaled energies exactly, on exact-zero blocks, tied levels and
    # states past the path's last anchor, and eval_V's active set must be
    # the tolerance set of those levels
    g = Linear(0.3)
    net = net_of([[Z, g, g], [g, Z, g], [g, g, Z]], [MaxAgg()] * 3)
    radii = np.array([0.0, 1.0, 10.0, 1e6])
    sigma = OmegaPath(radii, np.column_stack(
        [radii, radii, [0.0, 0.8, 9.0, 0.7e6]]))
    specs = [abs_spec(), abs_spec(), quad_spec(2)]
    cl = compose(net, sigma, specs)
    rng = np.random.default_rng(17)
    X = rng.normal(size=(60, 4)) * 10.0 ** rng.uniform(-3, 6.5, (60, 1))
    X[0] = 0.0
    X[1, 0] = 0.0
    X[2, 2:] = 0.0
    X[3, :2] = 0.0
    X[4] = [2.5, -2.5, 0.1, 0.0]      # subsystems 0 and 1 tie exactly
    X[5] = [3e6, 0.0, 0.0, 0.0]       # past the last anchor
    X[6] = [0.0, 1.0, 5e3, 5e3]       # past the last anchor
    slices = [(0, 1), (1, 2), (2, 4)]
    want = []
    active_want = []
    for x in X:
        levels = [cl.sigma.inverse(i, max(float(spec.V(x[None, a:b])[0]), 0.0))
                  for i, (spec, (a, b)) in enumerate(zip(specs, slices))]
        vmax = max(levels)
        want.append(vmax)
        tol = 1e-12 * max(1.0, vmax)
        active_want.append(tuple(i for i, v in enumerate(levels)
                                 if abs(v - vmax) <= tol))
    want = np.array(want)
    assert np.array_equal(cl.eval_V_batch(X), want)
    for x, v, active in zip(X, want, active_want):
        assert cl.eval_V(x) == (v, active)
    assert active_want[0] == (0, 1, 2)
    assert active_want[4] == (0, 1)
    assert want[5] > 1e6 and want[6] > 1e6


def interp_V(cl, X):
    """Composite V from the path's anchors by ``np.interp``, continued with
    the last segment's slope past them."""
    rows = []
    for i, (spec, off) in enumerate(zip(cl.subsystems, cl.offsets)):
        y = np.maximum(spec.V(X[:, off:off + spec.dim]), 0.0)
        col = cl.sigma.values[:, i]
        r = np.interp(y, col, cl.sigma.radii)
        beyond = y > col[-1]
        r[beyond] = cl.sigma.radii[-1] + (y[beyond] - col[-1]) / cl.sigma.tail_slopes[i]
        rows.append(r)
    return np.max(rows, axis=0)


def wide_states(cl, seed):
    # magnitudes from 1e-4 to past the last anchor, and the origin
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, cl.state_dim)) * 10.0 ** rng.uniform(-4, 7, (200, 1))
    X[0] = 0.0
    return X


def test_eval_V_batch_interpolates_every_path_but_a_ray(monkeypatch):
    # a bounded path (bounded_pair's, whose slope majorant has radius one)
    # and a ray with unequal exponents interpolate; the straight ray of the
    # linear demo divides
    sat = Saturating(1.0)
    bounded = certify(net_of([[Z, sat], [sat, Z]], [SumAgg()] * 2), [abs_spec()] * 2)
    g = net_of([[Z, Power(0.4, 0.5), Z], [Z, Z, Linear(0.5)],
                [Power(0.3, 2.0), Z, Z]], [SumAgg()] * 3)
    unequal = compose(g, path_homogeneous(g, decide(g)), [abs_spec()] * 3)
    assert bounded.route == "bounded" and bounded.sigma.ray is None
    assert unequal.sigma.ray is None
    for cl in (bounded, unequal):
        X = wide_states(cl, 23)
        assert np.array_equal(cl.eval_V_batch(X), interp_V(cl, X))
    design = linear_demo()[1]
    ray = certify(design.net, design.specs)
    assert ray.route == "ray" and ray.sigma.ray is not None
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda *a, **k: calls.append(1) or interp(*a, **k))
    X = wide_states(ray, 29)
    V = ray.eval_V_batch(X)
    assert not calls
    energies = [np.maximum(spec.V(X[:, off:off + spec.dim]), 0.0) / d
                for spec, off, d in zip(ray.subsystems, ray.offsets, ray.sigma.ray)]
    assert np.array_equal(V, np.max(energies, axis=0))
    bounded.eval_V_batch(wide_states(bounded, 31))
    assert calls


def neural_design(rng, neurons):
    """A neural population whose slope matrix ``2.4 * 2 |T|`` has its
    spectral radius drawn in ``[0.35, 0.95]``, on a ring plus extra edges."""
    ring = np.roll(np.eye(neurons, dtype=bool), 1, axis=1)
    adj = (ring | (rng.random((neurons, neurons)) < 0.4)) & ~np.eye(neurons, dtype=bool)
    T = np.where(adj, rng.uniform(-1.0, 1.0, (neurons, neurons)), 0.0)
    T *= rng.uniform(0.35, 0.95) / np.max(np.abs(np.linalg.eigvals(4.8 * np.abs(T))))
    ones = np.ones(neurons)
    model = CohenGrossberg(alpha_lo=ones, alpha_hi=1.2 * ones, b_slope=1.5 * ones,
                           t_matrix=T, act_scale=2.0 * ones)
    return cg_gains(model, epsilon=0.5, rho_slope=1.0, bt=1.0)


def test_neural_designs_certify_on_the_majorant_ray(monkeypatch):
    # the outer-sum rows' slope majorant proves each design and gives it a
    # straight ray, so its composite V divides and never interpolates (the
    # path and the budget map still interpolate where certify reads them)
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda *a, **k: calls.append(1) or interp(*a, **k))
    rng = np.random.default_rng(31)
    for k in range(40):
        design = neural_design(rng, 2 + k % 3)
        v = decide(design.net)
        assert (v.status, v.method) == (CERTIFIED_HOLDS, "majorant")
        cl = certify(design.net, design.specs)
        assert cl.route == "majorant" and cl.sigma.ray is not None
        X = wide_states(cl, k)
        calls.clear()
        V = cl.eval_V_batch(X)
        assert not calls
        energies = [np.abs(X[:, i]) / d for i, d in enumerate(cl.sigma.ray)]
        assert np.array_equal(V, np.max(energies, axis=0))


def test_subsystem_audit_rejects_bad_energy():
    net = half_max_net()
    sigma = tilted_path(2, [1.0, 0.75])
    shifted = SubsystemSpec(dim=1, V=lambda X: np.abs(X[:, 0]) + 1.0)
    with pytest.raises(ValueError):
        compose(net, sigma, [shifted, abs_spec()])
    indefinite = SubsystemSpec(dim=1, V=lambda X: X[:, 0])
    with pytest.raises(ValueError):
        compose(net, sigma, [indefinite, abs_spec()])


def test_subsystem_audit_rejects_per_state_energy():
    net = half_max_net()
    sigma = tilted_path(2, [1.0, 0.75])
    # an energy written for one state returns one scalar for the batch
    per_state = SubsystemSpec(dim=1, V=lambda x: abs(float(x[0])))
    with pytest.raises(ValueError, match=r"batch of states to shape \(m,\)"):
        compose(net, sigma, [per_state, abs_spec()])
    per_state_quad = SubsystemSpec(dim=2, V=lambda x: float(x @ x))
    with pytest.raises(ValueError, match=r"batch of states to shape \(m,\)"):
        compose(net, sigma, [abs_spec(), per_state_quad])


def test_compose_with_reducible_budget():
    net = net_of([[Z, Linear(0.7)], [Z, Z]], [SumAgg(), SumAgg()],
                 gu=[Z, Linear(1.0)])
    cl = compose(net, path_reducible(net), [abs_spec(), abs_spec()])
    assert cl.phi(2.0) == pytest.approx(1.0, rel=1e-6)
    assert cl.iss_threshold(1.0) == pytest.approx(2.0, rel=1e-6)


def test_multidimensional_slices():
    net = half_max_net()
    sigma = tilted_path(2, [1.0, 1.0])
    cl = compose(net, sigma, [quad_spec(2), quad_spec(3)])
    assert cl.state_dim == 5
    x = np.array([1.0, 2.0, 0.0, 0.0, 1.0])
    v, active = cl.eval_V(x)
    assert v == pytest.approx(5.0)
    assert active == (0,)
