import importlib
import io
from dataclasses import replace

import numpy as np
import pytest

from smallgain.errors import (
    CompatibilityError,
    OutOfRange,
    PathStalled,
    SgcFails,
    SmallGainError,
    Stalled,
)
from smallgain.gains import (
    BlockMaxSum,
    Compose,
    GainExpr,
    GainNetwork,
    Linear,
    Max,
    MaxAgg,
    OuterSum,
    PlusId,
    Power,
    Saturating,
    Sum,
    SumAgg,
    Zero,
    eval_operator,
    eval_operator_ext,
    strictly_less,
    zero_rows,
)
import smallgain.paths as paths_module
from gen import random_concave_net, random_mixed_sum_net, random_network
from smallgain import sgc
from smallgain.compose import PLFunction, certify, compose, derive_phi
from smallgain.parser import parse_gain
from smallgain.simulate import CohenGrossberg, cg_gains, linear_demo
from smallgain.graph import adjacency, is_irreducible
from smallgain.sgc import (
    check_cycle_condition,
    check_majorant,
    decide,
    nonlinear_perron,
    route_line,
)
from smallgain.paths import (
    OmegaPath,
    PathResult,
    VALIDATION_GRID,
    construct_path,
    export_path_csv,
    path_bounded,
    path_homogeneous,
    path_irreducible,
    path_majorant,
    path_max,
    path_mixed,
    path_reducible,
    path_three_sum,
    validate_path,
    write_csv,
)

Z = Zero()
# the package's ``compose`` name is the function; this is its module
compose_mod = importlib.import_module("smallgain.compose")


def net_of(rows, mu, gu=None):
    n = len(rows)
    return GainNetwork(n, tuple(tuple(r) for r in rows),
                       tuple(gu) if gu else (Z,) * n, tuple(mu))


def max2(slope):
    g = Linear(slope)
    return net_of([[Z, g], [g, Z]], [MaxAgg(), MaxAgg()])


def sum2(slope):
    g = Linear(slope)
    return net_of([[Z, g], [g, Z]], [SumAgg(), SumAgg()])


def sum3_complete(slope):
    g = Linear(slope)
    return net_of([[Z, g, g], [g, Z, g], [g, g, Z]], [SumAgg()] * 3)


def bent(slope):
    """A gain at most ``slope * s`` that is neither a power law nor read
    with a slope at zero (its ``s^2`` part), which keeps a network off the
    ray and the slope majorant and on the constructor under test."""
    return Sum((Linear(0.8 * slope), Compose(Saturating(0.2 * slope), Power(1.0, 2.0))))


def assert_proves_failure(net, verdict):
    """A constructor's failing verdict proves the failure on ``net``: its
    witness re-checks there, or, from the cycle route, it names a cycle."""
    assert verdict.fails
    if verdict.witness is not None:
        assert sgc._is_witness(net, verdict.witness)
    else:
        assert verdict.method == "cycle" and verdict.cycle is not None


def assert_block_verdict(net, verdict, block):
    """A failing diagonal block's verdict read on the network: the witness
    is zero outside ``block`` and re-checks on ``net``, the cycle runs
    through network indices of the block."""
    assert verdict.fails and verdict.witness is not None
    outside = [i for i in range(net.n) if i not in block]
    assert np.all(verdict.witness[outside] == 0.0)
    assert sgc._is_witness(net, verdict.witness)
    if verdict.cycle is not None:
        assert set(verdict.cycle) <= set(block)
        assert verdict.cycle[0] == max(verdict.cycle)


def assert_dispatched(net, route):
    """``construct_path`` certifies ``net`` on ``route``: only it dispatches,
    so a constructor called on another shape raises instead."""
    res = construct_path(net)
    assert res.route == route
    assert validate_path(net, res.sigma).valid
    return res.sigma


def closure(net):
    """``path_max`` on the hold of the network's own cycle route."""
    return path_max(net, check_cycle_condition(net))


def margin_floor_ok(net, sigma):
    rr = np.geomspace(1e-6, 1e6, 1000)
    states = sigma(rr)
    margins = np.min(states - eval_operator(net, states), axis=1)
    floor = 1e-9 * np.maximum(1.0, np.max(states, axis=1))
    return bool(np.all(margins >= floor))


# ---------------------------------------------------------------------------
# path types


def test_omega_path_call_and_tail():
    p = OmegaPath(np.array([0.0, 1.0, 2.0]),
                  np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 5.0]]))
    assert np.allclose(p(0.5), [0.5, 1.0])
    assert np.allclose(p(2.0), [3.0, 5.0])
    # tail continues with the last segment slope
    assert np.allclose(p(4.0), [3.0 + 2 * 2.0, 5.0 + 2 * 3.0])
    batch = p(np.array([0.5, 4.0]))
    assert batch.shape == (2, 2)


def test_omega_path_inverse_roundtrip():
    rng = np.random.default_rng(3)
    radii = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 6))])
    vals = np.cumsum(rng.uniform(0.05, 2.0, (7, 3)), axis=0)
    vals[0] = 0.0
    p = OmegaPath(radii, vals)
    for i in range(3):
        for y in [0.01, 0.5, vals[-1, i] * 0.99, vals[-1, i] * 7.3]:
            r = p.inverse(i, y)
            assert abs(p(r)[i] - y) <= 1e-9 * max(1.0, y)


def test_omega_path_rejects_non_strict():
    with pytest.raises(ValueError):
        OmegaPath(np.array([0.0, 1.0, 1.0]),
                  np.array([[0.0], [1.0], [2.0]]))
    with pytest.raises(ValueError):
        OmegaPath(np.array([0.0, 1.0, 2.0]),
                  np.array([[0.0], [1.0], [1.0]]))
    with pytest.raises(ValueError):
        OmegaPath(np.array([0.5, 1.0]), np.array([[0.0], [1.0]]))


def interp_inverse(sigma, i, y):
    """The anchors' inverse: ``np.interp``, then the last segment's slope
    past the last anchor."""
    yy = np.atleast_1d(np.asarray(y, dtype=float))
    col = sigma.values[:, i]
    out = np.interp(yy, col, sigma.radii)
    beyond = yy > col[-1]
    out[beyond] = sigma.radii[-1] + (yy[beyond] - col[-1]) / sigma.tail_slopes[i]
    return out


def ray_paths():
    """Straight rays of both constructors: the linear demo design on
    ``path_homogeneous``, a concave sum network on ``path_majorant``, and
    an asymmetric linear pair, whose direction is not all ones."""
    lin = linear_demo()[1].net
    tilted = net_of([[Z, Linear(0.3)], [Linear(0.6), Z]], [SumAgg(), SumAgg()])
    rays = [path_homogeneous(net, decide(net)) for net in (lin, tilted)]
    rng = np.random.default_rng(41)
    while True:
        net, _W = random_concave_net(rng, "sum")
        verdict = check_majorant(net)
        if verdict.holds:
            return [rays[0], path_majorant(net, verdict), rays[1]]


def test_ray_path_carries_its_direction():
    paths = ray_paths()
    for sigma in paths:
        d = sigma.ray
        assert d is not None and d.shape == (sigma.n,) and np.all(d > 0)
        assert np.array_equal(sigma.values, sigma.radii[:, None] * d)
    assert not np.all(paths[-1].ray == 1.0)


def test_ray_inverse_divides_by_the_direction():
    rng = np.random.default_rng(8)
    for sigma in ray_paths():
        for i in range(sigma.n):
            col, d = sigma.values[:, i], sigma.ray[i]
            between = 0.5 * (col[1:] + col[:-1])
            levels = np.concatenate([
                [0.0, -1.0, -1e-300], col, between,
                col[-1] * rng.uniform(1.0, 1e3, 20), rng.uniform(-5.0, 0.0, 5)])
            got = sigma.inverse(i, levels)
            assert np.array_equal(got, np.maximum(levels, 0.0) / d)
            for y in [0.0, -2.0, float(col[7]), float(between[40]), 3.0 * float(col[-1])]:
                r = sigma.inverse(i, y)
                assert isinstance(r, float) and r == max(y, 0.0) / d
            ref = interp_inverse(sigma, i, levels)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


def test_ray_direction_must_reproduce_the_anchors():
    sigma = ray_paths()[1]
    d = sigma.ray
    with pytest.raises(ValueError, match="does not reproduce"):
        OmegaPath(sigma.radii, sigma.values, ray=d * (1 + 1e-15))
    with pytest.raises(ValueError, match="does not reproduce"):
        replace(sigma, values=sigma.values * 0.01)
    for bad in (np.append(d, 1.0), -d, np.where(d == d.max(), np.inf, d)):
        with pytest.raises(ValueError, match="finite and positive"):
            OmegaPath(sigma.radii, sigma.values, ray=bad)
    # a rescaled copy without the direction interpolates its anchors
    shrunk = OmegaPath(sigma.radii, sigma.values * 0.01)
    assert shrunk.ray is None
    levels = np.geomspace(1e-9, 1e9, 50)
    assert np.array_equal(shrunk.inverse(0, levels), interp_inverse(shrunk, 0, levels))


def test_pl_function_flat_and_tail():
    f = PLFunction(np.array([0.0, 1.0, 2.0, 3.0]),
                   np.array([0.0, 1.0, 1.0, 2.0]))
    assert f(0.5) == 0.5
    assert f(1.5) == 1.0
    assert f(5.0) == 4.0
    # leftmost preimage on the flat stretch
    assert f.inverse(1.0) == 1.0
    assert f.inverse(0.25) == 0.25


def test_pl_function_bounded_inverse_raises():
    f = PLFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(OutOfRange):
        f.inverse(1.5)


def test_pl_function_inverse_stops_at_last_anchor():
    # a concave map lies below its last chord past the last anchor, so no
    # level above the last anchor value inverts
    f = PLFunction(np.array([0.0, 1.0, 4.0]), np.array([0.0, 1.0, 2.0]))
    assert f.inverse(2.0) == 4.0
    assert f.inverse(1.5) == 2.5
    with pytest.raises(OutOfRange) as exc:
        f.inverse(2.5)
    assert exc.value.sup == 2.0 and exc.value.value == 2.5


# ---------------------------------------------------------------------------
# validate_path


def test_validate_identity_against_half_slopes():
    net = max2(0.5)
    sigma = OmegaPath(np.array([0.0, 1e6]), np.array([[0.0, 0.0], [1e6, 1e6]]))
    rep = validate_path(net, sigma)
    assert rep.valid
    # margin at radius r is r - 0.5 r; the grid starts at 1e-6
    assert np.isclose(rep.min_margin, 0.5e-6)


def test_validate_flags_expanding_slopes():
    net = max2(2.0)
    sigma = OmegaPath(np.array([0.0, 1e6]), np.array([[0.0, 0.0], [1e6, 1e6]]))
    rep = validate_path(net, sigma)
    assert not rep.valid
    assert rep.min_margin < 0


# ---------------------------------------------------------------------------
# downward iteration


def downward(net, s0, stop=1e-12):
    # the origin closes the leg, as the constructors' _finalize does
    anchors = paths_module._downward_leg(lambda s: eval_operator(net, s),
                                         np.asarray(s0, dtype=float), stop)
    return np.array(anchors + [np.zeros(net.n)])


def test_downward_geometric_anchors_max():
    net = max2(0.5)
    anchors = downward(net, [1.0, 1.0])
    assert np.all(anchors[-1] == 0.0)
    ks = np.arange(len(anchors) - 1)
    assert np.allclose(anchors[:-1, 0], 0.5**ks)
    assert anchors[-2].max() < 1e-12
    assert anchors[-3].max() >= 1e-12


def test_downward_geometric_anchors_sum():
    net = sum2(0.4)
    anchors = downward(net, [1.0, 1.0])
    ks = np.arange(len(anchors) - 1)
    assert np.allclose(anchors[:-1, 1], 0.4**ks)


def test_downward_fixed_point_stalls():
    net = max2(1.0)
    with pytest.raises(Stalled):
        downward(net, [1.0, 1.0])


def test_downward_outside_omega():
    net = max2(1.5)
    with pytest.raises(PathStalled, match="not strictly inside the decay set"):
        downward(net, [1.0, 1.0])


def test_downward_convergence_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        slopes = rng.uniform(0.1, 0.9 / max(1, n - 1), (n, n))
        rows = [[Linear(float(slopes[i, j])) if i != j else Z
                 for j in range(n)] for i in range(n)]
        net = net_of(rows, [SumAgg()] * n)
        s0 = float(rng.uniform(0.5, 2.0)) * np.ones(n)
        anchors = downward(net, s0, stop=1e-12 * s0.max())
        sups = np.max(anchors[:-1], axis=1)
        assert np.all(np.diff(sups) < 0)
        assert sups[-1] < 1e-12 * sups[0]


def test_segment_membership_fuzz():
    # convex combinations of s and Gamma(s) stay in the decay set
    rng = np.random.default_rng(23)
    net = sum2(0.3)
    done = 0
    while done < 10:
        s = rng.uniform(0.2, 3.0, 2)
        image = eval_operator(net, s)
        if not np.all(image < s):
            continue
        done += 1
        for t in rng.random(10):
            p = (1 - t) * s + t * image
            assert np.all(eval_operator(net, p) <= p)


# ---------------------------------------------------------------------------
# irreducible and max constructors


def test_irreducible_max_half():
    net = max2(0.5)
    sigma = path_irreducible(net)
    assert validate_path(net, sigma).valid
    assert margin_floor_ok(net, sigma)


def test_irreducible_sum_quarter():
    net = sum3_complete(0.25)
    sigma = path_irreducible(net)
    assert validate_path(net, sigma).valid
    assert margin_floor_ok(net, sigma)


def test_irreducible_rejects_reducible():
    net = net_of([[Z, Linear(0.5)], [Z, Z]], [SumAgg(), SumAgg()])
    with pytest.raises(CompatibilityError, match="not strongly connected"):
        path_irreducible(net)


def test_irreducible_rejects_bounded_gains():
    net = net_of([[Z, Saturating(1.0)], [Linear(0.5), Z]],
                 [SumAgg(), SumAgg()])
    with pytest.raises(CompatibilityError):
        path_irreducible(net)


def test_max_margin_floor():
    net = max2(0.5)
    sigma = closure(net)
    assert margin_floor_ok(net, sigma)


def test_max_identity_for_isolated_node():
    net = net_of([[Z]], [MaxAgg()])
    sigma = closure(net)
    for r in [1e-6, 0.37, 12.0, 1e6]:
        assert np.isclose(sigma(r)[0], r)


def test_max_cycle_failure():
    net = net_of([[Z, Power(1, 0.5)], [Power(1, 2), Z]],
                 [MaxAgg(), MaxAgg()])
    # the cycle route fails on (1, 0), and path_max builds on a hold only;
    # the gate refutes the network first, by the Perron route decide runs
    # before the cycle route
    verdict = check_cycle_condition(net)
    assert verdict.fails and verdict.cycle == (1, 0)
    with pytest.raises(CompatibilityError, match="no hold to build on"):
        path_max(net, verdict)
    with pytest.raises(SgcFails, match=r"Perron bound: 1 \(CertifiedFails\)") as exc:
        construct_path(net)
    assert_proves_failure(net, exc.value.verdict)


def test_max_wrong_aggregation():
    net = sum2(0.4)
    with pytest.raises(CompatibilityError, match="no cycle route ran"):
        path_max(net, decide(net))


def test_max_reducible_delegation():
    g = Linear(0.5)
    net = net_of([[Z, g, Linear(0.6), Z],
                  [g, Z, Z, Z],
                  [Z, Z, Z, g],
                  [Z, Z, g, Z]], [MaxAgg()] * 4)
    sigma = closure(net)
    assert isinstance(sigma, OmegaPath)
    assert validate_path(net, sigma).valid


BEND = Sum((Linear(0.9), Saturating(0.1)))


@pytest.mark.parametrize("strong", [True, False], ids=["irreducible", "reducible"])
def test_max_closure_path_on_holding_networks(strong):
    # in t_i = s_i^(1/q_i) the gain j -> i is the slope a = lam u v_i / v_j
    # (u <= 1), so every cycle mean is at most lam < 1; the bend keeps the
    # network off the ray and v spreads the coefficients over decades
    rng = np.random.default_rng(5 if strong else 6)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        q = np.exp(rng.uniform(-1.0, 1.0, n))
        v = 10.0 ** rng.uniform(-3.0, 3.0, n)
        lam = rng.uniform(0.3, 0.95)
        mask = rng.random((n, n)) < 0.4
        if strong:
            mask[np.arange(n), np.roll(np.arange(n), 1)] = True
        else:
            # nodes from k on never feed the nodes before k
            k = int(rng.integers(1, n))
            mask[:k, k:] = False
            mask[k:, :k] |= ~mask[k:, :k].any()
        np.fill_diagonal(mask, False)
        rows = [[Compose(Power((lam * rng.uniform(0.5, 1.0) * v[i] / v[j]) ** q[i],
                               q[i] / q[j]), BEND) if mask[i, j] else Z
                 for j in range(n)] for i in range(n)]
        net = net_of(rows, [MaxAgg()] * n)
        assert is_irreducible(adjacency(net)) == strong
        assert validate_path(net, closure(net)).valid


@pytest.mark.parametrize("gain", [
    Sum((Linear(1.6), Saturating(0.4))),
    # s^3 saturates the bounded gain in floats from s = 1e5.4 on
    Compose(Saturating(1e7), Power(1.0, 3.0)),
], ids=["bent", "saturating"])
def test_max_closure_path_without_cycles(gain):
    # no cycle: the cycle margin is infinite, and the closure still lifts by
    # a finite alpha > 0
    net = net_of([[Z, gain], [Z, Z]], [MaxAgg()] * 2)
    res = construct_path(net)
    assert res.route == "max"
    assert validate_path(net, res.sigma).valid


# ---------------------------------------------------------------------------
# homogeneous


def test_homogeneous_symmetric_ray():
    net = max2(0.5)
    sigma = path_homogeneous(net, decide(net))
    for r in [1e-3, 1.0, 1e5]:
        assert np.allclose(sigma(r), [r, r])
    assert margin_floor_ok(net, sigma)


def test_homogeneous_ray_matches_fixed_point():
    # w = 1 + T(w) on a max pair: w = (1 + a, 1 + b) / (1 - ab)
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = rng.uniform(0.2, 0.8, 2)
        net = net_of([[Z, Linear(float(a))], [Linear(float(b)), Z]],
                     [MaxAgg(), MaxAgg()])
        if a * b >= 0.95**2:
            continue
        sigma = path_homogeneous(net, decide(net))
        direction = sigma(1.0)
        direction = direction / direction.max()
        expected = np.array([1.0 + a, 1.0 + b])
        expected = expected / expected.max()
        assert np.allclose(direction, expected, rtol=1e-9)
        assert margin_floor_ok(net, sigma)


def test_homogeneous_critical_rejected():
    net = max2(1.0)
    with pytest.raises(CompatibilityError, match="no hold to build on"):
        path_homogeneous(net, decide(net))
    with pytest.raises(SgcFails, match=r"Perron bound: 1 \(CertifiedFails\)") as exc:
        construct_path(net)
    assert exc.value.verdict.method == "perron"
    assert sgc._is_witness(net, exc.value.verdict.witness)


def test_ray_without_bound_or_witness_falls_through(monkeypatch):
    # a bound of one read at a badly scaled w proves nothing either way: the
    # ray refuses and the next constructor takes the network
    real = sgc.nonlinear_perron
    monkeypatch.setattr(sgc, "nonlinear_perron", lambda net: (1.0, *real(net)[1:]))
    with pytest.raises(CompatibilityError, match=r"Perron bound: 1 \(Inconclusive\)"):
        path_homogeneous(max2(0.5), decide(max2(0.5)))
    assert construct_path(max2(0.5)).route == "max"
    # with a witness w^p the Perron route's failure stands
    with pytest.raises(SgcFails, match=r"Perron bound: 1 \(CertifiedFails\)") as exc:
        construct_path(max2(1.5))
    assert sgc._is_witness(max2(1.5), exc.value.verdict.witness)


@pytest.mark.parametrize("tol", [0.4, 0.6])
def test_rays_and_decide_prove_below_one_threshold(monkeypatch, tol):
    # sum2(0.5) reads 0.5 on the spectral radius, the Perron bound and the
    # slope majorant: below 1 - SPECTRAL_TOL at 0.4, not at 0.6.  The rays
    # prove where decide's routes do
    monkeypatch.setattr(sgc, "SPECTRAL_TOL", tol)
    net, proved = sum2(0.5), tol < 0.5
    bounds = [v for v in sgc.decide(net).routes if v.rho is not None]
    assert bounds and all(v.rho == pytest.approx(0.5) and v.holds == proved
                          for v in bounds)
    for build, route in ((path_homogeneous, sgc._check_perron),
                         (path_majorant, check_majorant)):
        if proved:
            assert validate_path(net, build(net, route(net))).min_margin > 0
        else:
            with pytest.raises(CompatibilityError, match=r"0\.5 \(Inconclusive\)"):
                build(net, route(net))
    assert (construct_path(net).route == "ray") == proved


def test_homogeneous_rejects_inhomogeneous():
    # a 2-cycle of squares: p_1 / p_2 = 2 and p_2 / p_1 = 2 at once
    net = net_of([[Z, Power(0.1, 2)], [Power(0.1, 2), Z]],
                 [MaxAgg(), MaxAgg()])
    with pytest.raises(CompatibilityError, match="breaks every per-node power change"):
        net.power_form
    with pytest.raises(CompatibilityError, match="no perron route ran"):
        path_homogeneous(net, decide(net))


def test_homogeneous_ray_past_float_range_is_named():
    # p = (1, 50): (1e-7 w)^50 underflows, so the anchors cannot increase
    net = net_of([[Z, Power(0.5, 0.02)], [Power(0.5, 50.0), Z]],
                 [MaxAgg(), MaxAgg()])
    with pytest.raises(CompatibilityError, match="out of the float range"):
        path_homogeneous(net, decide(net))


def test_homogeneous_unequal_exponents_prove_every_segment():
    # p = (1, 2, 2) on sqrt_cycle_sum: anchors at ratio q <= c^(-1/2), so
    # Gamma(sigma(r[k+1])) < sigma(r[k]) holds on every segment
    net = net_of([[Z, Power(0.4, 0.5), Z], [Z, Z, Linear(0.5)],
                  [Power(0.3, 2.0), Z, Z]], [SumAgg()] * 3)
    c, p, _w, _image = nonlinear_perron(net)
    assert p.tolist() == [1.0, 2.0, 2.0] and c < 1.0
    sigma = path_homogeneous(net, decide(net))
    ratio = sigma.radii[2:] / sigma.radii[1:-1]
    assert np.all(ratio <= min(10.0 ** (1.0 / 12.0), c ** -0.5) * (1 + 1e-12))
    values = sigma.values[1:]
    assert np.all(eval_operator(net, values[1:]) < values[:-1])
    assert validate_path(net, sigma).valid


# ---------------------------------------------------------------------------
# bounded


def test_bounded_saturating_cycle():
    net = net_of([[Z, Saturating(1.0)], [Saturating(1.0), Z]],
                 [SumAgg(), SumAgg()])
    sigma = path_bounded(net)
    assert validate_path(net, sigma).valid
    assert margin_floor_ok(net, sigma)


def test_bounded_trivial_zero_operator():
    # the zero operator is linear with Perron bound 0: the ray sigma(r) = r 1
    net = net_of([[Z, Z], [Z, Z]], [SumAgg(), SumAgg()])
    sigma = assert_dispatched(net, "ray")
    for r in [1e-5, 0.37, 2000.0]:
        assert np.allclose(sigma(r), [r, r])
    with pytest.raises(CompatibilityError, match="rows without nonzero gains"):
        path_bounded(net)


def test_bounded_rejects_unbounded():
    with pytest.raises(CompatibilityError, match="unbounded internal gains present"):
        path_bounded(sum2(0.4))


def test_bounded_partial_zero_row_rejected():
    net = net_of([[Z, Saturating(1.0)], [Z, Z]], [SumAgg(), SumAgg()])
    with pytest.raises(CompatibilityError):
        path_bounded(net)


def test_bounded_interior_fixed_point_stalls():
    # slope product above one at zero: the iteration parks on the interior
    # fixed point instead of decaying
    net = net_of([[Z, Saturating(3.0)], [Saturating(3.0), Z]],
                 [MaxAgg(), MaxAgg()])
    with pytest.raises(Stalled):
        path_bounded(net)


# ---------------------------------------------------------------------------
# three-node additive


def test_three_sum_all_quarter_closed_form():
    net = sum3_complete(0.25)
    sigma = path_three_sum(net)
    rr = np.geomspace(1e-6, 1e6, 200)
    vals = sigma(rr)
    assert np.allclose(vals[:, 0], rr, rtol=1e-12)
    assert np.max(np.abs(vals[:, 1] / rr - 1.0)) < 1e-9
    assert np.max(np.abs(vals[:, 2] / rr - 1.75)) < 1e-9
    assert margin_floor_ok(net, sigma)


def test_three_sum_stern_residual():
    net = sum3_complete(0.25)
    sigma = path_three_sum(net)
    g = Linear(0.25)
    rr = sigma.radii[1:]
    s2 = sigma(rr)[:, 1]
    left = g.inverse(np.maximum(rr - g(s2), 0.0))
    right = g.inverse(np.maximum(s2 - g(rr), 0.0))
    assert np.all(np.abs(left - right) < 1e-10 * rr)


def test_three_sum_symmetric_second_component():
    ga = Linear(0.3)
    gb = Power(0.2, 1.3)
    gc = Power(0.1, 0.7)
    net = net_of([[Z, ga, gb], [ga, Z, gb], [gc, gc, Z]], [SumAgg()] * 3)
    sigma = path_three_sum(net)
    rr = np.geomspace(1e-5, 1e5, 50)
    s2 = sigma(rr)[:, 1]
    assert np.max(np.abs(s2 / rr - 1.0)) < 1e-9


def test_three_sum_critical_gap_empty():
    with pytest.raises(PathStalled, match="inflow meets the remaining budget"):
        path_three_sum(sum3_complete(1.0))


def test_three_sum_needs_three_nodes():
    with pytest.raises(CompatibilityError):
        path_three_sum(sum2(0.25))


def test_three_sum_needs_additive_rows():
    g = Linear(0.25)
    net = net_of([[Z, g, g], [g, Z, g], [g, g, Z]], [MaxAgg()] * 3)
    with pytest.raises(CompatibilityError, match="needs additive rows"):
        path_three_sum(net)


def test_three_sum_missing_edge_falls_back():
    g = Linear(0.25)
    net = net_of([[Z, g, g], [g, Z, g], [g, Z, Z]], [SumAgg()] * 3)
    assert_dispatched(net, "ray")
    with pytest.raises(CompatibilityError, match="unbounded gain on every edge"):
        path_three_sum(net)


def test_three_sum_cross_check_with_irreducible():
    rng = np.random.default_rng(17)
    for _ in range(5):
        slopes = rng.uniform(0.1, 0.3, 6)
        k = iter(slopes)
        net = net_of([[Z, Linear(next(k)), Linear(next(k))],
                      [Linear(next(k)), Z, Linear(next(k))],
                      [Linear(next(k)), Linear(next(k)), Z]], [SumAgg()] * 3)
        sa = path_three_sum(net)
        sb = path_irreducible(net)
        assert validate_path(net, sa).valid
        assert validate_path(net, sb).valid


def _three_sum_per_radius(net):
    """Reference: the balance equation solved one radius at a time."""
    g12, g13 = net.gamma[0][1], net.gamma[0][2]
    g21, g23 = net.gamma[1][0], net.gamma[1][2]
    g31, g32 = net.gamma[2][0], net.gamma[2][1]
    radii = paths_module._log_grid(1e-7, 1.5 * paths_module.RADIUS_MAX * 10.0)
    s2 = np.empty_like(radii)

    def residual(r, cand):
        left = g13.inverse(max(r - g12(cand), 0.0))
        right = g23.inverse(max(cand - g21(r), 0.0))
        return left - right

    for k, r in enumerate(radii):
        lo = g21(r)
        hi = g12.inverse(r)
        if hi < lo - 1e-12 * max(1.0, lo):
            raise PathStalled(
                f"no bracket for the balance equation at radius {r:.6g}")
        tol_r = 1e-9 * max(1.0, r)
        if hi <= lo:
            s2[k] = 0.5 * (lo + hi)
            continue
        flo = residual(r, lo)
        fhi = residual(r, hi)
        if flo < -tol_r or fhi > tol_r:
            raise PathStalled(
                f"balance equation bracket has the wrong signs at radius {r:.6g}")
        if flo <= 0.0:
            s2[k] = lo
            continue
        if fhi >= 0.0:
            s2[k] = hi
            continue
        a, b = lo, hi
        for _ in range(300):
            if (b - a) < 1e-14 * max(b, 1e-300):
                break
            mid = 0.5 * (a + b)
            if residual(r, mid) >= 0:
                a = mid
            else:
                b = mid
        s2[k] = 0.5 * (a + b)
    for k in range(1, len(radii)):
        if s2[k] <= s2[k - 1]:
            s2[k] = s2[k - 1] * (1.0 + 1e-14)
    h = g31._eval(radii) + g32._eval(s2)
    g = np.array([g13.inverse(max(r - g12(v), 0.0)) for r, v in zip(radii, s2)])
    g_star = np.minimum.accumulate(g[::-1])[::-1]
    if np.any(h >= g_star):
        k = int(np.argmax(h >= g_star))
        raise PathStalled(
            f"inflow meets the remaining budget at radius {radii[k]:.6g}; "
            "numerical evidence against the small gain condition")
    values = np.column_stack([radii, s2, 0.5 * (g_star + h)])
    return paths_module._finalize(net, radii, values)


def _random_unbounded_gain(rng, scale, kinds=range(6)):
    # kinds 0-2 invert in closed form, 3-5 by bisection
    c = scale * rng.uniform(0.3, 1.0)
    p = rng.uniform(0.9, 1.4)
    kind = rng.choice(kinds)
    if kind == 0:
        return Linear(c)
    if kind == 1:
        return Power(c, p)
    if kind == 2:
        return Compose(Power(1.0, p), Linear(c))
    if kind == 3:
        return Sum((Linear(0.5 * c), Power(0.5 * c, p)))
    if kind == 4:
        return Max((Linear(c), Saturating(c)))
    return PlusId(Power(c, p))


def _outcome(build, net):
    try:
        return build(net).values.tobytes()
    except Exception as exc:  # noqa: BLE001 - the raise is the outcome
        return type(exc), str(exc)


def _three_sum_cases():
    rng = np.random.default_rng(2012)
    # a bisected inverse leaves g12(g12^-1(r)) off r by up to 1e-9 r, which
    # the flat g13 turns into a positive residual at the upper end
    yield net_of([[Z, Sum((Linear(0.1), Power(0.1, 1.2))), Power(1e-3, 3.0)],
                  [Linear(0.1), Z, Linear(1.0)],
                  [Linear(0.1), Linear(0.01), Z]], [SumAgg()] * 3), 1e-2
    # the same, and the 1-2 cycle fails from r = 0.01 on: the first raise
    # is the wrong signs, not the later missing bracket
    yield net_of([[Z, Sum((Linear(0.1), Power(0.1, 1.2))), Power(1e-3, 3.0)],
                  [Power(100.0, 1.5), Z, Linear(1.0)],
                  [Linear(0.1), Linear(0.01), Z]], [SumAgg()] * 3), 1e-2
    # the 1-2 cycle fails from r = 4.9e-3 on: no bracket there
    yield net_of([[Z, Power(3.0, 1.2), Linear(0.1)],
                  [Power(3.0, 1.2), Z, Linear(0.1)],
                  [Linear(0.1), Linear(0.1), Z]], [SumAgg()] * 3), 1e-2
    # g12(g21(r)) = r^(1 + 1e-14): from r = 0.37 on the bracket starts
    # below the stop width, so no radius there takes a midpoint
    yield net_of([[Z, Linear(0.5), Linear(1e-20)],
                  [Power(2.0, 1.0 + 1e-14), Z, Linear(1e-20)],
                  [Linear(1e-3), Linear(1e-20), Z]], [SumAgg()] * 3), 0.05
    for trial in range(6):
        scale = 1.2 if trial % 3 == 0 else 0.2
        # a bisected inverse costs the scalar reference about 2 ms per
        # call, so only one network has one (in g13), on 16 anchors; the
        # other inverted gains (g12, g13, g23) invert in closed form, on 52
        heavy = trial == 1
        kinds = {(0, 1): (0, 1, 2), (0, 2): (3, 4, 5) if heavy else (0, 1, 2),
                 (1, 2): (0, 1, 2)}
        rows = [[Z if i == j else _random_unbounded_gain(
            rng, scale, kinds.get((i, j), range(6))) for j in range(3)]
            for i in range(3)]
        yield net_of(rows, [SumAgg()] * 3), 1e-7 if heavy else 1e-4


def test_three_sum_batched_bisection_matches_per_radius_loop(monkeypatch):
    # compare the constructed sigma itself, also where validation rejects it;
    # each case's top radius keeps its anchor count small
    monkeypatch.setattr(paths_module, "_finalize", lambda net, radii, values: OmegaPath(
        np.concatenate([[0.0], radii]), np.vstack([np.zeros(net.n), values])))
    outcomes = []
    for net, top in _three_sum_cases():
        monkeypatch.setattr(paths_module, "RADIUS_MAX", top)
        got = _outcome(path_three_sum, net)
        assert got == _outcome(_three_sum_per_radius, net)
        outcomes.append(got)
    paths = [o for o in outcomes if isinstance(o, bytes)]
    raised = {o[0] for o in outcomes if isinstance(o, tuple)}
    messages = " ".join(o[1] for o in outcomes if isinstance(o, tuple))
    assert len(paths) >= 3
    assert raised == {PathStalled}
    assert "wrong signs at radius 1.46115e-07" in messages
    assert "no bracket for the balance equation at radius 0.00494117" in messages
    assert "inflow meets the remaining budget" in messages


def test_three_sum_inverse_calls_per_round_not_per_radius(monkeypatch):
    calls = []
    inverse = GainExpr.inverse

    def counting(self, y, tol=1e-9):
        calls.append(np.size(y))
        return inverse(self, y, tol)

    monkeypatch.setattr(GainExpr, "inverse", counting)
    net = net_of([[Z, Linear(0.3), Linear(0.2)], [Linear(0.15), Z, Linear(0.25)],
                  [Linear(0.1), Linear(0.3), Z]], [SumAgg()] * 3)
    sigma = path_three_sum(net)
    radii = len(sigma.radii) - 1
    assert max(calls) == radii
    # one call for the bracket, four for the bracket signs, two per
    # bisection round and one for the budget g
    assert len(calls) <= 6 + 2 * 60
    assert len(calls) < radii


# ---------------------------------------------------------------------------
# mixed


def test_mixed_canonical():
    net = net_of([[Z, Linear(0.3)], [Saturating(0.5), Z]],
                 [SumAgg(), SumAgg()])
    sigma = path_mixed(net)
    assert validate_path(net, sigma).valid
    assert margin_floor_ok(net, sigma)


def test_mixed_delegates_all_unbounded():
    net = sum2(0.4)
    assert_dispatched(net, "ray")
    with pytest.raises(CompatibilityError, match="both bounded and unbounded"):
        path_mixed(net)


def test_mixed_delegates_all_bounded():
    net = net_of([[Z, Saturating(1.0)], [Saturating(1.0), Z]],
                 [SumAgg(), SumAgg()])
    assert_dispatched(net, "bounded")
    with pytest.raises(CompatibilityError, match="both bounded and unbounded"):
        path_mixed(net)


def test_mixed_needs_additive_rows():
    net = net_of([[Z, Linear(0.3)], [Saturating(0.5), Z]],
                 [MaxAgg(), MaxAgg()])
    with pytest.raises(CompatibilityError, match="needs additive rows"):
        path_mixed(net)


def test_mixed_inflated_failure_is_no_proof():
    # the inflated unbounded part fails its Perron bound at every level; that
    # bound belongs to another operator, so it proves nothing about the
    # network and the mixed route gives up.  The gate refutes the network
    # itself, by the falsifier, before any constructor runs
    sigmoid = Compose(Saturating(0.5), Power(1.0, 2.0))
    net = net_of([[Z, Linear(2.0), Z], [Linear(2.0), Z, Z], [sigmoid, Z, Z]],
                 [SumAgg()] * 3)
    with pytest.raises(PathStalled, match=r"inflated by 0\.01 id fails: Perron bound: "
                       r"2\.02 \(CertifiedFails\)"):
        path_mixed(net)
    with pytest.raises(SgcFails, match="falsification: witness") as exc:
        construct_path(net)
    assert_proves_failure(net, exc.value.verdict)


def test_mixed_sum_networks_take_the_mixed_route():
    # every draw mixes bounded and unbounded gains in sum rows: construct_path
    # certifies it on the mixed route, the gate refutes it, or the mixed
    # route gives up by a named error
    rng = np.random.default_rng(2012)
    certified = 0
    for _ in range(40):
        net = random_mixed_sum_net(rng)
        try:
            assert_dispatched(net, "mixed")
            certified += 1
        except SgcFails as exc:
            assert_proves_failure(net, exc.verdict)
        except (PathStalled, Stalled):
            pass
    assert certified >= 20


# ---------------------------------------------------------------------------
# batched searches against their sequential references


def _chain_up_sequential(op, start, target_sup):
    # the step search one operator call per trial step
    s = np.asarray(start, dtype=float).copy()
    ones = np.ones_like(s)
    anchors = [s.copy()]
    stall = 0

    def ok(t):
        return strictly_less(op(s + t * ones), s)

    while s.max() < target_sup:
        scale = 1.0 + s.max()
        t = 0.1 * scale
        if ok(t):
            cap = 1e9 * scale
            hi = None
            while ok(2.0 * t):
                t *= 2.0
                if t > cap:
                    jump = max(4.0 * target_sup, 4.0 * t)
                    if ok(jump):
                        anchors.append(s + jump * ones)
                        return anchors
                    hi = jump
                    break
            t_lo, t_hi = t, (2.0 * t if hi is None else hi)
        else:
            while t > 1e-14 * scale and not ok(t):
                t *= 0.5
            if not ok(t):
                raise PathStalled(
                    "no admissible step above the strictness tolerance; "
                    "the operator is near-critical at this anchor")
            t_lo, t_hi = t, 2.0 * t
        for _ in range(60):
            if t_hi - t_lo < 1e-3 * t_lo:
                break
            mid = 0.5 * (t_lo + t_hi)
            if ok(mid):
                t_lo = mid
            else:
                t_hi = mid
        step = paths_module.UP_BACKOFF * t_lo
        if step < paths_module.UP_GROWTH_TOL * max(1.0, s.max()):
            stall += 1
            if stall >= paths_module.UP_STALL_LIMIT:
                raise PathStalled(
                    "anchor growth below 1e-6 relative for 50 consecutive steps")
        else:
            stall = 0
        s = s + step * ones
        anchors.append(s.copy())
        if len(anchors) > paths_module.UP_MAX_STEPS:
            raise PathStalled("upward chaining exceeded the step budget")
    return anchors


def _find_seed_sequential(op, n, seed=0):
    # one operator call per candidate, in candidate order
    candidates = [np.ones(n)]
    for i in range(n):
        low = np.full(n, 0.5)
        low[i] = 1.0
        high = np.ones(n)
        high[i] = 0.5 if n > 1 else 1.0
        candidates.extend([low, high])
    rng = np.random.default_rng(seed)
    for _ in range(500):
        w = rng.random(n) + 1e-12
        candidates.append(w / w.max())
    for cand in candidates:
        if strictly_less(op(cand), cand):
            return cand
    raise PathStalled(
        f"none of the {len(candidates)} candidate directions on the unit sphere "
        "lies in the strict decay set")


def _crossover_sequential(sigma_u, c, s_star):
    # one path evaluation per anchor radius
    def ok(r):
        return bool(np.all(c * sigma_u(r) >= s_star * (1.0 + 1e-6) + 1e-12))

    candidates = sigma_u.radii[sigma_u.radii > 0]
    for r in candidates:
        if ok(r):
            return float(r)
    r_star = float(candidates[-1])
    while not ok(r_star):
        r_star *= 2.0
        if r_star > 1e18:
            raise PathStalled("crossover radius ran away")
    return r_star


def _result(call):
    # the bytes of what the call returns, or the type and text of its raise
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - the raise is the outcome
        return type(exc), str(exc)
    if isinstance(out, OmegaPath):
        return out.radii.tobytes() + out.values.tobytes()
    return np.asarray(out, dtype=float).tobytes()


def _with_sequential_searches(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(paths_module, "_chain_up", _chain_up_sequential)
        m.setattr(paths_module, "_find_seed", _find_seed_sequential)
        m.setattr(paths_module, "_crossover_radius", _crossover_sequential)
        return _result(call)


# concave unbounded gains below the identity along the ones direction
CONCAVE_A = Compose(Linear(0.5), PlusId(Saturating(0.2)))
CONCAVE_B = Max((Linear(0.6), Saturating(0.9)))
# its unbounded ring is no power law, so it stays off the ray
MIXED3 = net_of([[Z, Saturating(0.3), bent(0.6)], [Linear(0.4), Z, Z],
                 [Z, Linear(0.5), Z]], [SumAgg()] * 3)


@pytest.mark.parametrize("build", [
    # the unbounded ring 0 -> 1 -> 2 -> 0 takes the irreducible inner path
    lambda: path_mixed(MIXED3),
    lambda: path_irreducible(net_of([[Z, CONCAVE_A], [CONCAVE_B, Z]], [SumAgg()] * 2)),
    lambda: closure(net_of([[Z, CONCAVE_A, Z],
                            [Z, Z, Sum((Linear(0.3), Saturating(0.2)))],
                            [CONCAVE_B, Z, Z]], [MaxAgg()] * 3)),
], ids=["mixed", "irreducible", "max"])
def test_batched_searches_build_the_sequential_path(monkeypatch, build):
    got = _result(build)
    assert isinstance(got, bytes)
    assert got == _with_sequential_searches(monkeypatch, build)


def _sum2_op(g):
    net = net_of([[Z, g], [g, Z]], [SumAgg(), SumAgg()])
    return lambda s: eval_operator(net, s)


@pytest.mark.parametrize("g, target, outcome", [
    # t0 = 0.1 * scale is refused at every anchor: the halving branch
    (Linear(0.95), 50.0, "path"),
    # bounded rows: the first step jumps past the target
    (Saturating(0.5), 1.05e6, "jump"),
    # every doubling up to the cap is admissible, the jump is not
    (Linear(1e-10), 1.05e6, "refused jump"),
    (Linear(1.0), 10.0, "no admissible step"),
    (Linear(1.0 - 1e-8), 10.0, "anchor growth below"),
])
def test_batched_chain_up_replays_sequential_search(g, target, outcome):
    op = _sum2_op(g)
    start = np.ones(2)
    got = _result(lambda: paths_module._chain_up(op, start, target))
    assert got == _result(lambda: _chain_up_sequential(op, start, target))
    # from s = 1 (scale 2) the ladder's top is 0.2 * 2**34, the jump 4 times that
    jump = 4.0 * 0.2 * 2.0**34
    if outcome in ("path", "jump", "refused jump"):
        anchors = np.frombuffer(got).reshape(-1, 2)
        assert anchors[-1].max() >= target
        assert (anchors[1, 0] - 1.0 == jump) == (outcome == "jump")
        assert (len(anchors) == 2) == (outcome != "path")
    else:
        assert got[0] is PathStalled and outcome in got[1]


def test_batched_find_seed_returns_first_candidate_hit():
    # the decay set needs 0.3 s_1 < s_0 < s_1 / 2.5 (or / 3): no axis-biased
    # candidate lies in it, some random ones do; candidate blocks hold rows
    # 0, 1-8, 9-72 and 73-584, and with these seeds the first block that
    # holds a hit holds more than one
    skew = net_of([[Z, Linear(0.3)], [Linear(2.5), Z]], [SumAgg(), SumAgg()])
    narrow = net_of([[Z, Linear(0.3)], [Linear(3.0), Z]], [SumAgg(), SumAgg()])
    cases = [
        (skew, 1), (narrow, 2),
        (sum3_complete(0.3), 0),
        (net_of([[Z]], [SumAgg()]), 0),
        (sum2(1.2), 0),
    ]
    for net, seed in cases:
        op = lambda s, net=net: eval_operator(net, s)
        got = _result(lambda: paths_module._find_seed(op, net.n, seed))
        assert got == _result(lambda: _find_seed_sequential(op, net.n, seed))
    assert got[0] is PathStalled and "candidate directions" in got[1]
    seed_vec = paths_module._find_seed(lambda s: eval_operator(skew, s), 2)
    assert seed_vec.min() < 0.5  # a random direction, past the axis-biased ones


def test_find_seed_miss_counts_candidates_and_claims_nothing():
    # a miss says how many directions were tried, not that the condition fails
    with pytest.raises(PathStalled) as exc:
        paths_module._find_seed(lambda s: 2.0 * s, 3)
    assert str(exc.value) == ("none of the 507 candidate directions on the unit "
                              "sphere lies in the strict decay set")


def test_batched_crossover_matches_sequential_scan():
    radii = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 25)])
    sigma = OmegaPath(radii, np.column_stack([radii, 2.0 * radii]))
    for c, s_star in [(0.05, np.array([0.01, 0.5])),  # an anchor clears
                      (0.05, np.array([1e3, 0.0])),  # doubled past the last
                      (0.05, np.array([1e17, 0.0])),  # runs away
                      (0.05, np.zeros(2))]:  # the first anchor clears
        got = _result(lambda: paths_module._crossover_radius(sigma, c, s_star))
        assert got == _result(lambda: _crossover_sequential(sigma, c, s_star))


def test_chain_up_calls_per_anchor_on_mixed_network(monkeypatch):
    chain_up = paths_module._chain_up
    calls = anchors = 0

    def counting(op, start, target_sup):
        nonlocal calls, anchors

        def counted(s):
            nonlocal calls
            calls += 1
            return op(s)

        out = chain_up(counted, start, target_sup)
        anchors += len(out) - 1
        return out

    monkeypatch.setattr(paths_module, "_chain_up", counting)
    path_mixed(MIXED3)
    assert anchors > 20
    assert calls <= 4 * anchors


# ---------------------------------------------------------------------------
# reducible


def test_reducible_cascade_recipe():
    net = net_of([[Z, Linear(0.7)], [Z, Z]], [SumAgg(), SumAgg()])
    sigma = path_reducible(net)
    rr = np.geomspace(1e-6, 1e6, 300)
    vals = sigma(rr)
    # driven node rides the identity; driver dominates twice its inflow
    assert np.allclose(vals[:, 1], rr, rtol=1e-12)
    assert np.all(vals[:, 0] >= 2 * 0.7 * rr)
    assert np.all(vals[:, 0] <= 3.0 * rr)
    # no external channel: the budget map is the identity
    assert np.isclose(derive_phi(net, sigma)(5.5), 5.5)


def test_reducible_source_external_budget():
    net = net_of([[Z, Linear(0.7)], [Z, Z]],
                 [SumAgg(), SumAgg()], gu=[Z, Linear(1.0)])
    sigma = path_reducible(net)
    phi = derive_phi(net, sigma)
    # half the source margin absorbs the input: phi(r) = r/2
    for r in [0.01, 2.0, 1e4]:
        assert abs(phi(r) - 0.5 * r) <= 1e-6 * r
    vals = sigma(np.array([2.0]))[0]
    ext = eval_operator_ext(net, vals, phi(2.0))
    assert np.all(ext < vals)


def test_reducible_decoupled_identity():
    net = net_of([[Z, Z], [Z, Z]], [SumAgg(), SumAgg()])
    sigma = path_reducible(net)
    for r in [1e-4, 1.0, 1e5]:
        assert np.allclose(sigma(r), [r, r])


def test_reducible_two_cycles_in_series():
    g = Linear(0.4)
    net = net_of([[Z, g, Linear(0.5), Z],
                  [g, Z, Z, Z],
                  [Z, Z, Z, g],
                  [Z, Z, g, Z]], [SumAgg()] * 4)
    assert validate_path(net, path_reducible(net)).valid


def test_reducible_feeds_complete_three_sum_block(monkeypatch):
    # one node feeding a complete three-node sum block: the block's local
    # path comes from the three-sum constructor through the dispatch, which
    # also offers it the whole network (it refuses four nodes)
    calls = []

    def recording(net, **kw):
        sigma = path_three_sum(net, **kw)
        calls.append(net.n)
        return sigma

    monkeypatch.setattr(paths_module, "path_three_sum", recording)
    g = bent(0.25)
    net = net_of([[Z, g, g, Linear(0.5)],
                  [g, Z, g, Z],
                  [g, g, Z, Z],
                  [Z, Z, Z, Z]], [SumAgg()] * 4,
                 gu=[Z, Z, Z, Linear(1.0)])
    cl = certify(net)
    assert calls == [3]
    assert cl.route == "reducible"
    assert validate_path(net, cl.sigma).valid
    rr = np.geomspace(1e-6, 1e6, 1000)
    vals = cl.sigma(rr)
    assert np.all(eval_operator_ext(net, vals, cl.phi(rr)) < vals)


def test_reducible_block_failure_named():
    net = net_of([[Z, Linear(1.2), Linear(0.1)],
                  [Linear(1.2), Z, Z],
                  [Z, Z, Z]], [SumAgg()] * 3)
    with pytest.raises(SgcFails, match=r"diagonal block 0 fails: Perron bound: 1\.2 "
                       r"\(CertifiedFails\)") as exc:
        path_reducible(net)
    assert_block_verdict(net, exc.value.verdict, (0, 1))


def test_reducible_max_checks_each_cycle_once(monkeypatch):
    # a 2-cycle feeding one node: decide's cycle route holds on the whole
    # network, and the closure path builds on it with no blockwise detour,
    # so no block is checked again
    sizes = []
    check = sgc.check_cycle_condition

    def counting(net):
        sizes.append(net.n)
        return check(net)

    monkeypatch.setattr(sgc, "check_cycle_condition", counting)
    g = bent(0.5)
    net = net_of([[Z, g, Z], [g, Z, Z], [Z, g, Z]], [MaxAgg()] * 3)
    assert construct_path(net).route == "max"
    assert sizes == [3]


def test_reducible_max_block_failure_named():
    net = net_of([[Z, bent(1.2), Z, Linear(0.1)],
                  [bent(1.2), Z, Z, Z],
                  [Z, Z, Z, Linear(0.5)],
                  [Z, Z, Linear(0.5), Z]],
                 [MaxAgg(), MaxAgg(), SumAgg(), SumAgg()])
    with pytest.raises(SgcFails) as exc:
        path_reducible(net)
    assert str(exc.value) == ("diagonal block 0 fails: cycle condition: fails on cycle "
                              "(2, 1), witness (0.215443, 0.217471, 0, 0)")
    assert_block_verdict(net, exc.value.verdict, (0, 1))
    assert exc.value.verdict.cycle == (1, 0)
    # the same network with the blocks' nodes swapped: the block's local
    # cycle (1, 0) is renumbered to the network's (3, 2)
    net = net_of([[Z, Linear(0.5), Z, Z],
                  [Linear(0.5), Z, Z, Z],
                  [Z, Linear(0.1), Z, bent(1.2)],
                  [Z, Z, bent(1.2), Z]],
                 [SumAgg(), SumAgg(), MaxAgg(), MaxAgg()])
    with pytest.raises(SgcFails, match=r"diagonal block 0 fails: cycle condition: fails "
                       r"on cycle \(4, 3\)") as exc:
        path_reducible(net)
    assert_block_verdict(net, exc.value.verdict, (2, 3))
    assert exc.value.verdict.cycle == (3, 2)


def test_reducible_rejects_irreducible():
    with pytest.raises(CompatibilityError):
        path_reducible(sum2(0.4))


def test_reducible_budget_respects_general_condition():
    rng = np.random.default_rng(31)
    net = net_of([[Z, Linear(0.7)], [Z, Z]],
                 [SumAgg(), SumAgg()], gu=[Linear(0.2), Linear(1.0)])
    sigma = path_reducible(net)
    rr = np.exp(rng.uniform(np.log(1e-5), np.log(1e5), 200))
    vals = sigma(rr)
    ext = eval_operator_ext(net, vals, derive_phi(net, sigma)(rr))
    assert np.all(ext < vals)


def test_reducible_block_max_sum_row_reads_block_columns():
    # row 1 aggregates its one slot, column 2, by block-max-sum; inside the
    # block {1, 2} fed by node 0 that slot is the block's local column 1
    net = net_of([[Z, Z, Z],
                  [Z, Z, Linear(0.4)],
                  [Linear(0.3), Linear(0.4), Z]],
                 [SumAgg(), BlockMaxSum(((2,),)), SumAgg()])
    cl = certify(net)
    assert validate_path(net, cl.sigma).valid
    rr = VALIDATION_GRID
    vals = cl.sigma(rr)
    assert np.all(eval_operator_ext(net, vals, cl.phi(rr)) < vals)


def random_reducible(rng):
    """Blocks in a chain, each a cycle of linear gains, fed by upstream
    blocks through assorted gains; sum or max rows, external gains on
    about 40% of the rows."""
    n = int(rng.integers(2, 7))
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, n)),
                              replace=False))
    blocks = np.split(np.arange(n), cuts)
    gamma = [[Z] * n for _ in range(n)]
    for block in blocks:
        if len(block) > 1:
            for i, j in zip(block, np.roll(block, -1)):
                gamma[i][j] = Linear(float(rng.uniform(0.1, 0.5)))
    for bi in range(1, len(blocks)):
        for i in blocks[bi]:
            for j in np.concatenate(blocks[:bi]):
                if rng.random() < 0.4:
                    c = float(rng.uniform(0.1, 1.0))
                    gamma[i][j] = [Linear(c), Power(c, float(rng.uniform(0.5, 2.0))),
                                   Saturating(c),
                                   Compose(Linear(c), Saturating(1.0))][rng.integers(4)]
    gu = [Linear(float(rng.uniform(0.2, 1.0))) if rng.random() < 0.4 else Z
          for _ in range(n)]
    mu = [MaxAgg() if rng.random() < 0.5 else SumAgg() for _ in range(n)]
    return net_of(gamma, mu, gu), blocks


def test_reducible_random_networks_pass_extended_check():
    rng = np.random.default_rng(2010)
    rr = VALIDATION_GRID
    fed_max_ext = driven_sources = 0
    for _ in range(40):
        net, blocks = random_reducible(rng)
        sigma = path_reducible(net)
        assert validate_path(net, sigma).valid
        vals = sigma(rr)
        assert np.all(eval_operator_ext(net, vals, derive_phi(net, sigma)(rr)) < vals)
        for block in blocks:
            fed = [any(j not in block for j in net.active_sets[i]) for i in block]
            if not any(fed) and any(net.ext_active[i] for i in block):
                driven_sources += 1
            fed_max_ext += sum(f and net.ext_active[i] and isinstance(net.mu[i], MaxAgg)
                               for i, f in zip(block, fed))
    # both kinds of input-fed rows ran: a fed max row with cross and
    # external inflow, and a source block that shrinks the budget map
    assert fed_max_ext > 0
    assert driven_sources > 0


def test_zero_row_networks_take_the_reducible_route():
    # a source node's row is zero, so the network is reducible: the dispatch
    # sends it to the block construction before the mixed and bounded
    # routes, which reject such a network or stall on its downward leg;
    # those whose gains all have a slope at zero take the majorant ray first
    rng = np.random.default_rng(2010)
    moved = 0
    for _ in range(200):
        net, _blocks = random_reducible(rng)
        res = construct_path(net)
        assert validate_path(net, res.sigma).valid
        assert (res.route == "majorant") == (
            res.route not in ("ray", "max") and net.majorant is not None)
        if zero_rows(net) and res.route not in ("ray", "max", "majorant"):
            assert res.route == "reducible"
            moved += 1
    assert moved > 20


def _ext_budget_bisection(mu, slot, target):
    """Reference: the largest external value by doubling and bisection."""
    slots = slot[:, None]
    lo = np.zeros(len(slot))
    hi = np.ones(len(slot))
    for _ in range(700):
        need = mu.aggregate(slots, hi) < target
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mu.aggregate(slots, mid) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo


@pytest.mark.parametrize("mu", [
    SumAgg(), MaxAgg(), BlockMaxSum(((0,),)),
    OuterSum(Power(1.0, 2.0)), OuterSum(Linear(2.0), external_in_sum=False),
])
def test_ext_budget_closed_form_matches_bisection(mu):
    rng = np.random.default_rng(76)
    # one internal slot per row; the path value sits above the row image,
    # and on the edge rows at it, below it, or far above it
    slot = 10.0 ** rng.uniform(-8, 8, 60)
    ratio = rng.uniform(1.0, 3.0, slot.size)
    slot = np.concatenate([slot, [0.0, 1.0, 1e100, 2.0, 3.0]])
    level = mu.aggregate(slot[:, None], np.zeros(slot.size))
    state = np.concatenate([level[:60] * ratio, [2e-9, level[61], 1.0, 1e200,
                                                  0.8 * level[64]]])
    got = compose_mod._ext_budget(mu, level, state)
    target = state - 0.5 * (state - level)
    ref = _ext_budget_bisection(mu, slot, target)
    assert np.all(got >= 0.0)
    assert np.all(np.abs(got - ref) <= 1e-12 * (slot + ref))
    # where the level leaves room, the row reaches its midpoint and stays
    # there, up to the rounding of the aggregation
    room = level <= target
    row = mu.aggregate(slot[room, None], got[room])
    assert np.all(np.abs(row - target[room]) <= 1e-15 * target[room])


def test_reducible_budget_binds_only_at_source_blocks():
    # a fed block leaves room for twice its inflow plus its input at the
    # identity level, where every budget map is capped anyway, so its rows
    # never bind: the certificate's budget map on the reducible path is the
    # identity capped by the rows of blocks without cross-block inflow, bit
    # for bit (the dispatch sends many of these networks to the ray, so
    # the reducible path is built directly)
    rng = np.random.default_rng(2010)
    bound_below_identity = 0
    for _ in range(40):
        net, blocks = random_reducible(rng)
        cl = compose(net, path_reducible(net))
        states = cl.sigma.values[1:]
        image = eval_operator(net, states)
        caps = cl.sigma.radii[1:].copy()
        for block in blocks:
            if any(j not in block for i in block for j in net.active_sets[i]):
                continue
            for i in block:
                if net.ext_active[i]:
                    budget = compose_mod._ext_budget(net.mu[i], image[:, i],
                                                     states[:, i])
                    caps = np.minimum(caps, compose_mod._capped_inverse(
                        net.gamma_u[i], budget))
        caps = np.minimum.accumulate(caps[::-1])[::-1]
        bound_below_identity += bool(np.any(caps < cl.sigma.radii[1:]))
        assert cl.phi.radii.tobytes() == cl.sigma.radii.tobytes()
        assert cl.phi.values.tobytes() == np.concatenate([[0.0], caps]).tobytes()
    assert bound_below_identity > 0


# ---------------------------------------------------------------------------
# monotonicity properties and dispatch


def test_constructed_paths_strictly_monotone():
    nets = [
        (max2(0.5), closure),
        (sum3_complete(0.25), path_irreducible),
        (net_of([[Z, Saturating(1.0)], [Saturating(1.0), Z]],
                [SumAgg(), SumAgg()]), path_bounded),
        (net_of([[Z, Linear(0.3)], [Saturating(0.5), Z]],
                [SumAgg(), SumAgg()]), path_mixed),
    ]
    rr = np.geomspace(1e-6, 1e6, 2000)
    for net, ctor in nets:
        sigma = ctor(net)
        vals = sigma(rr)
        assert np.all(np.diff(vals, axis=0) > 0), ctor.__name__


def _dispatch_cases():
    # (network, the route that serves it, test id)
    concave = net_of([[Z, Linear(0.3)], [Saturating(0.5), Z]],
                     [SumAgg(), SumAgg()])
    # the sigmoid has no slope at zero, so no majorant
    mixed = net_of([[Z, Linear(0.3)], [Compose(Saturating(0.5), Power(1.0, 2.0)), Z]],
                   [SumAgg(), SumAgg()])
    bounded = net_of([[Z, Saturating(1.0)], [Saturating(1.0), Z]],
                     [SumAgg(), SumAgg()])
    cascade = net_of([[Z, bent(0.7)], [Z, Z]], [SumAgg(), SumAgg()])
    g = bent(0.25)
    return [
        (net_of([[Z, bent(0.5)], [bent(0.5), Z]], [MaxAgg(), MaxAgg()]), "max", "max"),
        (net_of([[Z, g, g], [g, Z, g], [g, g, Z]], [SumAgg()] * 3), "three_sum",
         "three_sum"),
        (concave, "majorant", "majorant"),
        (mixed, "mixed", "mixed"),
        # the slope matrix at zero has spectral radius one: no majorant ray
        (bounded, "bounded", "bounded"),
        (sum2(0.4), "ray", "ray-sum2"),
        (max2(0.5), "ray", "ray-max2"),
        (sum3_complete(0.25), "ray", "ray-sum3"),
        (net_of([[Z, bent(0.5)], [bent(0.5), Z]], [SumAgg(), SumAgg()]),
         "irreducible", "irreducible"),
        (net_of([[Z, Linear(0.7)], [Z, Z]], [SumAgg(), SumAgg()]), "ray", "ray-cascade"),
        (cascade, "reducible", "reducible"),
    ]


DISPATCH_CASES = _dispatch_cases()
# construct_path's order; the ray, max and majorant constructors build on
# decide's verdict
CONSTRUCTORS = [("ray", lambda net: path_homogeneous(net, decide(net))),
                ("max", lambda net: path_max(net, decide(net))),
                ("majorant", lambda net: path_majorant(net, decide(net))),
                ("three_sum", path_three_sum), ("mixed", path_mixed),
                ("bounded", path_bounded), ("irreducible", path_irreducible),
                ("reducible", path_reducible)]


def test_dispatch_shapes():
    # every route returns a PathResult naming the constructor that ran
    for net, route, _ in DISPATCH_CASES:
        res = construct_path(net)
        assert isinstance(res, PathResult)
        assert isinstance(res.sigma, OmegaPath)
        assert res.route == route
    # a symmetric linear sum network takes the ray along w = (I - G)^-1 1
    assert np.allclose(construct_path(sum2(0.4)).sigma(1.0), [1.0, 1.0])


@pytest.mark.parametrize("net, route", [case[:2] for case in DISPATCH_CASES],
                         ids=[case[2] for case in DISPATCH_CASES])
def test_constructors_before_the_route_refuse(net, route):
    # the dispatch is the constructors' own guards: each one listed before
    # the route that serves a network refuses it, and raises nothing else
    names = [name for name, _ in CONSTRUCTORS]
    for name, build in CONSTRUCTORS[:names.index(route)]:
        with pytest.raises(CompatibilityError):
            build(net)


def test_network_no_constructor_serves_is_refused():
    # power-of-sum rows mixing a bounded and an unbounded gain: no ray, no
    # majorant, not additive for the split, not bounded throughout, and a
    # bounded gain keeps it off seed-and-chain
    rows = OuterSum(Linear(1.0))
    net = net_of([[Z, Saturating(0.5)], [Power(0.5, 2.0), Z]], [rows, rows])
    with pytest.raises(CompatibilityError, match="no path constructor serves") as exc:
        construct_path(net)
    assert isinstance(exc.value.__cause__, CompatibilityError)


def test_dispatch_reads_patched_constructors_and_routes(monkeypatch):
    # the dispatch lists are built per call, so a constructor or a route
    # replaced on its module is the one that runs: the benchmark's spans
    # wrap them this way
    calls = []

    def recorder(module, name):
        real = getattr(module, name)

        def recording(net, *args, **kwargs):
            calls.append(name)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    recorder(sgc, "check_majorant")
    recorder(paths_module, "path_bounded")
    concave = net_of([[Z, Linear(0.3)], [Saturating(0.5), Z]], [SumAgg(), SumAgg()])
    assert sgc.decide(concave).method == "majorant"
    bounded = net_of([[Z, Saturating(1.0)], [Saturating(1.0), Z]], [SumAgg(), SumAgg()])
    assert construct_path(bounded).route == "bounded"
    # construct_path decides the bounded pair before it builds
    assert calls == ["check_majorant", "check_majorant", "path_bounded"]


# random_network seed 7, draw 292
STALLED_GAINS = [["0", "0", "0", "0.78302*sqrt(s)"],
                 ["0", "0", "2.70984*s^2.7084", "0"],
                 ["3.904472*atan(s)", "1.158909*atan(s)", "0", "0"],
                 ["0", "3*s/(1+s)", "2.169035*sqrt(s)", "0"]]


def test_splice_stall_on_the_network_is_not_retried():
    # the mixed splice's downward leg stalls on the network itself: that is
    # evidence against the condition, so no further inflation level is
    # tried, and the falsifier refutes the network, which the gate of
    # construct_path reports before the mixed route runs
    net = net_of([[parse_gain(g) for g in row] for row in STALLED_GAINS], [SumAgg()] * 4)
    with pytest.raises(Stalled, match="downward iteration is stalling above the "
                       "stopping ball"):
        path_mixed(net)
    verdict = sgc.decide(net)
    assert verdict.fails and verdict.method == "falsify"
    assert_proves_failure(net, verdict)
    with pytest.raises(SgcFails, match="falsification: witness"):
        construct_path(net)


@pytest.mark.parametrize("mu", ["sum", "max"])
def test_majorant_ray_on_concave_networks(mu):
    # a holding network's majorant ray validates on the network itself; a
    # failing one gets no ray, and the gate raises with its re-checked
    # witness.  Max networks keep the closure path and decide's cycle route
    rng = np.random.default_rng(41 if mu == "sum" else 42)
    holding = failing = 0
    for _ in range(30):
        net, _W = random_concave_net(rng, mu)
        verdict = check_majorant(net)
        if verdict.holds:
            sigma = path_majorant(net, verdict)
            assert validate_path(net, sigma).valid and margin_floor_ok(net, sigma)
            res = construct_path(net)
            assert res.route == ("majorant" if mu == "sum" else "max")
            holding += 1
        else:
            with pytest.raises(CompatibilityError, match="no hold to build on"):
                path_majorant(net, verdict)
            with pytest.raises(SgcFails, match="slope majorant: .*CertifiedFails" if mu == "sum"
                               else "cycle condition: fails") as exc:
                construct_path(net)
            assert_proves_failure(net, exc.value.verdict)
            failing += 1
    assert holding >= 10 and failing >= 10


def test_constructor_failures_carry_their_proof():
    # every SgcFails from construct_path is the gate's: decide's verdict on
    # the network, printed as its route line, which proves the failure by a
    # witness that re-checks there or a failing cycle.  The draws reach
    # every route of decide; test_majorant_ray_on_concave_networks checks
    # the same on concave sum and max rows
    rng = np.random.default_rng(0)
    methods = set()
    for _ in range(200):
        net = random_network(rng)[0]
        try:
            construct_path(net)
        except SgcFails as exc:
            assert_proves_failure(net, exc.verdict)
            assert str(exc) == route_line(exc.verdict)
            assert exc.verdict.method == decide(net).method
            methods.add(exc.verdict.method)
        except SmallGainError:
            pass
    assert methods == {"perron", "cycle", "majorant", "falsify"}


# (generator, seed, draws, how many of them decide refutes)
@pytest.mark.parametrize("family, seed, draws, refutations",
                         [("mixed_sum", 2010, 120, 40), ("network", 7, 150, 89)])
def test_no_path_for_a_refuted_network(family, seed, draws, refutations):
    # no network that decide refutes gets a path: construct_path raises
    # SgcFails, with a witness that re-checks or the cycle decide names.
    # Draw 25 of seed 2010 once certified on the mixed route, its re-checked
    # witness near zero below the validation grid
    rng = np.random.default_rng(seed)
    refuted = 0
    for _ in range(draws):
        net = random_mixed_sum_net(rng) if family == "mixed_sum" else random_network(rng)[0]
        verdict = decide(net)
        if not verdict.fails:
            continue
        refuted += 1
        with pytest.raises(SgcFails) as exc:
            construct_path(net)
        proof = exc.value.verdict
        if proof.witness is not None:
            assert sgc._is_witness(net, proof.witness)
        else:
            assert proof.cycle is not None and proof.cycle == verdict.cycle
    assert refuted == refutations


def test_max_networks_above_the_cycle_cap_take_the_closure_path(tmp_path, capsys):
    # the closed walks read the cycle condition at any size, so max networks
    # above the 12 nodes of the cycle listing take the closure path, with a
    # slope majorant or without one (a sigmoid of s^2)
    import json

    from smallgain.cli import main
    from smallgain.parser import format_gain
    from smallgain.sgc import check_cycle_condition

    def max_net(n, gain, chords):
        rng = np.random.default_rng(n)
        rows = [[Z] * n for _ in range(n)]
        for i in range(n):
            cols = [(i + 1) % n, *rng.choice(np.delete(np.arange(n), i), chords,
                                              replace=False)]
            for j in cols:
                rows[i][j] = gain(float(rng.uniform(0.1, 0.8)))
        return net_of(rows, [MaxAgg()] * n)

    ring = max_net(13, lambda c: parse_gain("0.5*s+0.1*s/(1+s)"), 0)
    wide = max_net(40, lambda c: Sum((Linear(c), Saturating(0.1))), 3)
    def sigmoid(c):
        return Compose(Saturating(c), Power(1.0, 2.0))

    chorded, bare = max_net(40, sigmoid, 3), max_net(40, sigmoid, 0)
    assert chorded.majorant is None
    # the 40-step walks of the bare sigmoid ring shrink below one ulp of
    # their radius: the margin reads one, and the lift bounds its base by
    # 4^-n, since 1 - 4^-40 rounds to one
    assert check_cycle_condition(bare).margins["min_margin"] == 1.0
    cfg = tmp_path / "max.json"
    for net in (ring, wide, chorded, bare):
        cl = certify(net)
        assert cl.route == "max" and validate_path(net, cl.sigma).valid
        cfg.write_text(json.dumps({
            "n": net.n, "gains": [[format_gain(g) for g in row] for row in net.gamma],
            "external_gains": ["0"] * net.n, "mu": ["max"] * net.n}))
        assert main(["certify", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("phi: identity")


def test_critical_design_keeps_the_bounded_route():
    # bounded_pair's slope matrix has radius one: the ray refuses and the
    # bounded route takes it
    g = Saturating(1.0)
    pair = net_of([[Z, g], [g, Z]], [SumAgg(), SumAgg()])
    with pytest.raises(CompatibilityError, match=r"slope majorant: 1 \(Inconclusive\)"):
        path_majorant(pair, decide(pair))
    assert_dispatched(pair, "bounded")


def test_outer_sum_design_takes_the_majorant_ray():
    # the neural design's rows wrap their sum in rho = 2 s: the majorant's
    # row is a sum row of 2 c_ij, and its ray serves the design
    design = _cg_design_net()
    L = design.majorant
    assert L.mu == (SumAgg(), SumAgg())
    np.testing.assert_allclose(
        [[g.slope_at_zero() for g in row] for row in L.gamma],
        [[0.0, 2.0 * 2.4 * 0.6621892182730459], [2.0 * 2.4 * 0.011474559674849684, 0.0]],
        rtol=1e-15)
    assert assert_dispatched(design, "majorant").ray is not None


def test_mixed_sum_networks_with_a_majorant_take_its_ray():
    # of 400 draws (seed 2010) the 17 whose gains all have a slope at zero
    # certify on the majorant ray instead of the mixed splice
    rng = np.random.default_rng(2010)
    nets = [random_mixed_sum_net(rng) for _ in range(400)]
    concave = [net for net in nets if net.majorant is not None]
    assert len(concave) == 17
    for net in concave:
        assert_dispatched(net, "majorant")


def _cg_design_net():
    # a neural design of the verify-models workload (seed 2, job cg-free2-12)
    model = CohenGrossberg(
        alpha_lo=[1.0, 1.0], alpha_hi=[1.2, 1.2], b_slope=[1.5, 1.5],
        t_matrix=[[0.0, 0.6621892182730459], [-0.011474559674849684, 0.0]],
        act_scale=[2.0, 2.0])
    return cg_gains(model, epsilon=0.5, rho_slope=1.0, bt=1.0).net


def _sigmoid_mixed_net():
    return net_of([[Z, parse_gain("0.296*s+0.0296*s^1.73")],
                   [parse_gain("(0.297*atan(s))o(1*s^1.95)"), Z]],
                  [SumAgg(), SumAgg()])


@pytest.mark.parametrize("make", [_cg_design_net, _sigmoid_mixed_net],
                         ids=["cg_design", "sigmoid_mixed"])
def test_certifies_where_seed_and_chain_stalls(make):
    # seed-and-chain without its bounded-gain guard stalls on both; today
    # path_majorant (the design) and path_mixed (the sum network) build them
    net = make()
    res = construct_path(net)
    assert validate_path(net, res.sigma).valid

def test_export_csv_format():
    net = max2(0.5)
    sigma = closure(net)
    buf = io.StringIO()
    export_path_csv(net, sigma, buf, radii=np.geomspace(1e-2, 1e2, 5))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "r,sigma_1,sigma_2,margin_min"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert len(row) == 4
    assert float(row[0]) == pytest.approx(1e-2)
    assert float(row[3]) > 0


def test_write_csv_row_cache_keeps_the_bytes():
    # tables sharing a first column at several widths, and a first column
    # that changes: each matches the cell-by-cell format, and at most two
    # first-column texts are kept
    rng = np.random.default_rng(6)
    grids = [VALIDATION_GRID, np.geomspace(1e-3, 1e3, 50), VALIDATION_GRID]
    for grid in grids:
        for width in (2, 5, 2, 8):
            table = np.column_stack([grid, rng.standard_normal((len(grid), width - 1))])
            header = [f"c{i}" for i in range(width)]
            ref = "\n".join([",".join(header)] + [
                ",".join(f"{x:.12g}" for x in row) for row in table]) + "\n"
            buf = io.StringIO()
            write_csv(buf, header, table)
            assert buf.getvalue() == ref
            assert paths_module._first_column.cache_info().currsize <= 2


def csv_kernel_cases():
    """Doubles for the ``%.12g`` kernel: every class its fast path proves
    and every class it hands to ``%``."""
    rng = np.random.default_rng(36)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    ties = np.concatenate([rng.integers(10**10, 10**11, 1000),
                           rng.integers(10**11, 10**12, 1000)]).astype(float) + 0.5
    carries = [float(f"{m}e{e}") for e in range(-300, 300, 7)
               for m in ("9.999999999995", "9.9999999999951", "9.9999999999949")]
    return np.concatenate([
        # whole exponent range: random bit patterns (NaN, inf and subnormals
        # included) and normal draws scaled over the fast path's range
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(float),
        rng.standard_normal(20000) * 10.0 ** rng.integers(-290, 290, 20000),
        rng.random(5000) * 10.0 ** rng.integers(-6, 13, 5000),
        # fallback classes
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
         1e300, -1e300, 1e-300, 1.7976931348623157e308, 1e280, 1e-280,
         np.nextafter(1e280, np.inf), np.nextafter(1e-280, 0.0)],
        # k + 0.5 of 12 digits (exact) and of 13 (a tie), and scaled ones
        ties, ties / 10, ties * 10.0 ** rng.integers(-250, 250, ties.size),
        # integers of 1e12 and above
        1e12 + np.arange(1000.0), rng.integers(10**12, 2**62, 2000).astype(float),
        # powers of ten and their neighbours
        tens, -tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        # carries into the next decade, and values just short of one
        [999999999999.5, 999999999999.4, 99999999999.95, 9999999999995.0,
         0.99999999999995, 9.9999999999996, 0.000099999999999995], carries,
        np.arange(-1000, 1000) / 8.0,
    ])


def test_write_csv_kernel_matches_percent_on_every_cell():
    cells = csv_kernel_cases()
    table = cells[: cells.size // 4 * 4].reshape(-1, 4)
    buf = io.StringIO()
    write_csv(buf, ["a", "b", "c", "d"], table)
    got = buf.getvalue().split("\n")[1:-1]
    ref = [",".join("%.12g" % x for x in row) for row in table.tolist()]
    assert len(got) == len(ref)
    bad = [(row, line) for row, line, want in zip(table.tolist(), got, ref) if line != want]
    assert not bad, bad[:5]


def test_write_csv_matches_cell_by_cell_format(tmp_path):
    rng = np.random.default_rng(5)
    table = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-320, 300, (40, 6))
    table[0] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    table[1] = [2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, 1.0, -1.5, 1e16]
    header = [f"c{i}" for i in range(6)]
    # reference: the f-string cell format the table writers used before
    ref = "\n".join([",".join(header)] + [
        ",".join(f"{table[k, i]:.12g}" for i in range(6)) for k in range(40)
    ]) + "\n"
    buf = io.StringIO()
    write_csv(buf, header, table)
    assert buf.getvalue() == ref
    write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_text() == ref
    for rows in (0, 1):
        buf = io.StringIO()
        write_csv(buf, header, table[:rows])
        assert buf.getvalue() == "\n".join(ref.split("\n")[:rows + 1]) + "\n"
