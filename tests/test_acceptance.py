"""Acceptance gate: one test per criterion, pinned tolerances.

Each criterion is a single test so the verbose run shows one pass/fail
line per criterion.  Tolerances are written out literally; nothing here
adapts to the implementation.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gen import random_tree
from smallgain import simulate
from smallgain.compose import certify
from smallgain.gains import (
    Atan,
    Compose,
    GainNetwork,
    Linear,
    Max,
    MaxAgg,
    PlusId,
    Power,
    Saturating,
    Sum,
    SumAgg,
    Zero,
    eval_operator,
)
from smallgain.parser import format_gain, parse_gain
from smallgain.paths import (
    OmegaPath,
    path_bounded,
    path_homogeneous,
    path_irreducible,
    path_max,
    path_mixed,
    path_reducible,
    path_three_sum,
    validate_path,
)
from smallgain.sgc import (
    CERTIFIED_FAILS,
    _conjugate,
    check_cycle_condition,
    check_linear_spectral,
    decide,
    falsify_sgc,
    nonlinear_perron,
)
from smallgain.simulate import (
    DecreaseSpec,
    InputSignal,
    IssRunSpec,
    cg_demo,
    check_decrease,
    check_iss_bound,
    integrate,
    linear_demo,
    solve_lyapunov_eq,
)

Z = Zero()


def net_of(rows, mu, gu=None):
    n = len(rows)
    gu = tuple(gu) if gu is not None else (Z,) * n
    return GainNetwork(n, tuple(tuple(r) for r in rows), gu, tuple(mu))


def three_quarter_net():
    g = Linear(0.25)
    return net_of([[Z, g, g], [g, Z, g], [g, g, Z]],
                  [SumAgg(), SumAgg(), SumAgg()])


def test_criterion_1_path_validity_suite():
    sat = Saturating(1.0)
    half = Linear(0.5)
    instances = {
        "bounded": (net_of([[Z, sat], [sat, Z]], [SumAgg(), SumAgg()]),
                    path_bounded),
        "irreducible": (three_quarter_net(), path_irreducible),
        "max": (net_of([[Z, half], [half, Z]], [MaxAgg(), MaxAgg()]),
                lambda net: path_max(net, check_cycle_condition(net))),
        "homogeneous": (net_of([[Z, half], [half, Z]], [MaxAgg(), MaxAgg()]),
                        lambda net: path_homogeneous(net, decide(net))),
        "three_sum": (three_quarter_net(), path_three_sum),
        "mixed": (net_of([[Z, Linear(0.3)], [Saturating(0.5), Z]],
                         [SumAgg(), SumAgg()]), path_mixed),
        "reducible": (net_of([[Z, Linear(0.7)], [Z, Z]],
                             [SumAgg(), SumAgg()]), path_reducible),
    }
    rr = np.geomspace(1e-6, 1e6, 1000)
    for name, (net, constructor) in instances.items():
        t0 = time.perf_counter()
        sigma = constructor(net)
        assert isinstance(sigma, OmegaPath), name
        states = sigma(rr)
        image = eval_operator(net, states)
        margin = states - image
        floor = 1e-9 * np.maximum(1.0, states)
        elapsed = time.perf_counter() - t0
        assert np.all(margin >= floor), (
            f"{name}: margin floor violated, worst "
            f"{float(np.min(margin - floor)):.3g}")
        assert elapsed < 10.0, f"{name}: took {elapsed:.1f}s"
    print(f"criterion 1 (path validity suite): pass, "
          f"{len(instances)} constructors x {len(rr)} radii")


def test_criterion_2_cycle_sgc_agreement():
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    disagreements = 0
    failing = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        gamma = []
        for i in range(n):
            row = []
            for j in range(n):
                if i != j and rng.random() < 0.5:
                    row.append(Linear(float(rng.uniform(0.2, 1.6))))
                else:
                    row.append(Z)
            gamma.append(tuple(row))
        net = GainNetwork(n, tuple(gamma), (Z,) * n, (MaxAgg(),) * n)
        cyc = check_cycle_condition(net)
        fal = falsify_sgc(net, seed=int(rng.integers(1 << 31)))
        cycle_fails = cyc.status == CERTIFIED_FAILS
        witness_found = fal.status == CERTIFIED_FAILS
        failing += cycle_fails
        if cycle_fails != witness_found:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0, f"{disagreements} of 200 verdicts disagree"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 2 (cycle/SGC agreement): pass, 200/200 agree "
          f"({failing} failing nets, {elapsed:.1f}s)")


def test_criterion_3_linear_conjugacy():
    model, design = linear_demo(delta=0.2)
    rho_oracle = float(np.max(np.abs(np.linalg.eigvals(design.G))))
    assert abs(rho_oracle - 0.4) <= 1e-9
    # the squared-sum operator is conjugate to the slope matrix under the
    # square root substitution: T(t) = Gamma(t^2)^(1/2) equals G t
    p, _G = design.net.power_form[:2]
    assert p.tolist() == [2.0, 2.0]
    rng = np.random.default_rng(3)
    t = 10.0 ** rng.uniform(-6, 6, (200, 2))
    np.testing.assert_allclose(_conjugate(design.net, p, t), t @ design.G.T,
                               rtol=1e-12)
    v = check_linear_spectral(design.net)
    assert v.rho is not None and abs(v.rho - rho_oracle) <= 1e-9
    # the Perron bound of the conjugate reads the same radius: the
    # symmetric fixed point is the Perron vector
    c, _p, _w, _image = nonlinear_perron(design.net)
    assert abs(c - rho_oracle) <= 1e-9
    # in the substituted coordinates the operator is linear with plain sum
    # rows, and its bound is the same
    conj = net_of([[Z, Linear(design.G[0, 1])], [Linear(design.G[1, 0]), Z]],
                  [SumAgg(), SumAgg()])
    c_conj, p_conj, _w, _image = nonlinear_perron(conj)
    assert p_conj.tolist() == [1.0, 1.0] and abs(c_conj - rho_oracle) <= 1e-9
    sigma = path_homogeneous(design.net, decide(design.net))
    rep = validate_path(design.net, sigma)
    assert rep.valid, f"ray path min margin {rep.min_margin:.3g}"
    print(f"criterion 3 (linear conjugacy): pass, rho={rho_oracle:.12g}, "
          f"Perron bound={c:.12g}")


def test_criterion_4_three_node_closed_form():
    net = three_quarter_net()
    sigma = path_three_sum(net)
    rr = np.geomspace(1e-6, 1e6, 1000)
    states = sigma(rr)
    assert np.all(np.abs(states[:, 1] - rr) < 1e-10 * rr), "second component"
    assert np.all(np.abs(states[:, 2] - 1.75 * rr) <= 1e-9 * rr), "third component"
    sigma_irr = path_irreducible(net)
    rep = validate_path(net, sigma_irr)
    assert rep.valid, f"irreducible route min margin {rep.min_margin:.3g}"
    print("criterion 4 (three-node closed form): pass, "
          "sigma=(r, r, 1.75r) and irreducible route validates")


def test_criterion_5_lyapunov_decrease():
    t0 = time.perf_counter()
    model, design = linear_demo()
    cl = certify(design.net, design.specs)
    quiet = check_decrease(model, cl, DecreaseSpec(samples=10000,
                                                   u_norms=(0.0,), seed=0))
    assert quiet.evaluated == 10000
    assert quiet.violations == 0, quiet.summary()
    driven = check_decrease(model, cl, DecreaseSpec(samples=10000,
                                                    u_norms=(1.0,), seed=1))
    assert driven.evaluated == 10000
    assert driven.violations == 0, driven.summary()
    # negative control: path shrunk a hundredfold, budget map kept
    bad = replace(cl, sigma=OmegaPath(cl.sigma.radii, cl.sigma.values * 0.01))
    control = check_decrease(model, bad, DecreaseSpec(samples=10000,
                                                      u_norms=(1.0,), seed=0))
    assert control.violations >= 1, "corrupted certificate went undetected"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 5 (Lyapunov decrease): pass, 0 violations clean, "
          f"{control.violations} violations corrupted ({elapsed:.1f}s)")


def test_criterion_6_zero_input_stability():
    model_lin, design_lin = linear_demo()
    model_cg, design_cg = cg_demo()
    demos = [
        ("linear", model_lin,
         certify(design_lin.net, design_lin.specs)),
        ("cohen_grossberg", model_cg,
         certify(design_cg.net, design_cg.specs)),
    ]
    assert (simulate.DRIFT_TOL, simulate.CONTRACTION) == (1e-8, 1e-3)
    for name, model, cl in demos:
        rep = check_iss_bound(model, cl,
                              IssRunSpec(runs=50, T=20.0, dt=1e-3, seed=0))
        assert rep.violations == 0, f"{name}: {rep.summary()}"
        assert rep.drift_worst <= 1e-8, f"{name}: drift {rep.drift_worst:.3g}"
        assert rep.contraction_worst < 1e-3, (
            f"{name}: contraction {rep.contraction_worst:.3g}")
    print("criterion 6 (zero-input stability): pass, both demos, 50 runs each")


def test_criterion_7_iss_boundedness():
    model, design = linear_demo()
    cl = certify(design.net, design.specs)
    bound = 1.1 * cl.iss_threshold(1.0)
    # start far outside the bound so entering it is not vacuous
    traj = integrate(model, np.array([20.0, 0.0]),
                     signal=InputSignal.step([1.0]), T=20.0, dt=1e-3,
                     certificate=cl)
    assert traj.v[0] > bound
    assert (simulate.SETTLE_FACTOR, simulate.SETTLE_FRACTION) == (1.1, 0.25)
    rep = check_iss_bound(
        model, cl,
        IssRunSpec(runs=50, T=20.0, dt=1e-3, x0_scale=20.0,
                   signal=InputSignal.step([1.0]), seed=0))
    assert rep.violations == 0, rep.summary()
    print(f"criterion 7 (ISS boundedness): pass, tail peak at "
          f"{rep.settle_worst:.3g} of threshold")


def test_criterion_8_numerical_hygiene():
    # inversion round trip, relative 1e-9
    gains = [
        Linear(2.5),
        Power(0.4, 0.5),
        Power(3.0, 2.0),
        Saturating(2.0),
        Atan(1.3),
        Compose(Saturating(2.0), Linear(3.0)),
        Sum((Linear(1.0), Power(1.0, 2.0))),
        Max((Linear(0.5), Saturating(4.0))),
        PlusId(Power(0.3, 0.7)),
    ]
    for g in gains:
        sup = g.sup()
        ys = (np.geomspace(1e-6, 1e6, 61) if np.isinf(sup)
              else np.linspace(sup * 1e-6, sup * 0.999, 61))
        for y in ys:
            x = float(g.inverse(float(y)))
            assert abs(g(np.asarray(x)) - y) <= 1e-9 * y, (g, y)
    # Lyapunov residuals at and above demo scale
    cases = [
        (np.array([[-1.0]]), np.array([[2.0]])),
        (np.array([[0.0, 1.0], [-2.0, -3.0]]), np.eye(2)),
        (np.diag([-0.5, -1.5, -4.0]) + np.triu(np.ones((3, 3)), 1), np.eye(3)),
    ]
    for A, Q in cases:
        P = solve_lyapunov_eq(A, Q)
        residual = float(np.max(np.abs(A.T @ P + P @ A + Q)))
        assert residual <= 1e-8
    # fourth order convergence on the scalar closed form
    from smallgain.simulate import LinearBlock
    m = LinearBlock(A=([[-1.0]],), delta={}, B=(None,))
    errs = []
    for dt in (1e-2, 5e-3):
        traj = integrate(m, [1.0], T=1.0, dt=dt)
        errs.append(abs(traj.x[-1, 0] - np.exp(-1.0)))
    factor = errs[0] / errs[1]
    assert 16.0 * 0.8 <= factor <= 16.0 * 1.2, f"factor {factor:.3f}"
    # parser round trip, exact equality on 1000 fuzzed trees
    rng = np.random.default_rng(8)
    for _ in range(1000):
        tree = random_tree(rng)
        assert parse_gain(format_gain(tree)) == tree
    print(f"criterion 8 (numerical hygiene): pass, RK4 factor {factor:.2f}")
