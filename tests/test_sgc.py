"""Small gain condition checks against frozen and brute-force oracles."""

import json
from fractions import Fraction

import numpy as np
import pytest

from smallgain import sgc
from smallgain.errors import CompatibilityError, SgcFails, TooLarge
from smallgain.gains import (
    Atan,
    Compose,
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
)
from smallgain.graph import adjacency, subordinated_cycles
from smallgain.parser import parse_gain
from smallgain.paths import construct_path
from smallgain.sgc import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    FALSIFY_CHUNK,
    INCONCLUSIVE,
    WALK_RADII,
    _sphere_directions,
    check_cycle_condition,
    check_linear_spectral,
    check_majorant,
    decide,
    falsify_sgc,
    nonlinear_perron,
)

from gen import (
    ill_conditioned_chain,
    max_cycle_mean,
    random_concave_net,
    random_linear_max_net,
    random_mixed_sum_net,
    random_network,
)


def linear_net(slopes, mu_cls=SumAgg):
    slopes = np.asarray(slopes, dtype=float)
    n = slopes.shape[0]
    gamma = tuple(
        tuple(Linear(slopes[i, j]) if slopes[i, j] else Zero() for j in range(n))
        for i in range(n)
    )
    return GainNetwork(n=n, gamma=gamma, gamma_u=(Zero(),) * n, mu=(mu_cls(),) * n)


def test_cycle_condition_two_cycle_holds():
    v = check_cycle_condition(linear_net([[0, 0.5], [0.5, 0]], MaxAgg))
    assert v.holds
    assert v.margins["min_margin"] == pytest.approx(0.75)


def test_cycle_condition_identity_composition_fails():
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Power(1, 2)), (Power(1, 0.5), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(MaxAgg(), MaxAgg()),
    )
    v = check_cycle_condition(net)
    assert v.fails
    assert v.cycle == (1, 0)
    assert v.witness is not None
    assert np.all(eval_operator(net, v.witness) >= v.witness)
    # slopes 2 and 0.5 return every walk to exactly its radius: a failure
    net = linear_net([[0, 2.0], [0.5, 0]], MaxAgg)
    v = check_cycle_condition(net)
    assert v.fails and v.cycle == (1, 0)
    assert v.witness is not None and sgc._is_witness(net, v.witness)


def test_overflowed_cycle_walk_is_no_refutation(tmp_path, capsys):
    # both cycle compositions stay below the identity (at most 0.507 s on
    # [1e-300, 1e300]), but 0.5*s^50 overflows on the walks' top radii and
    # inf >= r reads as a return: a return without a finite witness is
    # Inconclusive, and decide goes on to the falsifier
    from smallgain.cli import main

    gains = [["0", "0.5*s^0.02+0.01*atan(s)"], ["0.5*s^50", "0"]]
    net = GainNetwork(n=2, gamma=tuple(tuple(parse_gain(g) for g in row) for row in gains),
                      gamma_u=(Zero(), Zero()), mu=(MaxAgg(), MaxAgg()))
    cycle = check_cycle_condition(net)
    assert cycle.inconclusive and cycle.witness is None and cycle.cycle == (1, 0)
    verdict = decide(net)
    assert not verdict.fails
    assert [v.method for v in verdict.routes] == ["cycle", "falsify"]
    cfg = tmp_path / "steep.json"
    cfg.write_text(json.dumps({"n": 2, "gains": gains, "external_gains": ["0", "0"],
                               "mu": ["max", "max"]}))
    with np.errstate(over="ignore"):
        main(["check", str(cfg)])
    out = capsys.readouterr().out
    assert "CertifiedFails" not in out
    assert out.startswith("cycle condition: returns without a witness on cycle (2, 1)\n")


def test_cycle_condition_three_cycle_product():
    s = np.zeros((3, 3))
    s[0, 1] = s[1, 2] = s[2, 0] = 0.9
    v = check_cycle_condition(linear_net(s, MaxAgg))
    assert v.holds
    assert v.margins["min_margin"] == pytest.approx(1 - 0.729)


def test_cycle_condition_needs_max_rows():
    with pytest.raises(CompatibilityError, match="needs max aggregation in every row"):
        check_cycle_condition(linear_net([[0, 0.5], [0.5, 0]], SumAgg))


def test_falsify_finds_expanding_witness():
    net = linear_net([[0, 2], [2, 0]], MaxAgg)
    v = falsify_sgc(net)
    assert v.fails
    assert np.all(eval_operator(net, v.witness) >= v.witness)
    assert np.any(v.witness > 0)


def test_falsify_contractive_inconclusive():
    v = falsify_sgc(linear_net([[0, 0.5], [0.5, 0]], MaxAgg))
    assert v.inconclusive
    assert v.margins["best_deficit"] > 0


def test_falsify_trivial_single_node():
    net = GainNetwork(
        n=1, gamma=((Zero(),),), gamma_u=(Zero(),), mu=(SumAgg(),)
    )
    assert falsify_sgc(net).inconclusive


def test_spectral_frozen_cases():
    v = check_linear_spectral(linear_net([[0, 0.5], [0.5, 0]]))
    assert v.holds
    assert v.rho == pytest.approx(0.5, abs=1e-11)
    v = check_linear_spectral(linear_net([[0, 1], [1, 0]]))
    assert v.fails
    assert v.rho == pytest.approx(1.0, abs=1e-11)
    assert np.all(eval_operator(linear_net([[0, 1], [1, 0]]), v.witness) >= v.witness)
    v = check_linear_spectral(linear_net([[0, 0], [0, 0]]))
    assert v.holds
    assert v.rho == 0.0


def test_spectral_rejects_nonlinear():
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Saturating(1)), (Linear(1), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(SumAgg(), SumAgg()),
    )
    with pytest.raises(CompatibilityError, match=r"gain \(1,2\) is not c\*s\^q"):
        check_linear_spectral(net)


def test_spectral_power_substitution():
    # rows (sum of c*sqrt(s_j))^2 become linear in t = sqrt(s)
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Power(0.4, 0.5)), (Power(0.4, 0.5), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(OuterSum(Power(1, 2)), OuterSum(Power(1, 2))),
    )
    v = check_linear_spectral(net)
    assert v.holds
    assert v.rho == pytest.approx(0.4, abs=1e-9)


def test_spectral_matches_dense_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        G = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(G, 0.0)
        v = check_linear_spectral(linear_net(G))
        want = float(np.max(np.abs(np.linalg.eigvals(G))))
        assert v.rho == pytest.approx(want, abs=1e-8)
        if want >= 1.02:
            assert v.fails
        if want <= 0.98:
            assert v.holds


def test_perron_symmetric_two_cycle():
    # w = (I - G)^-1 1 = (2, 2) scaled to max one, T(w) = (0.5, 0.5): the
    # bound is the radius
    c, p, w, _image = nonlinear_perron(linear_net([[0, 0.5], [0.5, 0]]))
    assert c == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(w, [1.0, 1.0], rtol=1e-12)
    assert p.tolist() == [1.0, 1.0]


def test_perron_asymmetric_geometric_mean():
    # one gain per row, so sum and max rows alike solve
    # w = ((1 + a) / (1 - ab), (1 + b) / (1 - ab)), c = max_i 1 - 1/w_i;
    # the linear solve (sum rows) returns w scaled to max one
    for mu_cls in (SumAgg, MaxAgg):
        for a, b in [(1.3, 0.4), (4.0, 0.2), (0.1, 0.5)]:
            c, _p, w, _image = nonlinear_perron(linear_net([[0, a], [b, 0]], mu_cls))
            want = np.array([1.0 + a, 1.0 + b]) / (1.0 - a * b)
            scale = want.max() if mu_cls is SumAgg else 1.0
            np.testing.assert_allclose(w, want / scale, rtol=1e-9)
            assert c == pytest.approx(float(np.max(1.0 - 1.0 / want)), rel=1e-9)
            # a Collatz-Wielandt bound sits above the spectral radius
            assert np.sqrt(a * b) <= c < 1.0
        # at the critical product no bound proves the condition
        for a, b in [(2.0, 0.5), (4.0, 0.25)]:
            c, _p, _w, _image = nonlinear_perron(linear_net([[0, a], [b, 0]], mu_cls))
            assert c >= 1.0 - 1e-9


def test_perron_power_conjugate_matches_spectral():
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Power(0.4, 0.5)), (Power(0.4, 0.5), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(OuterSum(Power(1, 2)), OuterSum(Power(1, 2))),
    )
    c, p, w, _image = nonlinear_perron(net)
    assert p.tolist() == [2.0, 2.0]
    # the symmetric fixed point is the Perron vector of the slope matrix
    assert c == pytest.approx(check_linear_spectral(net).rho, abs=1e-12)
    assert c == pytest.approx(0.4, abs=1e-12)
    np.testing.assert_allclose(eval_operator(net, w**2), (0.4 * w) ** 2, rtol=1e-12)


def test_perron_rejects_bad_inputs():
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Saturating(1)), (Linear(1), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(SumAgg(), SumAgg()),
    )
    with pytest.raises(CompatibilityError, match=r"gain \(1,2\) is not c\*s\^q"):
        nonlinear_perron(net)
    # a cycle of exponents 2 and 2 has no per-node power change
    squares = GainNetwork(
        n=2,
        gamma=((Zero(), Power(0.1, 2)), (Power(0.1, 2), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(MaxAgg(), MaxAgg()),
    )
    with pytest.raises(CompatibilityError, match="breaks every per-node power change"):
        nonlinear_perron(squares)
    # a reducible network needs no irreducibility: w = (2, 1) / 2,
    # T(w) = (0.5, 0)
    c, _p, w, _image = nonlinear_perron(linear_net([[0, 1], [0, 0]]))
    np.testing.assert_allclose(w, [1.0, 0.5])
    assert c == pytest.approx(0.5)


def power_network(rng, p, mask, bend=None):
    """Network with gains ``c s^q``, ``q = p_i / (p_j e_i)``, on sum, max and
    power-of-sum rows (``e_i`` the row's outer power), each gain written as
    a power, a sum or max of two, or a composition.  ``bend`` scales the
    exponent of the gain at that ``(i, j)``."""
    n = len(p)
    gamma, mu, e = [], [], np.ones(n)
    for i in range(n):
        kind = rng.integers(0, 3)
        if kind == 2:
            e[i] = float(np.round(rng.uniform(0.5, 3.0), 3))
            mu.append(OuterSum(Power(float(rng.uniform(0.5, 2.0)), e[i])))
        else:
            mu.append((SumAgg(), MaxAgg())[kind])
        row = []
        for j in range(n):
            if not mask[i, j]:
                row.append(Zero())
                continue
            q = p[i] / (p[j] * e[i]) * (1.1 if (i, j) == bend else 1.0)
            c = float(rng.uniform(0.1, 1.0))
            row.append([Power(c, q), Sum((Power(c, q), Power(c / 2, q))),
                        Max((Power(c, q), Power(2 * c, q))),
                        Compose(Power(c, 2.0), Power(1.0, q / 2))][rng.integers(0, 4)])
        gamma.append(tuple(row))
    net = GainNetwork(n=n, gamma=tuple(gamma), gamma_u=(Zero(),) * n, mu=tuple(mu))
    return net, e


def test_power_form_recovered_per_component():
    rng = np.random.default_rng(29)
    split = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        p = np.exp(rng.uniform(-1.0, 1.0, n))
        mask = rng.random((n, n)) < 0.3
        np.fill_diagonal(mask, False)
        net, e = power_network(rng, p, mask)
        got = net.power_form[0]
        # one scale per weakly connected component: equal ratios along
        # every gain, and each component's first node keeps p = e
        scale = got / p
        for i, j in zip(*np.nonzero(mask)):
            assert scale[i] == pytest.approx(scale[j], rel=1e-9)
        seen = np.zeros(n, dtype=bool)
        for root in range(n):
            if seen[root]:
                continue
            assert got[root] == e[root]
            comp, stack = {root}, [root]
            while stack:
                k = stack.pop()
                for m in np.flatnonzero(mask[k] | mask[:, k]):
                    if m not in comp:
                        comp.add(m)
                        stack.append(m)
            seen[list(comp)] = True
            split += len(comp) < n
    assert split > 20


def test_power_form_reject_cycle_product_off_one():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        p = np.exp(rng.uniform(-1.0, 1.0, n))
        mask = rng.random((n, n)) < 0.4
        np.fill_diagonal(mask, False)
        mask[0, 1] = mask[1, 0] = True
        power_network(np.random.default_rng(1), p, mask)[0].power_form
        # the 2-cycle 0 <-> 1 then has exponent product 1.1
        net, _e = power_network(np.random.default_rng(1), p, mask, bend=(0, 1))
        with pytest.raises(CompatibilityError, match="breaks every per-node power"):
            net.power_form


def test_cycle_verdict_agrees_with_falsification():
    rng = np.random.default_rng(41)
    for _ in range(50):
        net = random_linear_max_net(rng)
        cyc = check_cycle_condition(net)
        fal = falsify_sgc(net)
        if cyc.holds:
            assert fal.inconclusive
        else:
            assert fal.fails
            assert np.all(eval_operator(net, fal.witness) >= fal.witness)


def _ring(slopes_or_gains, chords=()):
    # max network on a ring i -> i+1, plus chords (i, j, gain)
    n = len(slopes_or_gains)
    gamma = [[Zero()] * n for _ in range(n)]
    for i, g in enumerate(slopes_or_gains):
        gamma[i][(i + 1) % n] = Linear(g) if isinstance(g, float) else g
    for i, j, g in chords:
        gamma[i][j] = g
    return GainNetwork(n=n, gamma=tuple(map(tuple, gamma)),
                       gamma_u=(Zero(),) * n, mu=(MaxAgg(),) * n)


def _scalar_walks(net):
    """Reference for :func:`sgc._closed_walks`: each walk one vector at a
    time, in (step, node, radius) order."""
    walks = {(i, r): [r * np.eye(net.n)[i]] for i in range(net.n) for r in WALK_RADII}
    returns = np.zeros((net.n, WALK_RADII.size))
    hit = None
    for k in range(1, net.n + 1):
        for (i, r), states in walks.items():
            states.append(eval_operator(net, states[-1]))
            back = states[-1][i]
            m = int(np.flatnonzero(WALK_RADII == r)[0])
            returns[i, m] = max(returns[i, m], back)
            if back >= r:
                hit = hit or (k, i, r)
                top = np.max(states[:-1], axis=0)
                if sgc._is_witness(net, top):
                    return hit, top, returns
    return hit, None, returns


EDGE_KINDS = {
    "linear": Linear(1.3),
    "power": Power(1.2, 1.5),
    "saturating": Saturating(2.0),
    "atan": Atan(1.5),
    "sum": Sum((Linear(0.7), Power(0.6, 2.0))),
    "max": Max((Linear(1.1), Saturating(1.0))),
    "compose": Compose(Power(1.0, 0.5), Linear(1.6)),
    "plusid": PlusId(Power(0.2, 0.5)),
}


@pytest.mark.parametrize("kind", sorted(EDGE_KINDS))
def test_batched_cycle_walk_matches_scalar_walk(kind):
    # a failing ring of four equal gains: the batched closed walks find the
    # scalar walks' first return and witness, bit for bit
    net = _ring([EDGE_KINDS[kind]] * 4)
    hit, witness, _returns = sgc._closed_walks(net)
    ref_hit, ref_witness, _ = _scalar_walks(net)
    assert hit == ref_hit and hit[0] == 4
    assert witness.tobytes() == ref_witness.tobytes()
    assert sgc._is_witness(net, witness)
    v = check_cycle_condition(net)
    # the ring's one cycle, named as the cycle listing names it
    assert v.fails and v.cycle == (3, 0, 1, 2) == subordinated_cycles(adjacency(net))[0]
    assert v.witness.tobytes() == witness.tobytes()


def test_cycle_walk_none_when_holding():
    # 0.5^4 r returns to every node after four steps, and nothing before
    net = _ring([0.5] * 4)
    hit, witness, returns = sgc._closed_walks(net)
    assert hit is None and witness is None
    assert np.array_equal(returns, np.tile(0.0625 * WALK_RADII, (4, 1)))
    assert np.array_equal(returns, _scalar_walks(net)[2])
    assert check_cycle_condition(net).margins["min_margin"] == pytest.approx(0.9375)


def cycle_reference(net):
    """Reference cycle criterion: every rotation of every simple cycle of
    :func:`subordinated_cycles`, composed gain by gain on ``WALK_RADII``.
    Returns whether it holds and, if so, the least ``(r - C(r)) / r``
    (one without cycles, where every walk returns zero)."""
    margin = 1.0
    for c in subordinated_cycles(adjacency(net)):
        for m in range(len(c)):
            rot = c[m:] + c[:m]
            vals = WALK_RADII
            for a, b in reversed(list(zip(rot, rot[1:] + rot[:1]))):
                vals = net.gamma[a][b](vals)
            if np.any(vals >= WALK_RADII):
                return False, None
            margin = min(margin, float(np.min((WALK_RADII - vals) / WALK_RADII)))
    return True, margin


def random_max_nets(seed, count):
    """Max networks of random_network, n = 2-7: about half of linear
    gains, the rest of random leaves."""
    rng = np.random.default_rng(seed)
    nets = []
    while len(nets) < count:
        net, kind = random_network(rng, nmax=7)
        if kind == "max":
            nets.append(net)
    return nets


def test_closed_walks_match_the_rotations_of_every_cycle():
    holding = failing = 0
    for net in random_max_nets(60, 90):
        v = check_cycle_condition(net)
        holds, margin = cycle_reference(net)
        assert v.holds == holds
        if holds:
            assert v.margins["min_margin"] == pytest.approx(margin, rel=1e-12)
            holding += 1
            continue
        # the failing walk is a closed walk of the graph, named from its
        # largest node, and its witness re-checks
        adj = adjacency(net)
        c = v.cycle
        assert c[0] == max(c)
        assert all(adj[c[m], c[(m + 1) % len(c)]] for m in range(len(c)))
        assert v.witness is not None and sgc._is_witness(net, v.witness)
        failing += 1
    assert holding >= 20 and failing >= 20


def test_walk_stage_witnesses_recheck():
    # draws of random_mixed_sum_net have no linear or power route; the
    # sweep and the per-cycle inverse walks found 22 witnesses here, and
    # the closed walks find more, each re-checked
    rng = np.random.default_rng(2010)
    found = walked = 0
    for _ in range(200):
        net = random_mixed_sum_net(rng)
        v = falsify_sgc(net)
        if v.fails:
            assert sgc._is_witness(net, v.witness)
            found += 1
            walked += v.method == "falsify-walk"
    assert found >= 22 and walked >= 22


def test_cycle_condition_reads_operator_n_times(monkeypatch):
    # a holding max ring with chords: one operator call per walk step, each
    # on every node's walks at every radius
    net = _ring([0.5] * 8, chords=[(2, 0, Linear(0.5)), (5, 1, Linear(0.5)),
                                  (7, 3, Linear(0.5)), (4, 6, Linear(0.5))])
    calls = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: calls.append(np.shape(s)) or real_op(net, s))
    assert check_cycle_condition(net).holds
    assert calls == [(WALK_RADII.size * 8, 8)] * 8


def test_decide_walks_once_when_the_cycle_route_holds(monkeypatch):
    # a complete non-power max network: the cycle route's walks run and none
    # returns, so the falsifier's walk stage could find no witness and is
    # skipped; the falsifier's verdict is the one it gives with its walks
    n = 8
    g = parse_gain("(0.5*s/(1+s))o(1*s^2)")
    net = GainNetwork(n=n, gamma=tuple(tuple(Zero() if i == j else g for j in range(n))
                                       for i in range(n)),
                      gamma_u=(Zero(),) * n, mu=(MaxAgg(),) * n)
    walks, steps = [], []
    real_walks, real_op = sgc._closed_walks, sgc.eval_operator
    monkeypatch.setattr(sgc, "_closed_walks",
                        lambda net: walks.append(1) or real_walks(net))
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: steps.append(np.shape(s)) or real_op(net, s))
    v = decide(net)
    assert v.holds and [r.method for r in v.routes] == ["cycle", "falsify"]
    assert len(walks) == 1
    assert steps.count((WALK_RADII.size * n, n)) == n
    walks.clear()
    alone = falsify_sgc(net)
    assert len(walks) == 1
    assert alone.inconclusive and v.routes[1].margins == alone.margins


def test_perron_linear_conjugate_is_one_solve(monkeypatch):
    calls = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: calls.append(np.shape(s)) or real_op(net, s))
    # a linear conjugate: one solve, then one operator call reads the bound
    c, _p, _w, _image = nonlinear_perron(linear_net([[0, 0.5], [0.5, 0]]))
    assert c == pytest.approx(0.5) and calls == [(2,)]
    calls.clear()
    # max rows iterate w <- 1 + T(w) from w = 1 on the array form of T,
    # then one operator call reads the bound
    c, _p, w, _image = nonlinear_perron(linear_net([[0, 0.5], [0.5, 0]], MaxAgg))
    assert c == pytest.approx(0.5) and np.allclose(w, [2.0, 2.0])
    assert calls == [(2,)]
    calls.clear()
    # a witness direction stops the iteration at once: T(1) >= 1
    c, _p, w, _image = nonlinear_perron(linear_net([[0, 1.5], [1.5, 0]], MaxAgg))
    assert calls == [(2,)] and c == pytest.approx(1.5)
    assert w.tolist() == [1.0, 1.0]


def test_perron_badly_scaled_linear_takes_inverse_steps(monkeypatch):
    # radius 0.5, but the Neumann vector (1.3e10, 1.3) reads c = 1 - 7.5e-11:
    # a second step w <- (I - G)^-1 w reads c = 0.625, a proof
    net = linear_net([[0, 1e10], [2.5e-11, 0]])
    c, p, w, _image = nonlinear_perron(net)
    assert 0.5 <= c == pytest.approx(0.625, rel=1e-9)
    assert c == pytest.approx(float(np.max(eval_operator(net, w) / w)), rel=1e-12)
    assert decide(net).holds
    # each step lowers the bound: capped at one step, it is the Neumann one
    monkeypatch.setattr(sgc, "INVERSE_MAX_ITER", 1)
    assert nonlinear_perron(net)[0] > 1.0 - 1e-9


def critical_ring():
    return GainNetwork(
        n=3,
        gamma=((Zero(), Power(1.0, 0.5), Zero()), (Power(1.0, 2.0), Zero(), Zero()),
               (Linear(1e-6), Zero(), Zero())),
        gamma_u=(Zero(),) * 3,
        mu=(SumAgg(),) * 3,
    )


def test_perron_bound_is_read_at_the_returned_vector(monkeypatch):
    # critical ring t1 <-> t2 (p = (1, 0.5, 1)) and a weak downstream node:
    # w <- 1 + T(w) runs to the step cap as w_k = (k + 1, k + 1, 1 + 1e-6 k),
    # and T(w) <= c w at that w needs c = 1, so nothing is proved, while
    # s = (1, 1, 1e-6) has Gamma(s) >= s; any cap shows it, a small one is quick
    monkeypatch.setattr(sgc, "FIXED_MAX_ITER", 2000)
    net = critical_ring()
    c, p, w, _image = nonlinear_perron(net)
    assert net.power_form[1] is None
    t_w = eval_operator(net, w**p) ** (1.0 / p)
    assert c == float(np.max(t_w / w)) and c >= 1.0 - 1e-9
    assert np.all(eval_operator(net, np.array([1.0, 1.0, 1e-6])) >= [1.0, 1.0, 1e-6])
    # w^p is no witness, as the weak node does not keep up; its row dropped
    # and scaled to sup norm one, the Perron candidate (1, 1, 0) re-checks
    assert not sgc._is_witness(net, w**p)
    v = decide(net)
    assert v.fails and [r.method for r in v.routes] == ["perron"]
    assert v.witness.tolist() == [1.0, 1.0, 0.0] and sgc._is_witness(net, v.witness)


def random_power_networks(seed, count):
    """``power_network`` draws whose conjugate is not linear."""
    rng = np.random.default_rng(seed)
    nets = []
    while len(nets) < count:
        n = int(rng.integers(2, 7))
        p = np.exp(rng.uniform(-1.0, 1.0, n))
        mask = rng.random((n, n)) < 0.5
        np.fill_diagonal(mask, False)
        net, _e = power_network(rng, p, mask)
        if net.power_form[1] is None:
            nets.append(net)
    return nets


def test_conjugate_form_matches_operator():
    rng = np.random.default_rng(53)
    kinds = set()
    for net in random_power_networks(52, 150) + [critical_ring()]:
        p, _G, rows, C = net.power_form
        T = sgc._conjugate_form(p, rows, C)[0]
        kinds.update(type(mu).__name__ for mu in net.mu)
        kinds.update(type(g).__name__ for row in net.gamma for g in row)
        for t in np.exp(rng.uniform(-5.0, 5.0, (5, net.n))):
            want = sgc._conjugate(net, p, t)
            np.testing.assert_allclose(T(t), want, rtol=1e-12, atol=0.0)
    assert {"SumAgg", "MaxAgg", "OuterSum", "Power", "Sum", "Max", "Compose"} <= kinds


def operator_perron(net):
    """Reference: the fixed-point loop of :func:`nonlinear_perron` on the
    operator itself, one ``eval_operator`` call per step."""
    p, _G = net.power_form[:2]
    w = np.ones(net.n)
    tw = sgc._conjugate(net, p, w)
    for _ in range(sgc.FIXED_MAX_ITER):
        step = 1.0 + tw
        if (np.all(tw >= w) or not w.max() < sgc.FIXED_CEILING
                or np.all(step - w <= sgc.FIXED_TOL * step)):
            break
        w, tw = step, sgc._conjugate(net, p, step)
    return float(np.max(tw / w)), p, w


def test_perron_array_form_matches_operator_loop(monkeypatch):
    # the critical ring runs to the step cap on both; a small cap is quick
    monkeypatch.setattr(sgc, "FIXED_MAX_ITER", 2000)
    proved = 0
    for net in random_power_networks(54, 60) + [critical_ring()]:
        c, p, w, _image = nonlinear_perron(net)
        c_ref, p_ref, _w = operator_perron(net)
        assert p.tolist() == p_ref.tolist()
        assert (c < 1.0 - 1e-9) == (c_ref < 1.0 - 1e-9)
        assert c == pytest.approx(c_ref, rel=1e-9)
        proved += c < 1.0 - 1e-9
    assert 10 < proved < 60


def max_of_linear_networks(seed, count, log_scale=(-1.5, 0.8)):
    """Power networks whose conjugate is max-of-linear and not linear: max
    rows of gains ``c s^(p_i / p_j)``, ``p`` drawn from {1/2, 1, 2}, beside
    sum rows of linear gains (``p_i = 1``), half of them with sum rows.
    Each network's ``c`` take one factor ``exp(u)^q``, ``u`` uniform on
    ``log_scale``."""
    rng = np.random.default_rng(seed)
    nets = []
    while len(nets) < count:
        n = int(rng.integers(2, 8))
        summed = rng.random(n) < (0.4 if len(nets) % 2 else 0.0)
        p = np.where(summed, 1.0, rng.choice([0.5, 1.0, 2.0], n))
        mask = rng.random((n, n)) < 0.45
        mask[np.arange(n), (np.arange(n) + 1) % n] = True
        np.fill_diagonal(mask, False)
        scale = float(np.exp(rng.uniform(*log_scale)))
        gamma = [[Zero()] * n for _ in range(n)]
        for i, j in zip(*np.nonzero(mask)):
            q = p[i] / p[j]
            c = float(rng.uniform(0.1, 1.0)) * scale ** q
            gamma[i][j] = Linear(c) if q == 1.0 else Power(c, float(q))
        net = GainNetwork(n=n, gamma=tuple(map(tuple, gamma)), gamma_u=(Zero(),) * n,
                          mu=tuple(SumAgg() if s else MaxAgg() for s in summed))
        if net.power_form[1] is None:
            nets.append(net)
    return nets


def array_loop_perron(net):
    """Reference: :func:`nonlinear_perron` without policy iteration, the
    loop ``w <- 1 + T(w)`` on the array form alone."""
    p, _G, rows, C = net.power_form
    T = sgc._conjugate_form(p, rows, C)[0]
    w = np.ones(net.n)
    tw = T(w)
    for _ in range(sgc.FIXED_MAX_ITER):
        step = 1.0 + tw
        if (np.all(tw >= w) or not w.max() < sgc.FIXED_CEILING
                or np.all(step - w <= sgc.FIXED_TOL * step)):
            break
        w, tw = step, T(step)
    return sgc._perron_bound(net, p, w)


def spy_policy_iteration(monkeypatch):
    """Record what each :func:`sgc._policy_iteration` call returns."""
    results = []
    real = sgc._policy_iteration

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(sgc, "_policy_iteration", spy)
    return results


def test_policy_iteration_reaches_the_fixed_point(monkeypatch):
    results = spy_policy_iteration(monkeypatch)
    proved = mixed = 0
    for net in max_of_linear_networks(61, 120):
        results.clear()
        c, p, w, image = nonlinear_perron(net)
        c_ref, _p, _w = operator_perron(net)
        assert (c < 1.0 - 1e-9) == (c_ref < 1.0 - 1e-9)
        assert c == pytest.approx(c_ref, rel=1e-9)
        if results and results[-1] is not None:
            # the returned w is the solve's: w = 1 + T(w), and c is read there
            _p, _G, rows, C = net.power_form
            T = sgc._conjugate_form(p, rows, C)[0]
            np.testing.assert_allclose(w, 1.0 + T(w), rtol=1e-12, atol=0.0)
            assert c == float(np.max(image ** (1.0 / p) / w)) < 1.0 - 1e-9
            proved += 1
            mixed += any(isinstance(mu, SumAgg) for mu in net.mu)
    assert proved > 30 and mixed > 10


def test_failing_max_networks_keep_the_loop_bit_for_bit(monkeypatch):
    results = spy_policy_iteration(monkeypatch)
    refused = failing = 0
    for net in max_of_linear_networks(62, 150, (0.0, 1.0)):
        results.clear()
        got = nonlinear_perron(net)
        if got[0] < 1.0:
            continue
        failing += 1
        refused += results == [None]
        want = array_loop_perron(net)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)
    # policy iteration refused some networks before the loop went on
    assert failing > 80 and refused > 20


def test_near_critical_max_ring_takes_few_evaluations(monkeypatch):
    # a ring of 8 max rows at cycle mean 0.999: w <- 1 + T(w) alone runs to
    # its 20,000-step cap; the loop's first steps and one policy round
    # decide it
    n = 8
    a = 0.999 * np.array([0.5, 1.7, 0.9, 1.2, 0.6, 1.5, 1.1, 1.0])
    a /= np.prod(a / 0.999) ** (1.0 / n)
    gamma = [[Zero()] * n for _ in range(n)]
    for i in range(n):
        gamma[i][(i + 1) % n] = Power(float(a[i]) ** (2.0 if i % 2 else 1.0),
                                      2.0 if i % 2 else 0.5)
    net = GainNetwork(n=n, gamma=tuple(map(tuple, gamma)), gamma_u=(Zero(),) * n,
                      mu=(MaxAgg(),) * n)
    evaluations = []
    real_form, real_solve = sgc._conjugate_form, np.linalg.solve

    def counted_form(*args):
        T, fixed_point = real_form(*args)
        return (lambda t: evaluations.append("T") or T(t)), fixed_point

    monkeypatch.setattr(sgc, "_conjugate_form", counted_form)
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: evaluations.append("solve") or real_solve(*args))
    v = decide(net)
    assert v.holds and [r.method for r in v.routes] == ["perron"]
    assert 0.999 <= v.rho < 1.0 - 1e-9
    assert len(evaluations) <= 50
    monkeypatch.setattr(sgc, "_conjugate_form", real_form)
    c_ref = array_loop_perron(net)[0]
    assert 0.999 <= c_ref < 1.0 - 1e-9


def test_decide_on_power_max_network_reads_operator_twice_at_most(monkeypatch):
    rng = np.random.default_rng(55)
    n = 12
    gamma = [[Zero()] * n for _ in range(n)]
    for i in range(n):
        for j in rng.choice(np.delete(np.arange(n), i), 3, replace=False):
            gamma[i][j] = Power(float(rng.uniform(0.1, 0.9)), 1.0)
    gamma[0][1] = Compose(Power(0.5, 2.0), Power(1.0, 0.5))
    net = GainNetwork(n=n, gamma=tuple(map(tuple, gamma)), gamma_u=(Zero(),) * n,
                      mu=(MaxAgg(),) * n)
    calls = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: calls.append(np.shape(s)) or real_op(net, s))
    v = decide(net)
    # the Perron proof stops the run before any cycle is sampled: its bound
    # is read with one operator call, and a proof reads no witness
    assert v.holds and [r.method for r in v.routes] == ["perron"]
    assert len(calls) == 1


def test_failing_perron_verdict_reads_operator_twice(monkeypatch):
    # a power max network whose 2-cycle composes to 1.5 s: the bound is read
    # with one operator call, whose image also names the expanded rows, and
    # the candidate witness is re-checked with one more
    net = GainNetwork(n=2, gamma=((Zero(), Power(1.5, 2.0)), (Power(1.0, 0.5), Zero())),
                      gamma_u=(Zero(),) * 2, mu=(MaxAgg(),) * 2)
    calls = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: calls.append(np.shape(s)) or real_op(net, s))
    v = decide(net)
    assert v.fails and [r.method for r in v.routes] == ["perron"]
    assert calls == [(2,), (2,)]
    c, p, w, image = nonlinear_perron(net)
    assert np.array_equal(image, real_op(net, w**p))
    assert c == np.max(image ** (1.0 / p) / w) and c >= 1.0


def test_power_form_read_once_per_network(monkeypatch):
    # the Perron route and the ray share one reading
    reads = []
    read = GainNetwork._read_power_form
    monkeypatch.setattr(GainNetwork, "_read_power_form",
                        lambda net: reads.append(net) or read(net))
    net = GainNetwork(n=2, gamma=((Zero(), Power(0.5, 2.0)), (Power(0.5, 0.5), Zero())),
                      gamma_u=(Zero(),) * 2, mu=(SumAgg(),) * 2)
    v = decide(net)
    assert v.holds and [r.method for r in v.routes] == ["perron"]
    assert construct_path(net).route == "ray"
    assert reads == [net]
    p, G, _rows, C = net.power_form
    assert G is None and not p.flags.writeable and not C.flags.writeable
    # a failed reading is kept too: the concave sum network below is not
    # power-homogeneous, and the Perron route and the ray each ask; its
    # slope majorant is read once as well
    bent = Sum((Linear(0.3), Saturating(0.1)))
    net = GainNetwork(n=2, gamma=((Zero(), bent), (bent, Zero())),
                      gamma_u=(Zero(),) * 2, mu=(SumAgg(),) * 2)
    v = decide(net)
    assert v.holds and [r.method for r in v.routes] == ["majorant"]
    assert construct_path(net).route == "majorant"
    assert reads[1:] == [net, net.majorant] and reads[1] is net
    errors = []
    for _ in range(2):
        with pytest.raises(CompatibilityError, match=r"gain \(1,2\) is not c\*s\^q") as exc:
            net.power_form
        errors.append(exc.value)
    assert errors[0] is not errors[1]


# ---------------------------------------------------------------------------
# decide


def run_all_routes(net, seed=0):
    """Reference rule: every applicable route runs, any failure wins.

    The routes run Perron, cycle, majorant, falsifier.  The Perron
    route holds at a bound below ``1 - 1e-9`` and fails when ``v^p`` is a
    witness, for ``v`` the stopped ``w`` without the rows ``Gamma_mu(w^p) >=
    w^p`` misses, scaled to sup norm one; the slope majorant runs where it
    applies, and the falsifier runs whatever came before it.
    """
    routes = []
    try:
        c, p, w, _image = nonlinear_perron(net)
    except CompatibilityError:
        pass
    else:
        v = np.where(eval_operator(net, w**p) >= w**p, w, 0.0)
        s = (v / v.max()) ** p if v.any() else v
        witness = v.any() and np.all(eval_operator(net, s) >= s)
        routes.append(CERTIFIED_HOLDS if c < 1.0 - 1e-9 else
                      CERTIFIED_FAILS if witness else INCONCLUSIVE)
    try:
        routes.append(check_cycle_condition(net).status)
    except CompatibilityError:
        pass
    try:
        routes.append(check_majorant(net).status)
    except CompatibilityError:
        pass
    routes.append(falsify_sgc(net, seed).status)
    for status in (CERTIFIED_FAILS, CERTIFIED_HOLDS):
        if status in routes:
            return status, routes
    return INCONCLUSIVE, routes


def test_decide_matches_run_all_routes():
    rng = np.random.default_rng(7)
    seen = set()
    for k in range(120):
        net, kind = random_network(rng)
        seed = k % 3
        status, statuses = run_all_routes(net, seed)
        v = decide(net, seed=seed)
        assert v.status == status, (k, kind)
        # the routes decide ran are the reference's first ones, with the
        # same statuses, and the deciding route is the first with the verdict
        assert [r.status for r in v.routes] == statuses[:len(v.routes)]
        assert v.routes[[r.status for r in v.routes].index(status)].method == v.method
        stopped = len(v.routes) < len(statuses)
        last = v.routes[-1]
        if stopped:
            assert last.method in ("cycle", "perron", "majorant")
            assert last.method in ("perron", "majorant") or v.fails
            assert not last.inconclusive
        else:
            assert last.method.startswith("falsify")
        seen.add((kind, last.method.split("-")[0], status, stopped))
    # both Perron proofs on linear sum rows, a failing cycle route, both
    # Perron proofs, both majorant proofs, and the falsifier's verdict or no
    # verdict at all
    for case in [("sum", "perron", CERTIFIED_HOLDS, True),
                 ("sum", "perron", CERTIFIED_FAILS, True),
                 ("max", "cycle", CERTIFIED_FAILS, True),
                 ("max", "perron", CERTIFIED_HOLDS, True),
                 ("mixed", "perron", CERTIFIED_HOLDS, True),
                 ("mixed", "perron", CERTIFIED_FAILS, True),
                 ("sum", "majorant", CERTIFIED_HOLDS, True),
                 ("sum", "majorant", CERTIFIED_FAILS, True),
                 ("mixed", "falsify", CERTIFIED_FAILS, False),
                 ("mixed", "falsify", INCONCLUSIVE, False)]:
        assert case in seen, case


def test_decide_failure_outranks_earlier_hold():
    # each gain is 1.45*s^30/(1+s^30) on a window above one: the cycle
    # composition stays below the identity on the cycle grid, whose points
    # 1 and 1.468 straddle the window, while the falsifier's radius 1.425
    # lands in it and finds Gamma(s) >= s
    g = Max((Linear(0.5), Compose(Saturating(1.45), Power(1.0, 30.0))))
    net = GainNetwork(n=2, gamma=((Zero(), g), (g, Zero())),
                      gamma_u=(Zero(), Zero()), mu=(MaxAgg(), MaxAgg()))
    v = decide(net)
    assert [(r.method, r.status) for r in v.routes] == [
        ("cycle", CERTIFIED_HOLDS), ("falsify", CERTIFIED_FAILS)]
    assert v.fails and v.method == "falsify"
    assert np.all(eval_operator(net, v.witness) >= v.witness)


def test_overflowed_candidate_is_no_witness():
    # a conjugate iterate w^p past the float range reads inf >= inf
    net = linear_net([[0, 0.5], [0.5, 0]], MaxAgg)
    assert not sgc._is_witness(net, np.array([np.inf, np.inf]))
    assert sgc._is_witness(linear_net([[0, 2.0], [2.0, 0]]), np.array([1.0, 1.0]))


def test_decide_linear_witness_is_rechecked():
    net = linear_net([[0, 1.5], [0.9, 0]])
    v = decide(net)
    assert v.fails and v.method == "perron" and len(v.routes) == 1
    assert np.all(eval_operator(net, v.witness) >= v.witness)


# an 8-node linear sum chain, gain g*s at each (i, j, g): np.linalg.eig reads
# its radius as 0.999871, 50 digits read it as 1.0000049
EIG_BELOW_ONE = [
    (0, 1, 0.24994697088944362), (0, 7, 3.6726406535710465e-40),
    (1, 0, 3.999151534231098), (2, 0, 8386828.6383158155),
    (2, 3, 32761.049368421154), (3, 1, 67094629.106526524),
    (3, 2, 3.0511104844902786e-05), (4, 2, 67094629.106526524),
    (4, 5, 0.24994697088944362), (5, 3, 8386828.6383158155),
    (5, 4, 3.999151534231098), (6, 4, 1048353.5797894769),
    (6, 7, 7.998303068462196), (7, 5, 8190.262342105289),
    (7, 6, 0.12497348544472181),
]


def _radius_50_digits(G):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return max(abs(e) for e in mpmath.eig(mpmath.matrix(G.tolist()),
                                              left=False, right=False))


def test_eigenvalue_below_one_proves_no_hold(tmp_path, capsys):
    from smallgain.cli import main

    G = np.zeros((8, 8))
    for i, j, g in EIG_BELOW_ONE:
        G[i, j] = g
    net = linear_net(G)
    assert not decide(net).holds
    v = check_linear_spectral(net)
    assert v.rho < 1.0 - 1e-9 and not v.holds
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({
        "n": 8, "gains": [[f"{g!r}*s" if g else "0" for g in row] for row in G.tolist()],
        "external_gains": ["0"] * 8, "mu": ["sum"] * 8}))
    assert main(["check", str(cfg)]) == 1
    assert "CertifiedHolds" not in capsys.readouterr().out
    # why no route may hold: the radius is above one
    assert _radius_50_digits(G) > 1


def _exact_collatz_wielandt(G, w):
    """``max_i (G w)_i / w_i`` in rationals, on the floats ``G`` and ``w``."""
    w = [Fraction(x) for x in w]
    return max(sum(Fraction(g) * x for g, x in zip(row, w) if g) / wi
               for row, wi in zip(G.tolist(), w))


# ill_conditioned_chain draws from default_rng(3) whose radius, read to 50
# digits, is above one; numpy's eig reads each of them as 1 - 1e-6
CHAIN_DRAWS = 100
CHAINS_ABOVE_ONE = (22, 54, 92, 98, 123, 277, 278, 287, 295)


def test_every_hold_on_ill_conditioned_chains_is_an_exact_bound():
    # every hold re-checks as G w <= c w, c < 1, in rationals at the w of
    # nonlinear_perron: the first CHAIN_DRAWS draws and those above one
    rng = np.random.default_rng(3)
    draws = [ill_conditioned_chain(rng) for _ in range(CHAINS_ABOVE_ONE[-1] + 1)]
    held = 0
    for k in sorted(set(range(CHAIN_DRAWS)) | set(CHAINS_ABOVE_ONE)):
        net = linear_net(draws[k])
        v = decide(net)
        assert not (k in CHAINS_ABOVE_ONE and v.holds), k
        if v.holds:
            _c, _p, w, _image = nonlinear_perron(net)
            assert np.all(w > 0)
            exact = _exact_collatz_wielandt(draws[k], w)
            assert exact < 1 and float(exact) == pytest.approx(v.rho, rel=1e-12), k
            held += 1
    assert held > 0


@pytest.mark.parametrize("mu", ["sum", "max"])
def test_majorant_verdict_matches_slope_matrix_radius(mu):
    # the verdict is rho(W) < 1 for the slope matrix W at zero (max cycle
    # mean on max rows), read by numpy; c bounds rho from above, and a
    # failure's witness re-checks against the operator
    rng = np.random.default_rng(31 if mu == "sum" else 32)
    seen = set()
    for _ in range(40):
        net, W = random_concave_net(rng, mu)
        rho = max_cycle_mean(W) if mu == "max" else float(np.max(np.abs(np.linalg.eigvals(W))))
        v = check_majorant(net)
        assert v.method == "majorant" and v.holds == (rho < 1.0) and v.fails == (rho > 1.0)
        assert v.rho >= rho * (1.0 - 1e-9)
        if v.fails:
            assert sgc._is_witness(net, v.witness)
        d = decide(net)
        assert d.status == v.status
        if mu == "sum":
            # no spectral, cycle or Perron route applies: the majorant decides
            assert [r.method for r in d.routes] == ["majorant"]
        else:
            # a failing cycle stops before it; a sampled cycle hold is proved by it
            assert d.routes[-1].method == ("cycle" if d.fails else "majorant")
        seen.add(v.status)
    assert seen == {CERTIFIED_HOLDS, CERTIFIED_FAILS}


def test_majorant_at_radius_one_leaves_the_verdict_to_the_falsifier():
    # bounded_pair: s/(1+s) both ways holds, but its slope matrix has radius
    # one, so the majorant proves nothing and no t v is a witness
    g = Saturating(1.0)
    net = GainNetwork(n=2, gamma=((Zero(), g), (g, Zero())), gamma_u=(Zero(), Zero()),
                      mu=(SumAgg(), SumAgg()))
    v = check_majorant(net)
    assert v.inconclusive and v.rho == pytest.approx(1.0)
    assert [r.method for r in decide(net).routes] == ["majorant", "falsify"]
    with pytest.raises(CompatibilityError,
                       match="an outer-sum wrapper or a gain has no slope at zero"):
        check_majorant(GainNetwork(n=2, gamma=((Zero(), Power(1.0, 2.0)), (g, Zero())),
                                   gamma_u=(Zero(), Zero()), mu=(SumAgg(), SumAgg())))


def test_majorant_witness_skips_rows_it_does_not_expand():
    # a source row (node 1) and max rows: the stopped fixed-point iterate is
    # one there, and the witness direction drops it
    net = GainNetwork(
        n=3,
        gamma=((Zero(), Zero(), Zero()),
               (Atan(0.06), Zero(), Linear(4.0)),
               (Linear(2.76), Saturating(2.0), Zero())),
        gamma_u=(Zero(),) * 3, mu=(SumAgg(), MaxAgg(), MaxAgg()))
    v = check_majorant(net)
    assert v.fails and v.witness[0] == 0.0 and sgc._is_witness(net, v.witness)


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(sgc, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sgc, name, counting)
    return calls


def test_check_stops_at_linear_perron_proof(tmp_path, monkeypatch, capsys):
    from smallgain.cli import main

    calls = _count_calls(monkeypatch, "nonlinear_perron", "falsify_sgc")
    for slope, verdict, code in ((0.4, CERTIFIED_HOLDS, 0), (1.5, CERTIFIED_FAILS, 1)):
        cfg = tmp_path / f"sum{slope}.json"
        cfg.write_text(f'''{{"n": 2, "gains": [["0", "{slope}*s"], ["{slope}*s", "0"]],
            "external_gains": ["0", "0"], "mu": ["sum", "sum"]}}''')
        assert main(["check", str(cfg)]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"Perron bound: {slope:.6g} ({verdict})")
        assert lines[1:] == [f"verdict: {verdict}"]
    assert calls == {"nonlinear_perron": 2, "falsify_sgc": 0}
    assert lines[0] == "Perron bound: 1.5 (CertifiedFails), witness (1, 1)"


def test_check_cross_checks_sampled_cycle_hold(tmp_path, monkeypatch, capsys):
    from smallgain.cli import main

    calls = _count_calls(monkeypatch, "falsify_sgc")
    # the sigmoid has no slope at zero, so only the falsifier runs after
    # the cycle route
    cfg = tmp_path / "sat.json"
    cfg.write_text('''{"n": 2, "gains": [["0", "(0.5*s/(1+s))o(1*s^2)"],
        ["0.9*s/(1+s)", "0"]], "external_gains": ["0", "0"], "mu": ["max", "max"]}''')
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == {"falsify_sgc": 1}
    assert out[0].startswith("cycle condition: holds")
    assert out[1:] == ["falsification: no witness found", "verdict: CertifiedHolds"]
    # saturating gains: the slope majorant's max-times cycle mean
    # sqrt(0.5 * 0.9) proves the hold, and the falsifier does not run
    cfg.write_text('''{"n": 2, "gains": [["0", "0.5*s/(1+s)"], ["0.9*s/(1+s)", "0"]],
        "external_gains": ["0", "0"], "mu": ["max", "max"]}''')
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == {"falsify_sgc": 1}
    assert out[0].startswith("cycle condition: holds")
    assert out[1].startswith("slope majorant: 0.") and out[1].endswith("(CertifiedHolds)")
    assert out[2:] == ["verdict: CertifiedHolds"]


def test_check_stops_at_perron_proof(tmp_path, monkeypatch, capsys):
    from smallgain.cli import main

    calls = _count_calls(monkeypatch, "nonlinear_perron", "falsify_sgc")
    # a max ring of power gains, homogeneous with p = (1, 2, 1)
    cfg = tmp_path / "ring.json"
    cfg.write_text('''{"n": 3, "gains": [["0", "0", "0.6*s"],
        ["0.5*s^2", "0", "0"], ["0", "0.7*sqrt(s)", "0"]],
        "external_gains": ["0", "0", "0"], "mu": ["max", "max", "max"]}''')
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == {"nonlinear_perron": 1, "falsify_sgc": 0}
    assert out[0].startswith("Perron bound: 0.") and out[0].endswith("(CertifiedHolds)")
    assert out[1:] == ["verdict: CertifiedHolds"]
    # sum and max rows: no spectral or cycle route, and T(1) >= 1 is a witness
    cfg.write_text('''{"n": 2, "gains": [["0", "1.5*s"], ["1.5*s", "0"]],
        "external_gains": ["0", "0"], "mu": ["sum", "max"]}''')
    assert main(["check", str(cfg)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "Perron bound: 1.5 (CertifiedFails), witness (1, 1)", "verdict: CertifiedFails"]
    assert calls == {"nonlinear_perron": 2, "falsify_sgc": 0}


def test_check_on_holding_power_max_networks_samples_no_cycle(tmp_path, monkeypatch,
                                                             capsys):
    from smallgain.cli import main

    calls = _count_calls(monkeypatch, "check_cycle_condition", "falsify_sgc")
    cfg = tmp_path / "ring.json"
    # linear gains on the max_pair demo's rows, and a ring of power gains,
    # homogeneous with p = (1, 2, 1)
    for gains in ([["0", "0.5*s"], ["0.5*s", "0"]],
                  [["0", "0", "0.6*s"], ["0.5*s^2", "0", "0"], ["0", "0.7*sqrt(s)", "0"]]):
        n = len(gains)
        cfg.write_text(json.dumps({"n": n, "gains": gains, "external_gains": ["0"] * n,
                                   "mu": ["max"] * n}))
        assert main(["check", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("Perron bound: 0.") and out[0].endswith("(CertifiedHolds)")
        assert out[1:] == ["verdict: CertifiedHolds"]
    assert calls == {"check_cycle_condition": 0, "falsify_sgc": 0}


def max_ring(n, gain):
    gamma = [[Zero()] * n for _ in range(n)]
    for i in range(n):
        gamma[i][(i + 1) % n] = gain
    return GainNetwork(n=n, gamma=tuple(map(tuple, gamma)), gamma_u=(Zero(),) * n,
                       mu=(MaxAgg(),) * n)


def power_max_network(n, seed):
    """Max rows of three gains ``c s^(p_i/p_j)``, ``p`` in ``{1/2, 1, 2}``."""
    rng = np.random.default_rng(seed)
    p = rng.choice([0.5, 1.0, 2.0], n)
    gamma = [[Zero()] * n for _ in range(n)]
    for i in range(n):
        for j in rng.choice(np.delete(np.arange(n), i), 3, replace=False):
            gamma[i][j] = Power(float(rng.uniform(0.1, 0.9)), float(p[i] / p[j]))
    return GainNetwork(n=n, gamma=tuple(map(tuple, gamma)), gamma_u=(Zero(),) * n,
                       mu=(MaxAgg(),) * n)


def test_check_decides_max_networks_above_the_cycle_cap(tmp_path, capsys):
    from smallgain.cli import main
    from smallgain.parser import format_gain

    bent = Sum((Linear(0.5), Saturating(0.1)))
    # the cycles are not listed: above the listing's cap the closed walks
    # still read the cycle condition, here 1 - 0.6^13 at the smallest radius
    cap = f"cycle enumeration is capped at {sgc.CYCLE_ENUM_LIMIT} nodes"
    with pytest.raises(TooLarge, match=f"{cap}, got 13"):
        subordinated_cycles(adjacency(max_ring(13, bent)))
    cases = [
        (max_ring(13, Linear(0.5)), ["Perron bound: 0.5 (CertifiedHolds)"]),
        (max_ring(13, bent), ["cycle condition: holds (min margin 0.998694)",
                              "slope majorant: 0.6 (CertifiedHolds)"]),
        (power_max_network(40, 40), None),
    ]
    cfg = tmp_path / "big.json"
    for net, lines in cases:
        cfg.write_text(json.dumps({
            "n": net.n, "gains": [[format_gain(g) for g in row] for row in net.gamma],
            "external_gains": ["0"] * net.n, "mu": ["max"] * net.n}))
        assert main(["check", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "verdict: CertifiedHolds"
        if lines is None:
            assert len(out) == 2 and out[0].startswith("Perron bound: 0.")
        else:
            assert out[:-1] == lines
    # the sampled cycle hold is proved by the majorant that runs after it
    v = decide(max_ring(13, bent))
    assert [(r.method, r.status) for r in v.routes] == [
        ("cycle", CERTIFIED_HOLDS), ("majorant", CERTIFIED_HOLDS)]


def test_perron_witness_drops_a_source_row():
    # draw 89 of random_network's seed 7: sum and max rows, linear gains and
    # a zero third row, so the stopped w is one there while T(w) is zero
    rng = np.random.default_rng(7)
    for _ in range(90):
        net, kind = random_network(rng)
    assert kind == "mixed" and not net.active_sets[2]
    c, p, w, _image = nonlinear_perron(net)
    assert c == pytest.approx(2.21157, abs=1e-5) and not sgc._is_witness(net, w**p)
    v = decide(net, seed=89 % 3)
    assert v.fails and [r.method for r in v.routes] == ["perron"]
    assert v.witness[2] == 0.0 and v.witness.max() == 1.0
    assert sgc._is_witness(net, v.witness)
    # construct_path's gate raises the same verdict
    with pytest.raises(SgcFails, match="Perron bound: 2.21157") as exc:
        construct_path(net)
    np.testing.assert_array_equal(exc.value.verdict.witness, v.witness)


def test_check_stops_at_majorant_proof(tmp_path, monkeypatch, capsys):
    from smallgain.cli import main

    calls = _count_calls(monkeypatch, "falsify_sgc")
    cfg = tmp_path / "concave.json"
    for a, verdict, code in ((0.4, CERTIFIED_HOLDS, 0), (1.5, CERTIFIED_FAILS, 1)):
        cfg.write_text(f'''{{"n": 2, "gains": [["0", "{a}*s/(1+s)"], ["{a}*atan(s)", "0"]],
            "external_gains": ["0", "0"], "mu": ["sum", "sum"]}}''')
        assert main(["check", str(cfg)]) == code
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"slope majorant: {a:.6g} ({verdict})")
        assert out[1:] == [f"verdict: {verdict}"]
    # t (1, 1) along the Perron vector of the slope matrix, first at t = 0.1:
    # at t = 1 the saturating gain reads 0.75 < 1
    assert out[0] == "slope majorant: 1.5 (CertifiedFails), witness (0.1, 0.1)"
    assert calls == {"falsify_sgc": 0}


def per_radius_sweep(net, seed):
    """Reference: the falsifier's radius sweep, one operator call per radius."""
    per_node, fixed = sgc.FALSIFY_DIRECTIONS
    dirs = _sphere_directions(net.n, per_node * net.n + fixed,
                              np.random.default_rng(seed))
    best = np.inf
    for r in np.geomspace(*sgc.FALSIFY_RANGE, sgc.FALSIFY_RADII):
        batch = r * dirs
        deficit = np.max(batch - eval_operator(net, batch), axis=1)
        hit = np.flatnonzero((deficit <= 0.0) & np.any(batch > 0, axis=1))
        if hit.size:
            return batch[hit[0]], float(r), None
        best = min(best, float(deficit.min()))
    return None, None, best


def test_chunked_sweep_matches_per_radius_loop(monkeypatch):
    rng = np.random.default_rng(11)
    found = holding = 0
    for k in range(60):
        net = random_network(rng)[0] if k % 2 else random_linear_max_net(rng)
        # 40 radii: five full chunks; 13: a short last chunk
        monkeypatch.setattr(sgc, "FALSIFY_RADII", (40, 13)[k % 2])
        w, r, best = per_radius_sweep(net, k)
        v = falsify_sgc(net, k)
        if w is not None:
            assert v.method == "falsify"
            assert v.witness.tobytes() == w.tobytes()
            assert v.margins["radius"] == r
            found += 1
        elif v.inconclusive:
            assert v.margins["best_deficit"] == best
            holding += 1
        else:
            assert v.method in ("falsify-walk", "falsify-perron")
    assert found >= 10 and holding >= 10


def test_sweep_one_operator_call_per_chunk(monkeypatch):
    net = linear_net([[0, 0.5], [0.5, 0]], MaxAgg)
    rows = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: rows.append(len(s)) or real_op(net, s))
    assert falsify_sgc(net).inconclusive
    sweep = FALSIFY_CHUNK * (2 * net.n + 200)
    assert rows.count(sweep) == 40 // FALSIFY_CHUNK
    assert len(rows) == 40 // FALSIFY_CHUNK + net.n  # plus the n walk steps


def test_directions_cached_read_only():
    sgc._directions.cache_clear()
    falsify_sgc(linear_net([[0, 0.5], [0.5, 0]], MaxAgg), seed=3)
    assert sgc._directions.cache_info().currsize == 1  # filled on first use
    dirs = sgc._directions(2, 204, 3)
    assert sgc._directions.cache_info().hits == 1
    assert not dirs.flags.writeable
    with pytest.raises(ValueError):
        dirs[0, 0] = 0.5
    fresh = _sphere_directions(2, 204, np.random.default_rng(3))
    assert dirs.tobytes() == fresh.tobytes()
    keys = [(2, 204, 3), (3, 204, 3), (2, 205, 3), (2, 204, 4)]
    arrays = [sgc._directions(*key) for key in keys]
    for k, a in enumerate(arrays):
        for b in arrays[k + 1:]:
            assert a.shape != b.shape or a.tobytes() != b.tobytes()
