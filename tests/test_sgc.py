"""Small gain condition checks against frozen and brute-force oracles."""

from functools import cached_property

import numpy as np
import pytest

from smallgain import sgc
from smallgain.errors import (
    NotHomogeneous,
    NotLinearizable,
    OutOfRange,
    WrongAggregation,
)
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
from smallgain.paths import construct_path
from smallgain.sgc import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    FALSIFY_CHUNK,
    INCONCLUSIVE,
    WITNESS_DELTAS,
    _cycle_witness,
    _sphere_directions,
    _tight_cycle_vectors,
    check_cycle_condition,
    check_linear_spectral,
    decide,
    falsify_sgc,
    nonlinear_perron,
    power_form,
)

from gen import random_linear_max_net, random_network


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


def test_cycle_condition_three_cycle_product():
    s = np.zeros((3, 3))
    s[0, 1] = s[1, 2] = s[2, 0] = 0.9
    v = check_cycle_condition(linear_net(s, MaxAgg))
    assert v.holds
    assert v.margins["min_margin"] == pytest.approx(1 - 0.729)


def test_cycle_condition_needs_max_rows():
    with pytest.raises(WrongAggregation):
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
    with pytest.raises(NotLinearizable):
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
    c, p, w = nonlinear_perron(linear_net([[0, 0.5], [0.5, 0]]))
    assert c == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(w, [1.0, 1.0], rtol=1e-12)
    assert p.tolist() == [1.0, 1.0]


def test_perron_asymmetric_geometric_mean():
    # one gain per row, so sum and max rows alike solve
    # w = ((1 + a) / (1 - ab), (1 + b) / (1 - ab)), c = max_i 1 - 1/w_i;
    # the linear solve (sum rows) returns w scaled to max one
    for mu_cls in (SumAgg, MaxAgg):
        for a, b in [(1.3, 0.4), (4.0, 0.2), (0.1, 0.5)]:
            c, _p, w = nonlinear_perron(linear_net([[0, a], [b, 0]], mu_cls))
            want = np.array([1.0 + a, 1.0 + b]) / (1.0 - a * b)
            scale = want.max() if mu_cls is SumAgg else 1.0
            np.testing.assert_allclose(w, want / scale, rtol=1e-9)
            assert c == pytest.approx(float(np.max(1.0 - 1.0 / want)), rel=1e-9)
            # a Collatz-Wielandt bound sits above the spectral radius
            assert np.sqrt(a * b) <= c < 1.0
        # at the critical product no bound proves the condition
        for a, b in [(2.0, 0.5), (4.0, 0.25)]:
            c, _p, _w = nonlinear_perron(linear_net([[0, a], [b, 0]], mu_cls))
            assert c >= 1.0 - 1e-9


def test_perron_power_conjugate_matches_spectral():
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Power(0.4, 0.5)), (Power(0.4, 0.5), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(OuterSum(Power(1, 2)), OuterSum(Power(1, 2))),
    )
    c, p, w = nonlinear_perron(net)
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
    with pytest.raises(NotHomogeneous):
        nonlinear_perron(net)
    # a cycle of exponents 2 and 2 has no per-node power change
    squares = GainNetwork(
        n=2,
        gamma=((Zero(), Power(0.1, 2)), (Power(0.1, 2), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(MaxAgg(), MaxAgg()),
    )
    with pytest.raises(NotHomogeneous):
        nonlinear_perron(squares)
    # a reducible network needs no irreducibility: w = (2, 1) / 2,
    # T(w) = (0.5, 0)
    c, _p, w = nonlinear_perron(linear_net([[0, 1], [0, 0]]))
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
        got = power_form(net)[0]
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
        power_form(power_network(np.random.default_rng(1), p, mask)[0])
        # the 2-cycle 0 <-> 1 then has exponent product 1.1
        net, _e = power_network(np.random.default_rng(1), p, mask, bend=(0, 1))
        with pytest.raises(NotHomogeneous, match="breaks every per-node power"):
            power_form(net)


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


def _scalar_walks(net, cycle):
    # the walk one candidate at a time, with the scalar inverse
    rows = []
    for r in np.geomspace(1e-4, 1e4, 9):
        for d in (0.0, 1e-9, 1e-6, 1e-3, 0.03):
            s = np.zeros(net.n)
            s[cycle[0]] = float(r)
            for a, b in zip(cycle, cycle[1:]):
                try:
                    v = net.gamma[a][b].inverse(float(s[a])) * (1.0 + d)
                except OutOfRange:
                    s = None
                    break
                if not np.isfinite(v) or v <= 0:
                    s = None
                    break
                s[b] = v
            if s is not None:
                rows.append(s)
    return np.array(rows).reshape(-1, net.n)


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
    g = EDGE_KINDS[kind]
    net = _ring([g] * 4)
    cycles = subordinated_cycles(adjacency(net))
    assert len(cycles) == 1
    cycle = cycles[0]
    batch = _tight_cycle_vectors(net, cycle)
    ref = _scalar_walks(net, cycle)
    assert batch.shape == ref.shape
    assert batch.tobytes() == ref.tobytes()
    if kind == "saturating":
        # the radii 10, ..., 1e4 start at or above sup = 2: all dropped
        assert len(batch) == 5 * len(WITNESS_DELTAS)
        assert np.all(batch[:, cycle[0]] < g.sup())
    # the witness is the first candidate, in (radius, inflation) order,
    # that the operator does not shrink
    valid = [s for s in ref if np.any(s > 0) and np.all(eval_operator(net, s) >= s)]
    w = _cycle_witness(net, cycle)
    assert valid, "every kind above has a failing ring"
    assert w.tobytes() == valid[0].tobytes()


def test_cycle_walk_none_when_holding():
    net = _ring([0.5] * 4)
    assert _cycle_witness(net, subordinated_cycles(adjacency(net))[0]) is None


def test_cycle_stage_one_operator_call(monkeypatch):
    # holding max network: a ring plus chords, every cycle walked, none fails
    net = _ring([0.5] * 8, chords=[(2, 0, Linear(0.5)), (5, 1, Linear(0.5)),
                                  (7, 3, Linear(0.5)), (4, 6, Linear(0.5))])
    cycles = subordinated_cycles(adjacency(net))
    assert len(cycles) > 3
    rows = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: rows.append(len(s)) or real_op(net, s))
    assert falsify_sgc(net).inconclusive
    sweeps = 40 // FALSIFY_CHUNK
    assert rows[:sweeps] == [FALSIFY_CHUNK * (2 * net.n + 200)] * sweeps
    # every walk of every cycle, verified in one call
    assert rows[sweeps:] == [sum(len(_tight_cycle_vectors(net, c)) for c in cycles)]


def per_cycle_stage(net):
    """Reference: the falsifier's cycle stage, one operator call per cycle.

    Returns the witness, its cycle and the number of walk rows before it.
    """
    before = 0
    for c in subordinated_cycles(adjacency(net)):
        cand = _tight_cycle_vectors(net, c)
        out = eval_operator(net, cand)
        hit = np.flatnonzero(np.any(cand > 0, axis=1) & np.all(out >= cand, axis=1))
        if hit.size:
            return cand[hit[0]], c, before + int(hit[0])
        before += len(cand)
    return None


# ids keep the falsifier's name, "plain", before the direction count
@pytest.mark.parametrize("directions", [1, 4, 16], ids=lambda d: f"plain-{d}")
def test_batched_cycle_stage_matches_per_cycle_loop(monkeypatch, directions):
    # few directions and radii: the sweep misses where a cycle walk hits, and
    # the cycle stage verifies 8, 32 or 128 rows per call
    calls = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: calls.append(len(s)) or real_op(net, s))
    rng = np.random.default_rng(23)
    monkeypatch.setattr(sgc, "FALSIFY_RADII", 3)
    monkeypatch.setattr(sgc, "FALSIFY_DIRECTIONS", (0, directions))
    hits = split = 0
    for k in range(120):
        net = random_network(rng)[0] if k % 2 else random_linear_max_net(rng, nmax=6)
        w, _, _ = per_radius_sweep(net, 0)
        ref = per_cycle_stage(net)
        if w is not None or ref is None:
            continue
        calls.clear()
        v = falsify_sgc(net)
        assert v.method == "falsify-cycle"
        assert v.witness.tobytes() == ref[0].tobytes()
        assert v.cycle == ref[1]
        # one sweep call, then the cycle batches up to the one with the hit
        batch_rows = FALSIFY_CHUNK * directions
        assert len(calls) == 1 + ref[2] // batch_rows + 1
        assert all(rows <= batch_rows for rows in calls[1:])
        hits += 1
        split += ref[2] >= batch_rows
    assert hits >= 10
    if directions < 16:
        assert split >= 3


def test_perron_linear_conjugate_is_one_solve(monkeypatch):
    calls = []
    real_op = sgc.eval_operator
    monkeypatch.setattr(sgc, "eval_operator",
                        lambda net, s: calls.append(np.shape(s)) or real_op(net, s))
    # a linear conjugate: one solve, then one operator call reads the bound
    c, _p, _w = nonlinear_perron(linear_net([[0, 0.5], [0.5, 0]]))
    assert c == pytest.approx(0.5) and calls == [(2,)]
    calls.clear()
    # max rows iterate w <- 1 + T(w) from w = 1 on the array form of T,
    # then one operator call reads the bound
    c, _p, w = nonlinear_perron(linear_net([[0, 0.5], [0.5, 0]], MaxAgg))
    assert c == pytest.approx(0.5) and np.allclose(w, [2.0, 2.0])
    assert calls == [(2,)]
    calls.clear()
    # a witness direction stops the iteration at once: T(1) >= 1
    c, _p, w = nonlinear_perron(linear_net([[0, 1.5], [1.5, 0]], MaxAgg))
    assert calls == [(2,)] and c == pytest.approx(1.5)
    assert w.tolist() == [1.0, 1.0]


def test_perron_badly_scaled_linear_takes_inverse_steps(monkeypatch):
    # radius 0.5, but the Neumann vector (1.3e10, 1.3) reads c = 1 - 7.5e-11:
    # a second step w <- (I - G)^-1 w reads c = 0.625, a proof
    net = linear_net([[0, 1e10], [2.5e-11, 0]])
    c, p, w = nonlinear_perron(net)
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
    c, p, w = nonlinear_perron(net)
    assert power_form(net)[1] is None
    t_w = eval_operator(net, w**p) ** (1.0 / p)
    assert c == float(np.max(t_w / w)) and c >= 1.0 - 1e-9
    v = decide(net)
    assert not v.holds
    assert [r.status for r in v.routes if r.method == "perron"] == [INCONCLUSIVE]
    assert np.all(eval_operator(net, np.array([1.0, 1.0, 1e-6])) >= [1.0, 1.0, 1e-6])


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
        if power_form(net)[1] is None:
            nets.append(net)
    return nets


def test_conjugate_form_matches_operator():
    rng = np.random.default_rng(53)
    kinds = set()
    for net in random_power_networks(52, 150) + [critical_ring()]:
        p, _G, rows, C = net.power_form
        T = sgc._conjugate_form(p, rows, C)
        kinds.update(type(mu).__name__ for mu in net.mu)
        kinds.update(type(g).__name__ for row in net.gamma for g in row)
        for t in np.exp(rng.uniform(-5.0, 5.0, (5, net.n))):
            want = sgc._conjugate(net, p, t)
            np.testing.assert_allclose(T(t), want, rtol=1e-12, atol=0.0)
    assert {"SumAgg", "MaxAgg", "OuterSum", "Power", "Sum", "Max", "Compose"} <= kinds


def operator_perron(net):
    """Reference: the fixed-point loop of :func:`nonlinear_perron` on the
    operator itself, one ``eval_operator`` call per step."""
    p, _G = power_form(net)
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
        c, p, w = nonlinear_perron(net)
        c_ref, p_ref, _w = operator_perron(net)
        assert p.tolist() == p_ref.tolist()
        assert (c < 1.0 - 1e-9) == (c_ref < 1.0 - 1e-9)
        assert c == pytest.approx(c_ref, rel=1e-9)
        proved += c < 1.0 - 1e-9
    assert 10 < proved < 60


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
    # the sampled cycle hold, then the Perron proof stops the run
    assert v.holds and [r.method for r in v.routes] == ["cycle", "perron"]
    assert len(calls) <= 2


def test_power_form_read_once_per_network(monkeypatch):
    # the spectral route, the Perron route and the ray share one reading
    reads = []
    read = GainNetwork.__dict__["power_form"].func
    counted = cached_property(lambda net: reads.append(net) or read(net))
    counted.__set_name__(GainNetwork, "power_form")
    monkeypatch.setattr(GainNetwork, "power_form", counted)
    net = GainNetwork(n=2, gamma=((Zero(), Power(0.5, 2.0)), (Power(0.5, 0.5), Zero())),
                      gamma_u=(Zero(),) * 2, mu=(SumAgg(),) * 2)
    v = decide(net)
    assert v.holds and [r.method for r in v.routes] == ["perron"]
    assert construct_path(net).route == "ray"
    assert reads == [net]
    p, G, _rows, C = net.power_form
    assert G is None and not p.flags.writeable and not C.flags.writeable


def test_compose_cycle_matches_call_chain():
    rng = np.random.default_rng(56)
    grid = np.geomspace(1e-8, 1e8, 97)
    walked = 0
    for _ in range(40):
        net = random_linear_max_net(rng)
        for cycle in subordinated_cycles(adjacency(net)):
            gains = sgc._cycle_edge_gains(net, cycle)
            want = grid
            for g in reversed(gains):
                want = g(want)
            assert sgc._compose_cycle(gains, grid).tobytes() == want.tobytes()
            walked += 1
    assert walked > 40


# ---------------------------------------------------------------------------
# decide


def run_all_routes(net, seed=0):
    """Reference rule: every applicable route runs, any failure wins.

    The Perron route holds at a bound below ``1 - 1e-9`` and fails when
    ``w^p`` is a witness; the falsifier runs whatever came before it.
    """
    routes = []
    try:
        routes.append(check_linear_spectral(net).status)
    except NotLinearizable:
        pass
    try:
        routes.append(check_cycle_condition(net).status)
    except WrongAggregation:
        pass
    try:
        c, p, w = nonlinear_perron(net)
    except NotHomogeneous:
        pass
    else:
        witness = np.all(eval_operator(net, w**p) >= w**p)
        routes.append(CERTIFIED_HOLDS if c < 1.0 - 1e-9 else
                      CERTIFIED_FAILS if witness else INCONCLUSIVE)
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
            assert last.method in ("spectral", "cycle-linear", "cycle-grid", "perron")
            assert last.method in ("spectral", "perron") or v.fails
            assert not last.inconclusive
        else:
            assert last.method.startswith("falsify")
        seen.add((kind, last.method.split("-")[0], status, stopped))
    # both spectral proofs, a failing cycle route, both Perron proofs,
    # and the falsifier's verdict or no verdict at all
    for case in [("sum", "spectral", CERTIFIED_HOLDS, True),
                 ("sum", "spectral", CERTIFIED_FAILS, True),
                 ("max", "cycle", CERTIFIED_FAILS, True),
                 ("max", "perron", CERTIFIED_HOLDS, True),
                 ("mixed", "perron", CERTIFIED_HOLDS, True),
                 ("mixed", "perron", CERTIFIED_FAILS, True),
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


def test_decide_spectral_witness_is_rechecked():
    net = linear_net([[0, 1.5], [0.9, 0]])
    v = decide(net)
    assert v.fails and v.method == "spectral" and len(v.routes) == 1
    assert np.all(eval_operator(net, v.witness) >= v.witness)


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(sgc, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sgc, name, counting)
    return calls


def test_check_stops_at_spectral_proof(tmp_path, monkeypatch, capsys):
    from smallgain.cli import main

    calls = _count_calls(monkeypatch, "nonlinear_perron", "falsify_sgc")
    for slope, verdict, code in ((0.4, CERTIFIED_HOLDS, 0), (1.5, CERTIFIED_FAILS, 1)):
        cfg = tmp_path / f"sum{slope}.json"
        cfg.write_text(f'''{{"n": 2, "gains": [["0", "{slope}*s"], ["{slope}*s", "0"]],
            "external_gains": ["0", "0"], "mu": ["sum", "sum"]}}''')
        assert main(["check", str(cfg)]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"spectral radius: {slope:.6g} ({verdict})")
        assert lines[1:] == [f"verdict: {verdict}"]
    assert calls == {"nonlinear_perron": 0, "falsify_sgc": 0}
    assert lines[0] == "spectral radius: 1.5 (CertifiedFails), witness (1, 1)"


def test_check_cross_checks_sampled_cycle_hold(tmp_path, monkeypatch, capsys):
    from smallgain.cli import main

    calls = _count_calls(monkeypatch, "falsify_sgc")
    cfg = tmp_path / "sat.json"
    cfg.write_text('''{"n": 2, "gains": [["0", "0.5*s/(1+s)"], ["0.9*s/(1+s)", "0"]],
        "external_gains": ["0", "0"], "mu": ["max", "max"]}''')
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == {"falsify_sgc": 1}
    assert out[0].startswith("cycle condition: holds")
    assert out[1:] == ["falsification: no witness found", "verdict: CertifiedHolds"]


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
    assert out[0].startswith("cycle condition: holds")
    assert out[1].startswith("Perron bound: 0.") and out[1].endswith("(CertifiedHolds)")
    assert out[2:] == ["verdict: CertifiedHolds"]
    # sum and max rows: no spectral or cycle route, and T(1) >= 1 is a witness
    cfg.write_text('''{"n": 2, "gains": [["0", "1.5*s"], ["1.5*s", "0"]],
        "external_gains": ["0", "0"], "mu": ["sum", "max"]}''')
    assert main(["check", str(cfg)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "Perron bound: 1.5 (CertifiedFails), witness (1, 1)", "verdict: CertifiedFails"]
    assert calls == {"nonlinear_perron": 2, "falsify_sgc": 0}


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
            assert v.method in ("falsify-cycle", "falsify-perron")
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
    assert len(rows) == 40 // FALSIFY_CHUNK + 1  # plus the one cycle walk


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
