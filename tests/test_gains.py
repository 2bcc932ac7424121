"""Unit tests for the gain calculus and network operators."""

import math

import numpy as np
import pytest

from smallgain.errors import CompatibilityError, OutOfRange
from smallgain.gains import (
    Atan,
    BlockMaxSum,
    Compose,
    GainClass,
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

from gen import random_tree


def test_eval_basic_shapes():
    assert Linear(0.5)(2.0) == 1.0
    assert Power(1, 2)(3.0) == 9.0
    assert Power(2, 0.5)(4.0) == 4.0
    assert Saturating(1)(1.0) == 0.5
    assert Atan(2)(1.0) == pytest.approx(math.pi / 2)
    assert Sum((Linear(1), Linear(2)))(3.0) == 9.0
    assert Max((Linear(1), Saturating(5)))(0.1) == pytest.approx(0.5 / 1.1)
    assert Compose(Power(1, 2), Linear(2))(3.0) == 36.0
    assert PlusId(Linear(1))(2.0) == 4.0
    assert Zero()(7.0) == 0.0


def test_eval_vectorized():
    g = Sum((Power(1, 2), Saturating(1)))
    s = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(g(s), [0.0, 1.5, 4.0 + 2.0 / 3.0])


def test_eval_rejects_negative():
    with pytest.raises(ValueError):
        Linear(1)(-1.0)


def test_constructor_guards():
    with pytest.raises(ValueError):
        Linear(0.0)
    with pytest.raises(ValueError):
        Power(1.0, 0.0)
    with pytest.raises(ValueError):
        Saturating(-2.0)
    with pytest.raises(ValueError):
        Sum((Linear(1),))


def test_classification_table():
    assert Zero().classify() is GainClass.ZERO
    assert Linear(1).classify() is GainClass.K_INFINITY
    assert Power(2, 0.5).classify() is GainClass.K_INFINITY
    assert Saturating(3).classify() is GainClass.K_BOUNDED
    assert Atan(1).classify() is GainClass.K_BOUNDED
    assert Sum((Saturating(1), Atan(1))).classify() is GainClass.K_BOUNDED
    assert Sum((Saturating(1), Linear(1))).classify() is GainClass.K_INFINITY
    assert Sum((Zero(), Zero())).classify() is GainClass.ZERO
    assert Max((Zero(), Saturating(1))).classify() is GainClass.K_BOUNDED
    assert Compose(Linear(1), Saturating(1)).classify() is GainClass.K_BOUNDED
    assert Compose(Saturating(1), Linear(1)).classify() is GainClass.K_BOUNDED
    assert Compose(Power(1, 2), Linear(3)).classify() is GainClass.K_INFINITY
    assert Compose(Linear(1), Zero()).classify() is GainClass.ZERO
    assert PlusId(Zero()).classify() is GainClass.K_INFINITY
    assert PlusId(Saturating(1)).classify() is GainClass.K_INFINITY


def classify_by_structure(g):
    """The per-class rule, written out for each gain class: a reference for
    the class that :meth:`GainExpr.classify` reads from the supremum."""
    if isinstance(g, Zero):
        return GainClass.ZERO
    if isinstance(g, (Linear, Power, PlusId)):
        return GainClass.K_INFINITY
    if isinstance(g, (Saturating, Atan)):
        return GainClass.K_BOUNDED
    if isinstance(g, Compose):
        classes = [classify_by_structure(g.outer), classify_by_structure(g.inner)]
        if GainClass.ZERO in classes:
            return GainClass.ZERO
        if classes == [GainClass.K_INFINITY] * 2:
            return GainClass.K_INFINITY
        return GainClass.K_BOUNDED
    classes = [classify_by_structure(c) for c in g.children]
    if all(cl is GainClass.ZERO for cl in classes):
        return GainClass.ZERO
    if GainClass.K_INFINITY in classes:
        return GainClass.K_INFINITY
    return GainClass.K_BOUNDED


def test_class_read_from_sup_matches_the_structural_rule():
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(3000):
        g = random_tree(rng)
        assert g.classify() is classify_by_structure(g), g
        assert g.is_zero == (classify_by_structure(g) is GainClass.ZERO)
        seen.add((type(g), g.classify()))
    # every class arises at the root, from leaves and from each tree node
    assert {cl for _t, cl in seen} == set(GainClass)
    assert {t for t, _cl in seen} >= {Zero, Sum, Max, Compose, PlusId}


def test_structural_sup():
    assert Saturating(1).sup() == 1.0
    assert Atan(1).sup() == pytest.approx(math.pi / 2)
    assert Sum((Saturating(1), Saturating(2))).sup() == 3.0
    assert Max((Saturating(1), Atan(1))).sup() == pytest.approx(math.pi / 2)
    # saturating composed with itself: s/(1+2s) has sup 1/2
    assert Compose(Saturating(1), Saturating(1)).sup() == pytest.approx(0.5)
    assert Linear(1).sup() == math.inf


def test_inverse_exact_points():
    assert Linear(2).inverse(1.0) == pytest.approx(0.5, abs=1e-12)
    assert Power(1, 2).inverse(9.0) == pytest.approx(3.0, rel=1e-12)
    assert Saturating(1).inverse(0.5) == pytest.approx(1.0, rel=1e-7)
    assert Linear(3).inverse(0.0) == 0.0


def test_inverse_out_of_range():
    with pytest.raises(OutOfRange) as exc:
        Saturating(1).inverse(1.5)
    assert exc.value.sup == 1.0
    with pytest.raises(OutOfRange):
        Saturating(1).inverse(1.0)  # the sup itself is unreachable
    with pytest.raises(OutOfRange):
        Zero().inverse(0.5)


def test_inverse_near_sup_roundtrip():
    g = Saturating(1)
    y = 1.0 - 1e-6
    s = g.inverse(y)
    assert abs(g(s) - y) <= 1e-9 * max(1.0, y)
    assert s == pytest.approx(1e6, rel=1e-3)


def test_inverse_roundtrip_fuzz():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        g = random_tree(rng, allow_zero=False)
        if g.classify() is GainClass.ZERO:
            continue
        sup = g.sup()
        hi = 1e3 if sup == math.inf else 0.95 * sup
        for y in [0.0, hi * 1e-6, hi * 0.37, hi]:
            s = g.inverse(y)
            assert abs(g(s) - y) <= 1e-9 * max(1.0, y)
            checked += 1
    assert checked > 1000


def test_inverse_vectorized():
    g = Power(2, 2)
    y = np.array([0.0, 2.0, 8.0])
    s = g.inverse(y)
    assert np.all(np.abs(g(s) - y) <= 1e-9 * np.maximum(1.0, y))
    assert s[0] == 0.0


def test_monotonicity_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = random_tree(rng)
        s = np.sort(rng.uniform(0.0, 50.0, size=8))
        v = g(s)
        assert np.all(np.diff(v) >= -1e-12)
        if g.classify() is not GainClass.ZERO:
            s2 = np.array([0.5, 1.0, 4.0, 9.0])
            v2 = g(s2)
            assert np.all(np.diff(v2) > 0)


def test_power_law_table():
    half = Power(2.0, 0.5)
    cases = [
        (Linear(0.3), (0.3, 1.0)),
        (Power(0.4, 2.5), (0.4, 2.5)),
        (Sum((Linear(0.2), Linear(0.3))), (0.5, 1.0)),
        (Max((half, Power(3.0, 0.5))), (3.0, 0.5)),
        # 0.5 (2 s^0.5)^4 = 8 s^2
        (Compose(Power(0.5, 4.0), half), (8.0, 2.0)),
        (PlusId(Linear(0.25)), (1.25, 1.0)),
        (Compose(Power(1.0, 2.0), Power(1.0, 0.5)), (1.0, 1.0)),
    ]
    for g, want in cases:
        assert g.power_law() == pytest.approx(want, rel=1e-15), g
    for g in [Zero(), Saturating(1.0), Atan(1.0), Sum((Linear(1.0), half)),
              Max((Linear(1.0), Saturating(2.0))), PlusId(half),
              Compose(Saturating(1.0), Linear(2.0))]:
        assert g.power_law() is None, g


def test_power_law_reads_the_evaluation():
    rng = np.random.default_rng(12)
    s = np.geomspace(1e-3, 1e3, 13)
    found = 0
    for _ in range(1000):
        g = random_tree(rng, allow_zero=False)
        law = g.power_law()
        if law is None:
            continue
        found += 1
        c, q = law
        np.testing.assert_allclose(g(s), c * s**q, rtol=1e-10)
    assert found > 100


def test_slope_at_zero_table():
    cases = [
        (Zero(), 0.0),
        (Linear(0.3), 0.3),
        (Power(0.4, 1.0), 0.4),
        (Saturating(2.0), 2.0),
        (Atan(0.5), 0.5),
        (Sum((Linear(0.2), Saturating(0.3))), 0.5),
        (Max((Linear(0.2), Atan(0.7))), 0.7),
        (Compose(Saturating(0.5), Linear(2.0)), 1.0),
        (PlusId(Saturating(0.25)), 1.25),
        (Compose(Zero(), Linear(3.0)), 0.0),
    ]
    for g, want in cases:
        assert g.slope_at_zero() == pytest.approx(want, rel=1e-15), g
    for g in [Power(1.0, 2.0), Power(2.0, 0.5), Sum((Linear(1.0), Power(0.1, 2.0))),
              Compose(Saturating(1.0), Power(1.0, 2.0)), PlusId(Power(1.0, 0.5)),
              Compose(Power(1.0, 2.0), Power(1.0, 0.5))]:
        assert g.slope_at_zero() is None, g


def _leaves(g):
    if isinstance(g, (Sum, Max)):
        return [leaf for child in g.children for leaf in _leaves(child)]
    if isinstance(g, Compose):
        return _leaves(g.outer) + _leaves(g.inner)
    if isinstance(g, PlusId):
        return _leaves(g.inner)
    return [g]


def test_slope_at_zero_bounds_and_linearizes_the_gain():
    # g(s) <= c s on the whole half line and g(s) / s -> c at zero; a power
    # leaf of exponent other than one anywhere in the tree gives no slope
    rng = np.random.default_rng(21)
    s = np.geomspace(1e-8, 1e8, 161)
    found = 0
    for _ in range(1500):
        g = random_tree(rng)
        c = g.slope_at_zero()
        if any(isinstance(leaf, Power) and leaf.exponent != 1.0 for leaf in _leaves(g)):
            assert c is None, g
            continue
        found += 1
        assert np.all(g(s) <= c * s * (1.0 + 1e-12)), g
        assert g(1e-9) / 1e-9 == pytest.approx(c, rel=1e-6, abs=1e-300), g
    assert found > 300


def test_majorant_network():
    sat, lin = Saturating(0.5), Linear(0.4)
    for mu in (SumAgg(), MaxAgg()):
        net = two_node_net(Compose(sat, PlusId(lin)), Max((lin, Atan(0.3))), mu=(mu, mu))
        L = net.majorant
        assert L.mu == net.mu and L.active_sets == net.active_sets
        np.testing.assert_allclose([[g.slope_at_zero() for g in row] for row in L.gamma],
                                   [[0.0, 0.7], [0.4, 0.0]], rtol=1e-15)
        assert all(isinstance(g, Linear) for row in L.gamma for g in row if not g.is_zero)
        assert not any(L.ext_active)
        states = np.random.default_rng(4).uniform(0.0, 50.0, (200, 2))
        assert np.all(eval_operator(net, states) <= eval_operator(L, states))
    assert two_node_net(lin, Power(1.0, 2.0)).majorant is None
    # an outer sum scales its row by the wrapper's slope, a block-max-sum
    # row is read as a sum row; a wrapper without a slope has no majorant
    for mu0, k in ((OuterSum(Linear(3.0)), 3.0), (OuterSum(Linear(1.0), False), 1.0),
                   (BlockMaxSum(((1,),)), 1.0)):
        net = two_node_net(lin, sat, mu=(mu0, SumAgg()))
        L = net.majorant
        assert L.mu == (SumAgg(), SumAgg()) and not any(L.ext_active)
        np.testing.assert_allclose([[g.slope_at_zero() for g in row] for row in L.gamma],
                                   [[0.0, k * 0.4], [0.5, 0.0]], rtol=1e-15)
        states = np.random.default_rng(5).uniform(0.0, 50.0, (200, 2))
        assert np.all(eval_operator(net, states) <= eval_operator(L, states))
    squared = (OuterSum(Power(1.0, 2.0)), SumAgg())
    assert two_node_net(lin, sat, mu=squared).majorant is None
    assert two_node_net(Power(1.0, 2.0), sat,
                        mu=(OuterSum(Linear(1.0)), SumAgg())).majorant is None


def sloped_gain(rng, leaves=4):
    """A gain with a slope at zero: a ``Linear``, ``Saturating`` or ``Atan``
    leaf, or a sum or composition of two such gains, with at most
    ``leaves`` leaves."""
    if leaves < 2 or rng.random() < 0.4:
        leaf = (Linear, Saturating, Atan)[rng.integers(3)]
        return leaf(rng.uniform(0.01, 10.0))
    left = int(rng.integers(1, leaves))
    a, b = sloped_gain(rng, left), sloped_gain(rng, leaves - left)
    return Sum((a, b)) if rng.random() < 0.5 else Compose(a, b)


def outer_or_block_row(rng, others):
    """An outer sum over an unbounded wrapper with a slope at zero (``k s``,
    ``k s + c atan(s)`` or ``s + c s / (1 + s)``), or a block-max-sum row
    over up to three blocks of ``others``."""
    if rng.random() < 0.5:
        k, c = rng.uniform(0.01, 10.0, 2)
        wrapper = (Linear(k), Sum((Linear(k), Atan(c))), PlusId(Saturating(c)))[rng.integers(3)]
        return OuterSum(wrapper, bool(rng.integers(2)))
    labels = rng.integers(0, 3, len(others))
    return BlockMaxSum(tuple(tuple(j for j, b in zip(others, labels) if b == block)
                             for block in sorted(set(labels))))


def test_majorant_bounds_outer_and_block_rows():
    # L >= Gamma_mu on the orthant, up to the rounding of k (a + b) against
    # k a + k b, on 100 networks of 2-4 nodes whose rows are each drawn as
    # an outer sum or a block-max-sum row, at states from 1e-8 to 1e8
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        gamma, mu = [], []
        for i in range(n):
            others = [j for j in range(n) if j != i]
            active = rng.choice(others, int(rng.integers(1, n)), replace=False)
            gamma.append(tuple(sloped_gain(rng) if j in active else Zero() for j in range(n)))
            mu.append(outer_or_block_row(rng, others))
        net = GainNetwork(n, tuple(gamma), (Zero(),) * n, tuple(mu))
        L = net.majorant
        assert L is not None and all(isinstance(m, SumAgg) for m in L.mu), net
        states = 10.0 ** rng.uniform(-8.0, 8.0, (50, n))
        assert np.all(eval_operator(net, states)
                      <= eval_operator(L, states) * (1.0 + 1e-12)), net


def two_node_net(g12, g21, mu=None):
    mu = mu or (SumAgg(), SumAgg())
    return GainNetwork(
        n=2,
        gamma=((Zero(), g12), (g21, Zero())),
        gamma_u=(Zero(), Zero()),
        mu=mu,
    )


def test_operator_outer_sum_example():
    # squared-sum rows: component i is (sum of row slot values)^2
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Linear(1)), (Linear(2), Zero())),
        gamma_u=(Zero(), Zero()),
        mu=(OuterSum(Power(1, 2)), OuterSum(Power(1, 2))),
    )
    out = eval_operator(net, np.array([1.0, 3.0]))
    np.testing.assert_allclose(out, [9.0, 4.0])


def test_operator_ext_square_includes_external():
    # row slots (1, 2) plus external 1 inside the square: (1+2+1)^2 = 16
    net = GainNetwork(
        n=3,
        gamma=(
            (Zero(), Linear(1), Linear(1)),
            (Zero(), Zero(), Linear(1)),
            (Linear(1), Zero(), Zero()),
        ),
        gamma_u=(Linear(1), Zero(), Zero()),
        mu=(OuterSum(Power(1, 2)), SumAgg(), SumAgg()),
    )
    out = eval_operator_ext(net, np.array([0.0, 1.0, 2.0]), 1.0)
    assert out[0] == pytest.approx(16.0)


def test_operator_external_added_after_wrapper():
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Linear(1)), (Linear(1), Zero())),
        gamma_u=(Linear(1), Linear(1)),
        mu=(
            OuterSum(Power(1, 2), external_in_sum=False),
            OuterSum(Power(1, 2), external_in_sum=True),
        ),
    )
    out = eval_operator_ext(net, np.array([2.0, 3.0]), 1.0)
    assert out[0] == pytest.approx(3.0 ** 2 + 1.0)
    assert out[1] == pytest.approx((2.0 + 1.0) ** 2)


def test_operator_max_and_block():
    net = GainNetwork(
        n=3,
        gamma=(
            (Zero(), Linear(1), Linear(2)),
            (Linear(3), Zero(), Linear(1)),
            (Linear(1), Linear(1), Zero()),
        ),
        gamma_u=(Zero(), Zero(), Zero()),
        mu=(MaxAgg(), BlockMaxSum(((0, 1), (2,))), SumAgg()),
    )
    out = eval_operator(net, np.array([1.0, 2.0, 3.0]))
    assert out[0] == 6.0           # max(2, 6)
    assert out[1] == 3.0 + 3.0     # max over {0,1} + max over {2}
    assert out[2] == 3.0


def test_operator_monotone_fuzz():
    rng = np.random.default_rng(3)
    net = GainNetwork(
        n=3,
        gamma=(
            (Zero(), Saturating(1), Power(1, 2)),
            (Linear(0.5), Zero(), Atan(1)),
            (Power(1, 0.5), Linear(2), Zero()),
        ),
        gamma_u=(Linear(1), Zero(), Saturating(2)),
        mu=(SumAgg(), MaxAgg(), SumAgg()),
    )
    for _ in range(100):
        s = rng.uniform(0, 10, size=3)
        t = s + rng.uniform(0, 5, size=3)
        assert np.all(eval_operator(net, s) <= eval_operator(net, t) + 1e-12)
        r, r2 = rng.uniform(0, 4, size=2)
        lo, hi = min(r, r2), max(r, r2)
        assert np.all(
            eval_operator_ext(net, s, lo) <= eval_operator_ext(net, s, hi) + 1e-12
        )


def test_network_rejects_nonzero_diagonal():
    with pytest.raises(CompatibilityError):
        GainNetwork(
            n=2,
            gamma=((Linear(1), Linear(1)), (Linear(1), Zero())),
            gamma_u=(Zero(), Zero()),
            mu=(SumAgg(), SumAgg()),
        )


def test_network_rejects_incompatible_aggregation():
    # block partition that ignores an active slot
    with pytest.raises(CompatibilityError):
        GainNetwork(
            n=3,
            gamma=(
                (Zero(), Linear(1), Linear(1)),
                (Linear(1), Zero(), Zero()),
                (Linear(1), Zero(), Zero()),
            ),
            gamma_u=(Zero(), Zero(), Zero()),
            mu=(BlockMaxSum(((1,),)), SumAgg(), SumAgg()),
        )
    # bounded wrapper is not unbounded-strictly-increasing over rays
    with pytest.raises(CompatibilityError):
        two_node_net(Linear(1), Linear(1), mu=(OuterSum(Saturating(1)), SumAgg()))


def test_strictly_less_semantics():
    assert strictly_less(1.0 - 1e-8, 1.0)
    assert not strictly_less(1.0 - 1e-10, 1.0)
    assert strictly_less(np.array([0.5, 0.9]), np.array([1.0, 1.0]))
    assert not strictly_less(np.array([0.5, 1.0]), np.array([1.0, 1.0]))


def test_zero_rows_helper():
    net = GainNetwork(
        n=2,
        gamma=((Zero(), Linear(1)), (Zero(), Zero())),
        gamma_u=(Zero(), Linear(1)),
        mu=(SumAgg(), SumAgg()),
    )
    assert zero_rows(net) == (1,)


def _dense_operator(net, s, r):
    # the all-slot formula: every slot evaluated, zero gains included, and
    # each row's slots and the rows' outputs stacked
    states = np.atleast_2d(np.asarray(s, dtype=float))
    ext = np.broadcast_to(np.atleast_1d(np.asarray(r, dtype=float)), states.shape[:-1])
    rows = []
    for i in range(net.n):
        slots = np.stack(
            [net.gamma[i][j]._eval(states[..., j]) for j in range(net.n)], axis=-1
        )
        rows.append(net.mu[i].aggregate(slots, net.gamma_u[i]._eval(ext)))
    out = np.stack(rows, axis=-1)
    return out[0] if np.ndim(s) == 1 else out


def _random_net(rng, n, mu_kind, ext0):
    mask = rng.random((n, n)) < 0.6
    np.fill_diagonal(mask, False)
    mask[0] = False  # one row with no active slot
    if n > 2:
        mask[1] = False
        mask[1, 2] = True  # one row with a single active slot
        mask[2, 0] = True  # and one with an active slot and an external gain
    gamma = tuple(
        tuple(random_tree(rng, allow_zero=False) if mask[i, j] else Zero()
              for j in range(n))
        for i in range(n)
    )
    gamma_u = [
        Zero() if rng.random() < 0.4 else random_tree(rng, allow_zero=False)
        for _ in range(n)
    ]
    gamma_u[0] = random_tree(rng, allow_zero=False) if ext0 else Zero()
    if n > 2:
        gamma_u[2] = random_tree(rng, allow_zero=False)
    if mu_kind == "sum":
        mu = (SumAgg(),) * n
    elif mu_kind == "max":
        mu = (MaxAgg(),) * n
    elif mu_kind in ("outer-in", "outer-after"):
        mu = (OuterSum(Power(1, 2), external_in_sum=mu_kind == "outer-in"),) * n
    else:
        cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False))
        mu = (BlockMaxSum(tuple(tuple(b) for b in np.split(np.arange(n), cuts))),) * n
    return GainNetwork(n=n, gamma=gamma, gamma_u=gamma_u, mu=mu)


@pytest.mark.parametrize("mu_kind", ["sum", "max", "outer-in", "outer-after", "block"])
def test_operator_matches_dense_reference(mu_kind):
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9, 12):
        for k in range(3):
            # the row with no active slot has an external gain every other net
            net = _random_net(rng, n, mu_kind, ext0=k % 2 == 1)
            assert net.active_sets[0] == ()
            assert net.ext_active[0] == (k % 2 == 1)
            if n > 2:
                assert net.active_sets[1] == (2,)
                assert 0 in net.active_sets[2] and net.ext_active[2]
            point = rng.uniform(0.0, 5.0, size=n)
            point[::3] = 0.0
            batch = rng.uniform(0.0, 5.0, size=(7, n))
            batch[rng.random(batch.shape) < 0.3] = 0.0
            batch[0] = 0.0
            cases = [
                (eval_operator(net, point), _dense_operator(net, point, 0.0)),
                (eval_operator(net, batch), _dense_operator(net, batch, 0.0)),
                (eval_operator_ext(net, point, 1.3), _dense_operator(net, point, 1.3)),
                (eval_operator_ext(net, batch, 1.3), _dense_operator(net, batch, 1.3)),
            ]
            r = rng.uniform(0.5, 3.0, size=7)
            r[1] = 0.0
            cases.append((eval_operator_ext(net, batch, r), _dense_operator(net, batch, r)))
            for fast, ref in cases:
                assert fast.shape == ref.shape
                assert fast.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mu_kind", ["sum", "max", "outer-in", "outer-after", "block"])
def test_operator_rows_match_single_point_calls(mu_kind):
    # batched path searches replay sequential ones from these rows; n = 9
    # takes numpy's pairwise sum past its 8-element unrolled block
    rng = np.random.default_rng(11)
    for n in (3, 9):
        net = _random_net(rng, n, mu_kind, ext0=False)
        batch = np.geomspace(1e-8, 1e8, 40)[:, None] * rng.uniform(0.5, 1.0, (40, n))
        rows = eval_operator(net, batch)
        for k in range(len(batch)):
            assert rows[k].tobytes() == eval_operator(net, batch[k]).tobytes()


class _CountingLinear(Linear):
    classify_calls = 0

    def classify(self):
        type(self).classify_calls += 1
        return super().classify()


def test_active_sets_computed_once():
    from smallgain.graph import adjacency

    g = _CountingLinear(1.0)
    net = GainNetwork(
        n=3,
        gamma=(
            (Zero(), g, Zero()),
            (Zero(), Zero(), Zero()),
            (Sum((g, Zero())), g, Zero()),
        ),
        gamma_u=(Zero(), Linear(1), Zero()),
        mu=(SumAgg(),) * 3,
    )
    built = _CountingLinear.classify_calls
    assert net.active_sets == ((1,), (), (0, 1))
    assert net.active_sets[2] == (0, 1)
    assert net.ext_active == (False, True, False)
    assert zero_rows(net) == (1,)
    np.testing.assert_array_equal(
        adjacency(net), [[False, True, False], [False, False, False], [True, True, False]]
    )
    eval_operator(net, np.ones(3))
    eval_operator_ext(net, np.ones((4, 3)), 2.0)
    # the live slots were classified while the network was built, never again
    assert _CountingLinear.classify_calls == built


# stagewise preimage of the steep composition misses on some entries only
STEEP_COMPOSE = Compose(Power(1.0, 100.0), Sum((Linear(1.0), Power(0.5, 2.0))))
INVERSE_KINDS = {
    "linear": Linear(1.3),
    "power": Power(1.2, 1.5),
    "saturating": Saturating(2.0),
    "atan": Atan(1.5),
    "sum": Sum((Linear(0.7), Power(0.6, 2.0), Saturating(0.3))),
    "max": Max((Linear(1.1), Saturating(1.0))),
    "compose": Compose(Power(1.0, 0.5), Linear(1.6)),
    "compose_steep": STEEP_COMPOSE,
    "plusid": PlusId(Power(0.2, 0.5)),
}


@pytest.mark.parametrize("kind", sorted(INVERSE_KINDS))
def test_array_inverse_is_scalar_inverse_per_entry(kind):
    g = INVERSE_KINDS[kind]
    sup = g.sup()
    if math.isfinite(sup):
        top = sup * np.array([0.5, 0.9, 0.999, 1.0 - 1e-9])
    elif kind == "compose_steep":
        top = np.geomspace(1e-30, 1e30, 41)
    else:
        top = np.array([1.0, 7.0, 1e6, 1e12, 1e100, 1e150])
    y = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12, 0.0, 3e-7], top, [0.0]])
    y = y[y < sup]
    batch = g.inverse(y)
    ref = np.array([g.inverse(float(v)) for v in y])
    assert batch.tobytes() == ref.tobytes()
    assert np.all(batch[y == 0.0] == 0.0)


def test_compose_bisects_only_missed_entries(monkeypatch):
    y = np.geomspace(1e-30, 1e30, 41)
    tight = 1e-9 / 64.0
    stagewise = STEEP_COMPOSE.inner.inverse(STEEP_COMPOSE.outer.inverse(y, tight), tight)
    hit = np.abs(STEEP_COMPOSE(stagewise) - y) <= 1e-9 * y
    assert 0 < hit.sum() < len(y)
    bisected = []
    bisect = GainExpr._bisect

    def recording(self, y_arr, tol, sup):
        bisected.append((self, y_arr.size))
        return bisect(self, y_arr, tol, sup)

    monkeypatch.setattr(GainExpr, "_bisect", recording)
    root = STEEP_COMPOSE.inverse(y)
    assert (STEEP_COMPOSE, int((~hit).sum())) in bisected
    assert root[hit].tobytes() == stagewise[hit].tobytes()
    assert np.all(np.abs(STEEP_COMPOSE(root) - y) <= 1e-9 * y)
