"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import numpy as np

from smallgain.gains import (
    Atan,
    Compose,
    GainExpr,
    Linear,
    Max,
    PlusId,
    Power,
    Saturating,
    Sum,
    Zero,
)


def random_coeff(rng: np.random.Generator) -> float:
    # mix integer and fractional coefficients; all repr-round-trippable
    if rng.random() < 0.3:
        return float(rng.integers(1, 6))
    return float(np.round(rng.uniform(0.05, 4.0), 6))


def random_leaf(rng: np.random.Generator, allow_zero: bool = True) -> GainExpr:
    kinds = ["linear", "power", "sqrt", "saturating", "atan"]
    if allow_zero:
        kinds.append("zero")
    kind = kinds[rng.integers(0, len(kinds))]
    if kind == "zero":
        return Zero()
    c = random_coeff(rng)
    if kind == "linear":
        return Linear(c)
    if kind == "power":
        exp = float(np.round(rng.uniform(0.3, 3.0), 4))
        return Power(c, exp)
    if kind == "sqrt":
        return Power(c, 0.5)
    if kind == "saturating":
        return Saturating(c)
    return Atan(c)


def random_tree(rng: np.random.Generator, depth: int = 0,
                allow_sum: bool = True, allow_zero: bool = True) -> GainExpr:
    """Random tree in parser-normal form (no sum directly under sum)."""
    if depth >= 3 or rng.random() < 0.35:
        return random_leaf(rng, allow_zero=allow_zero)
    kind = ["sum", "max", "compose", "plusid"][rng.integers(0, 4)]
    if kind == "sum" and allow_sum:
        k = int(rng.integers(2, 4))
        children = tuple(
            random_tree(rng, depth + 1, allow_sum=False, allow_zero=allow_zero)
            for _ in range(k)
        )
        return Sum(children)
    if kind == "max":
        k = int(rng.integers(2, 4))
        children = tuple(
            random_tree(rng, depth + 1, allow_zero=allow_zero) for _ in range(k)
        )
        return Max(children)
    if kind == "compose":
        return Compose(
            random_tree(rng, depth + 1, allow_zero=allow_zero),
            random_tree(rng, depth + 1, allow_zero=allow_zero),
        )
    return PlusId(random_tree(rng, depth + 1, allow_zero=allow_zero))


def random_linear_max_net(rng: np.random.Generator, nmax: int = 4):
    """Random max-type network of linear gains, kept away from criticality.

    Every cycle's slope product lands outside [0.9, 1/0.9] so the cycle
    verdict and grid falsification are forced to agree.
    """
    from smallgain.gains import GainNetwork, MaxAgg
    from smallgain.graph import subordinated_cycles

    while True:
        n = int(rng.integers(2, nmax + 1))
        mask = rng.random((n, n)) < 0.55
        np.fill_diagonal(mask, False)
        slopes = np.exp(rng.uniform(np.log(0.2), np.log(2.4), (n, n)))
        ok = True
        for cyc in subordinated_cycles(mask):
            prod = 1.0
            for m in range(len(cyc)):
                prod *= slopes[cyc[m], cyc[(m + 1) % len(cyc)]]
            if 0.9 < prod < 1.0 / 0.9:
                ok = False
                break
        if not ok:
            continue
        gamma = tuple(
            tuple(
                Linear(float(slopes[i, j])) if mask[i, j] else Zero()
                for j in range(n)
            )
            for i in range(n)
        )
        return GainNetwork(
            n=n, gamma=gamma, gamma_u=(Zero(),) * n, mu=(MaxAgg(),) * n
        )


def random_network(rng: np.random.Generator, nmax: int = 5):
    """Random network with sum, max or mixed rows, holding or failing.

    Half the networks have linear gains scaled so the row sums sit near a
    drawn level of 0.4 (mostly holding) or 1.6 (mostly failing); the rest
    use random leaves, whose coefficients span both sides.  Returns the
    network and its row kind, ``"sum"``, ``"max"`` or ``"mixed"``.
    """
    from smallgain.gains import GainNetwork, MaxAgg, SumAgg

    n = int(rng.integers(2, nmax + 1))
    mask = rng.random((n, n)) < 0.6
    np.fill_diagonal(mask, False)
    kind = ("sum", "max", "mixed")[rng.integers(0, 3)]
    if kind == "mixed":
        is_sum = rng.random(n) < 0.5
        is_sum[:2] = (True, False)
    else:
        is_sum = np.full(n, kind == "sum")
    linear = rng.random() < 0.5
    level = (0.4, 1.6)[rng.integers(0, 2)]
    gamma = []
    for i in range(n):
        share = level / max(1, int(mask[i].sum())) if is_sum[i] else level
        gamma.append(tuple(
            Zero() if not mask[i, j]
            else Linear(float(np.round(share * rng.uniform(0.5, 1.5), 6)))
            if linear else random_leaf(rng, allow_zero=False)
            for j in range(n)
        ))
    mu = tuple(SumAgg() if s else MaxAgg() for s in is_sum)
    return GainNetwork(n=n, gamma=tuple(gamma), gamma_u=(Zero(),) * n, mu=mu), kind


def random_mixed_sum_net(rng: np.random.Generator, nmax: int = 5):
    """Random sum network mixing bounded and unbounded gains, without input.

    On a random graph of n = 2..nmax nodes with a gain in every row, each
    edge draws a bounded gain of coefficient ``a`` (``a*s/(1+s)``,
    ``a*atan(s)``, or the sigmoid ``(a*s/(1+s))o(1*s^q)`` or
    ``(a*atan(s))o(1*s^q)`` with ``q`` in ``[1.1, 2]``) or an unbounded one
    of coefficient ``b = a/3`` (``b*s``, ``b*s^q``,
    ``(b*s)o(id+(0.2*s/(1+s)))`` or the power sum ``b*s+(b/10)*s^q`` with
    ``q`` in ``[0.6, 1.6]``), with one ``a`` in ``[0.1, 0.6]`` per network.
    Both classes occur in every network, so none is power-homogeneous;
    every one with a gain that has no slope at zero (a sigmoid or a power)
    takes the mixed route of ``construct_path``, the others its majorant
    ray.
    """
    from smallgain.gains import Atan, GainNetwork, Saturating, SumAgg

    def sigmoid(leaf):
        return Compose(leaf, Power(1.0, float(rng.uniform(1.1, 2.0))))

    def q():
        return float(rng.uniform(0.6, 1.6))

    bounded = (Saturating, Atan, lambda a: sigmoid(Saturating(a)),
               lambda a: sigmoid(Atan(a)))
    unbounded = (Linear, lambda b: Power(b, q()),
                 lambda b: Compose(Linear(b), PlusId(Saturating(0.2))),
                 lambda b: Sum((Linear(b), Power(b / 10.0, q()))))
    while True:
        n = int(rng.integers(2, nmax + 1))
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, False)
        is_bounded = rng.random((n, n)) < 0.5
        if not (mask.any(axis=1).all() and (mask & is_bounded).any()
                and (mask & ~is_bounded).any()):
            continue
        a = float(rng.uniform(0.1, 0.6))
        gamma = tuple(
            tuple(Zero() if not mask[i, j]
                  else bounded[rng.integers(0, 4)](a) if is_bounded[i, j]
                  else unbounded[rng.integers(0, 4)](a / 3.0)
                  for j in range(n))
            for i in range(n))
        return GainNetwork(n=n, gamma=gamma, gamma_u=(Zero(),) * n,
                           mu=(SumAgg(),) * n)


def max_cycle_mean(W: np.ndarray) -> float:
    """Largest geometric cycle mean of a nonnegative matrix, by max-times
    powers: ``max_k max_i ((W^k)_ii)^(1/k)`` over ``k <= n``."""
    n = W.shape[0]
    P, best = W.copy(), 0.0
    for k in range(1, n + 1):
        best = max(best, float(np.max(np.diag(P))) ** (1.0 / k))
        P = np.max(P[:, :, None] * W[None, :, :], axis=1)
    return best


def random_concave_net(rng: np.random.Generator, mu: str, nmax: int = 5):
    """Random network whose gains have a slope at zero, and its slope matrix.

    On a ring of n = 2..nmax nodes plus random chords, with ``mu`` rows
    (``"sum"`` or ``"max"``), the slope matrix ``W`` is scaled to a drawn
    spectral radius (max cycle mean on max rows) in ``[0.3, 0.9]`` or
    ``[1.15, 2.5]``.  Each edge realizes its slope ``w`` by ``w*s``,
    ``w*s/(1+s)``, ``w*atan(s)``, ``0.7w*s + 0.3w*s/(1+s)``,
    ``(0.5w*s/(1+s)) o (2*s)`` or ``max(w*s, 0.5w*atan(s))``; the ring's
    first edge is saturating, so no network is a power law.  Returns the
    network and ``W``.
    """
    from smallgain.gains import GainNetwork, MaxAgg, SumAgg

    shapes = (Linear, Saturating, Atan,
              lambda w: Sum((Linear(0.7 * w), Saturating(0.3 * w))),
              lambda w: Compose(Saturating(0.5 * w), Linear(2.0)),
              lambda w: Max((Linear(w), Atan(0.5 * w))))
    n = int(rng.integers(2, nmax + 1))
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    mask = ring | (rng.random((n, n)) < 0.3)
    np.fill_diagonal(mask, False)
    W = np.where(mask, rng.uniform(0.2, 1.0, (n, n)), 0.0)
    measure = (max_cycle_mean(W) if mu == "max"
               else float(np.max(np.abs(np.linalg.eigvals(W)))))
    target = rng.uniform(0.3, 0.9) if rng.random() < 0.5 else rng.uniform(1.15, 2.5)
    W *= target / measure
    gamma = [[Zero() for _ in range(n)] for _ in range(n)]
    for i, j in zip(*np.nonzero(mask)):
        shape = Saturating if (i, j) == (0, 1) else shapes[rng.integers(0, 6)]
        gamma[i][j] = shape(float(W[i, j]))
    agg = SumAgg if mu == "sum" else MaxAgg
    return GainNetwork(n=n, gamma=tuple(map(tuple, gamma)), gamma_u=(Zero(),) * n,
                       mu=(agg(),) * n), W


def ill_conditioned_chain(rng: np.random.Generator) -> np.ndarray:
    """Slope matrix of a linear sum chain whose eigenvalues ``np.linalg.eig``
    reads badly.

    ``k = 2..4`` blocks, each a 2-cycle of gains ``2^e`` and ``2^-e``,
    ``e`` in ``[-20, 20]``; each node of block ``b`` feeds its counterpart
    in block ``b + 1`` by a gain of ``2^10`` to ``2^29``, and the last node
    feeds node 0 by one back edge of ``2^-60`` to ``2^-199``.  The matrix is
    then scaled so that the largest real eigenvalue ``eig`` reads is
    ``1 - 1e-6``; the true radius may sit on either side of one.
    """
    k = int(rng.integers(2, 5))
    n = 2 * k
    G = np.zeros((n, n))
    for b in range(k):
        a = 2.0 ** int(rng.integers(-20, 21))
        G[2 * b, 2 * b + 1], G[2 * b + 1, 2 * b] = a, 1.0 / a
        if b:
            for j in range(2):
                G[2 * b + j, 2 * b - 2 + j] = 2.0 ** int(rng.integers(10, 30))
    G[0, n - 1] = 2.0 ** -int(rng.integers(60, 200))
    return G * ((1.0 - 1e-6) / float(np.max(np.linalg.eigvals(G).real)))
