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
    Both classes occur in every network, so none is power-homogeneous and
    every one takes the mixed route of ``construct_path``.
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
