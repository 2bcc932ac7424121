"""Topology tests with brute-force oracles."""

from itertools import permutations

import numpy as np
import pytest

from smallgain import graph
from smallgain.errors import TooLarge
from smallgain.gains import GainNetwork, Linear, SumAgg, Zero
from smallgain.graph import adjacency, is_irreducible, scc_decompose, subordinated_cycles


def net_from_adj(a):
    a = np.asarray(a, dtype=bool)
    n = a.shape[0]
    gamma = tuple(
        tuple(Linear(1) if (a[i, j] and i != j) else Zero() for j in range(n))
        for i in range(n)
    )
    return GainNetwork(
        n=n, gamma=gamma, gamma_u=(Zero(),) * n, mu=(SumAgg(),) * n
    )


def reach_closure(a):
    a = np.asarray(a, dtype=bool)
    n = a.shape[0]
    r = a | np.eye(n, dtype=bool)
    for k in range(n):
        r = r | (r[:, k:k + 1] & r[k:k + 1, :])
    return r


def oracle_sccs(a):
    r = reach_closure(a)
    mutual = r & r.T
    seen, comps = set(), []
    for i in range(a.shape[0]):
        if i in seen:
            continue
        comp = tuple(np.flatnonzero(mutual[i]).tolist())
        comps.append(comp)
        seen.update(comp)
    return set(comps)


def oracle_cycles(a):
    a = np.asarray(a, dtype=bool)
    n = a.shape[0]
    out = []
    for start in range(n):
        if a[start, start]:
            out.append((start,))
        for k in range(1, n):
            for tail in permutations([v for v in range(n) if v < start], k):
                walk = (start,) + tail
                ok = all(a[walk[m], walk[m + 1]] for m in range(k)) and a[walk[-1], start]
                if ok:
                    out.append(walk)
    return sorted(out, key=lambda c: (c[0], len(c), c))


def test_adjacency_from_network():
    net = net_from_adj([[0, 1], [0, 0]])
    np.testing.assert_array_equal(adjacency(net), [[False, True], [False, False]])


def test_irreducibility_small_cases():
    assert is_irreducible(np.array([[False, True], [True, False]]))
    assert not is_irreducible(np.array([[False, True], [False, False]]))
    assert is_irreducible(np.zeros((1, 1), dtype=bool))  # single node counts
    ring = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        ring[i, (i + 1) % 4] = True
    assert is_irreducible(ring)
    ring[0, 1] = False
    assert not is_irreducible(ring)


def test_scc_two_cycle_single_block():
    blocks = scc_decompose(np.array([[False, True], [True, False]]))
    assert blocks == ((0, 1),)


def test_scc_cascade_downstream_first():
    # node 0 is fed by node 1; downstream block must come first
    blocks = scc_decompose(np.array([[False, True], [False, False]]))
    assert blocks == ((0,), (1,))


def test_scc_block_order_invariant_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = rng.random((n, n)) < 0.35
        np.fill_diagonal(a, False)
        blocks = scc_decompose(a)
        flat = [v for b in blocks for v in b]
        assert sorted(flat) == list(range(n))
        assert {tuple(b) for b in blocks} == oracle_sccs(a)
        # permuted matrix upper block triangular
        owner = {}
        for bi, b in enumerate(blocks):
            for v in b:
                owner[v] = bi
        for i in range(n):
            for j in range(n):
                if a[i, j] and owner[i] != owner[j]:
                    assert owner[i] < owner[j]
        assert is_irreducible(a) == (len(blocks) == 1)


def test_cycles_frozen_examples():
    two = np.array([[False, True], [True, False]])
    assert subordinated_cycles(two) == [(1, 0)]
    comp3 = ~np.eye(3, dtype=bool)
    assert subordinated_cycles(comp3) == [
        (1, 0), (2, 0), (2, 1), (2, 0, 1), (2, 1, 0)
    ]
    tri = np.zeros((3, 3), dtype=bool)
    tri[0, 1] = tri[1, 2] = tri[2, 0] = True
    assert subordinated_cycles(tri) == [(2, 0, 1)]


def test_cycles_match_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        a = rng.random((n, n)) < 0.4
        np.fill_diagonal(a, False)
        assert subordinated_cycles(a) == oracle_cycles(a)


def test_cycles_size_cap(monkeypatch):
    with pytest.raises(TooLarge):
        subordinated_cycles(np.zeros((13, 13), dtype=bool))
    monkeypatch.setattr(graph, "CYCLE_ENUM_LIMIT", 13)
    subordinated_cycles(np.zeros((13, 13), dtype=bool))
