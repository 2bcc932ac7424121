"""Structure of the interconnection digraph.

Node j feeds node i exactly when the gain in row i, column j is not the
zero map.  Everything here works on the boolean adjacency matrix with that
row-depends-on-column convention.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge
from .gains import GainNetwork

CYCLE_ENUM_LIMIT = 12


def adjacency(net: GainNetwork) -> np.ndarray:
    """Boolean matrix with entry (i, j) set when j influences i."""
    adj = np.zeros((net.n, net.n), dtype=bool)
    for i, cols in enumerate(net.active_sets):
        adj[i, list(cols)] = True
    return adj


def _tarjan(adj: np.ndarray):
    # iterative Tarjan; emits each component after everything it depends on
    n = adj.shape[0]
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(tuple(sorted(comp)))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return out


def scc_decompose(adj: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components, most downstream block first.

    Ordering invariant: permuting rows and columns by the concatenated
    blocks makes the adjacency matrix upper block triangular, so every
    cross-block influence points from a later block into an earlier one.
    """
    adj = np.asarray(adj, dtype=bool)
    # Tarjan emits suppliers first; the downstream consumers go in front
    return tuple(reversed(_tarjan(adj)))


def is_irreducible(adj: np.ndarray) -> bool:
    """True when the digraph is strongly connected (one component)."""
    adj = np.asarray(adj, dtype=bool)
    if adj.shape[0] == 0:
        return False
    return len(_tarjan(adj)) == 1


def subordinated_cycles(adj: np.ndarray) -> list[tuple[int, ...]]:
    """All simple cycles, each listed once starting at its largest node.

    A cycle (i1, ..., ik) walks row-to-column: adjacency holds at
    (i1, i2), ..., (ik, i1).  Output is sorted by start node, then length,
    then lexicographically.
    """
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    if n > CYCLE_ENUM_LIMIT:
        raise TooLarge(
            f"cycle enumeration is capped at {CYCLE_ENUM_LIMIT} nodes, got {n}"
        )
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    cycles: list[tuple[int, ...]] = []
    for start in range(n):
        if adj[start, start]:
            cycles.append((start,))
        # DFS over simple paths through nodes strictly below the start node
        path = [start]
        used = [False] * n
        used[start] = True
        work = [iter(succ[start])]
        while work:
            advanced = False
            for w in work[-1]:
                if w >= start or used[w]:
                    continue
                if adj[w, start]:
                    cycles.append(tuple(path + [w]))
                used[w] = True
                path.append(w)
                work.append(iter(succ[w]))
                advanced = True
                break
            if not advanced:
                work.pop()
                used[path.pop()] = False
    cycles.sort(key=lambda c: (c[0], len(c), c))
    return cycles
