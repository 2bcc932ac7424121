"""Verdict oracle and certificate re-check, written without smallgain.

Nothing here imports the program.  Gains are parsed from the same config
strings the program reads, by a small parser of its own that covers the
subset the generators and the hand-written cases use:

    0, c*s, c*s^p, c*sqrt(s), c*s/(1+s), c*atan(s), e1+e2, max(e1,e2,...)

The verdict is exact on two families and undecided (None) elsewhere:

* Max rows (or rows with a single active slot) whose gains are
  power-conjugate, ``gamma_ij = c_ij*s^(q_i/q_j)``.  In ``t_i = s_i^(1/q_i)``
  the operator is max-times linear with slopes ``c_ij^(1/q_i)``, and the
  condition holds exactly when the max-times cycle mean is below one.
  Brute force over max-times powers of the slope matrix finds it.
* Rows whose gains are concave with a finite slope at zero (linear,
  saturating, arctangent and their sums).  The slope matrix ``J`` at zero
  majorizes the operator, so ``rho(J) < 1`` proves the condition; for
  ``rho(J) > 1`` the linearization at zero gives a violating vector near the
  origin.  Sum rows use the spectral radius from ``numpy.linalg.eigvals``,
  max rows the max-times cycle mean.  For linear gains this is exact.

Model configs use the two gain designs of the paper (quadratic energies
for linear block banks, absolute-value energies for Cohen-Grossberg
populations), recomputed here with numpy only.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

HOLDS = "holds"
FAILS = "fails"

# verdicts within this relative distance of the boundary stay undecided
_BOUNDARY = 1e-9

_TOKEN = re.compile(r"\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[a-z]+|[*^+(),/])")


class OracleParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gain strings


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OracleParseError(f"cannot read {text!r} at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse(text: str):
    """Gain string -> nested tuple: ('zero',), ('pow', c, p), ('sat', c),
    ('atan', c), ('sum', [..]) or ('max', [..]).  Linear is ('pow', c, 1.0)."""
    toks = _tokens(text)
    node, k = _expr(toks, 0)
    if k != len(toks):
        raise OracleParseError(f"trailing input in {text!r}")
    return node


def _expr(toks, k):
    terms = []
    node, k = _term(toks, k)
    terms.append(node)
    while k < len(toks) and toks[k] == "+":
        node, k = _term(toks, k + 1)
        terms.append(node)
    return (terms[0], k) if len(terms) == 1 else (("sum", terms), k)


def _expect(toks, k, want):
    if k >= len(toks) or toks[k] != want:
        raise OracleParseError(f"expected {want!r}")
    return k + 1


def _term(toks, k):
    tok = toks[k]
    if tok == "max":
        k = _expect(toks, k + 1, "(")
        args = []
        while True:
            node, k = _expr(toks, k)
            args.append(node)
            if toks[k] == ",":
                k += 1
                continue
            k = _expect(toks, k, ")")
            return ("max", args), k
    c = float(tok)
    if k + 1 >= len(toks) or toks[k + 1] != "*":
        if c == 0.0:
            return ("zero",), k + 1
        raise OracleParseError("a bare number other than 0 is not a gain")
    k += 2
    word = toks[k]
    if word == "s":
        k += 1
        if k < len(toks) and toks[k] == "^":
            return ("pow", c, float(toks[k + 1])), k + 2
        if toks[k:k + 6] == ["/", "(", "1", "+", "s", ")"]:
            return ("sat", c), k + 6
        return ("pow", c, 1.0), k
    if word in ("sqrt", "atan"):
        k = _expect(toks, k + 1, "(")
        k = _expect(toks, k, "s")
        k = _expect(toks, k, ")")
        return (("pow", c, 0.5) if word == "sqrt" else ("atan", c)), k
    raise OracleParseError(f"unknown gain atom {word!r}")


def evaluate(node, s: np.ndarray) -> np.ndarray:
    kind = node[0]
    if kind == "zero":
        return np.zeros_like(s)
    if kind == "pow":
        return node[1] * np.power(s, node[2])
    if kind == "sat":
        return node[1] * s / (1.0 + s)
    if kind == "atan":
        return node[1] * np.arctan(s)
    parts = [evaluate(child, s) for child in node[1]]
    return np.sum(parts, axis=0) if kind == "sum" else np.max(parts, axis=0)


def slope_at_zero(node) -> float | None:
    """Derivative at 0 when the gain is concave with a finite one, else None."""
    kind = node[0]
    if kind == "zero":
        return 0.0
    if kind == "pow":
        return node[1] if node[2] == 1.0 else None
    if kind in ("sat", "atan"):
        return node[1]
    slopes = [slope_at_zero(child) for child in node[1]]
    if any(v is None for v in slopes):
        return None
    return sum(slopes) if kind == "sum" else max(slopes)


# ---------------------------------------------------------------------------
# Network verdicts


def max_cycle_mean(A: np.ndarray) -> float:
    """Largest geometric cycle mean of a nonnegative matrix (max-times)."""
    n = A.shape[0]
    best = 0.0
    P = A.copy()
    for k in range(1, n + 1):
        if k > 1:
            P = np.max(P[:, :, None] * A[None, :, :], axis=1)
        d = float(np.max(np.diag(P)))
        if d > 0.0:
            best = max(best, d ** (1.0 / k))
    return best


def spectral_radius(J: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(J)))) if J.size else 0.0


def _decide(value: float) -> str | None:
    if abs(value - 1.0) <= _BOUNDARY:
        return None
    return HOLDS if value < 1.0 else FAILS


def _power_conjugate_slopes(nodes) -> np.ndarray | None:
    """Slopes c_ij^(1/q_i) when every gain is c_ij*s^(q_i/q_j), else None."""
    n = len(nodes)
    q = [None] * n
    for root in range(n):
        if q[root] is not None:
            continue
        q[root] = 1.0
        todo = [root]
        while todo:
            i = todo.pop()
            # gain i <- j has exponent q_i/q_j, gain j <- i has q_j/q_i
            links = [(j, nodes[i][j], True) for j in range(n)]
            links += [(j, nodes[j][i], False) for j in range(n)]
            for j, node, into_i in links:
                if node[0] == "zero":
                    continue
                if node[0] != "pow":
                    return None
                val = q[i] / node[2] if into_i else q[i] * node[2]
                if q[j] is None:
                    q[j] = val
                    todo.append(j)
                elif abs(q[j] - val) > 1e-12 * val:
                    return None
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if nodes[i][j][0] == "pow":
                A[i, j] = nodes[i][j][1] ** (1.0 / q[i])
    return A


def network_verdict(doc: dict) -> str | None:
    """Exact small-gain verdict of a declarative config, or None."""
    n = doc["n"]
    nodes = [[parse(g) for g in row] for row in doc["gains"]]
    mus = doc["mu"]
    if any(m not in ("sum", "max") for m in mus):
        return None
    active = [sum(nodes[i][j][0] != "zero" for j in range(n)) for i in range(n)]
    max_like = [mus[i] == "max" or active[i] <= 1 for i in range(n)]
    J = np.zeros((n, n))
    concave = True
    for i in range(n):
        for j in range(n):
            v = slope_at_zero(nodes[i][j])
            if v is None:
                concave = False
            else:
                J[i, j] = v
    if all(max_like):
        A = _power_conjugate_slopes(nodes)
        if A is None and concave:
            A = J
        return None if A is None else _decide(max_cycle_mean(A))
    if all(m == "sum" for m in mus) and concave:
        return _decide(spectral_radius(J))
    return None


# ---------------------------------------------------------------------------
# Model families: the paper's gain designs, recomputed


def _lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    d = A.shape[0]
    eye = np.eye(d)
    M = np.kron(A.T, eye) + np.kron(eye, A.T)
    P = np.linalg.solve(M, -Q.reshape(-1)).reshape(d, d)
    return 0.5 * (P + P.T)


def linear_design(model: dict) -> np.ndarray:
    """Slope matrix G of the quadratic-energy design.

    The design's rows are ``Gamma_i(s) = (sum_j G_ij sqrt(s_j))^2``, which is
    linear in ``t = sqrt(s)``, so ``rho(G) < 1`` decides the condition.
    """
    A = [np.atleast_2d(np.array(a, dtype=float)) for a in model["A"]]
    n = len(A)
    Q = [np.atleast_2d(np.array(q, dtype=float)) for q in model["Q"]] \
        if "Q" in model else [np.eye(a.shape[0]) for a in A]
    eps = float(model.get("epsilon", 0.5))
    lo, hi, c = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        eig = np.linalg.eigvalsh(_lyapunov(A[i], Q[i]))
        lo[i], hi[i] = math.sqrt(eig[0]), math.sqrt(eig[-1])
        c[i] = np.linalg.eigvalsh(Q[i])[0]
    G = np.zeros((n, n))
    for entry in model.get("coupling", []):
        i, j = entry["i"], entry["j"]
        norm = np.linalg.norm(np.atleast_2d(np.array(entry["matrix"], float)), 2)
        G[i, j] = 2.0 * hi[i] ** 3 / (c[i] * (1.0 - eps)) * norm / lo[j]
    return G


def cg_design(model: dict) -> np.ndarray:
    """Slope matrix at zero of the absolute-value-energy design.

    Rows are ``((1+rho)/bt_i) * sum_j k_i |t_ij| s_j/(1+s_j)`` with
    ``k_i = alpha_hi_i/(alpha_lo_i - eps)``: concave, so ``rho(J)`` decides.
    """
    lo = np.array(model["alpha_lo"], float)
    hi = np.array(model["alpha_hi"], float)
    T = np.abs(np.array(model["t_matrix"], float))
    eps = float(model.get("epsilon", 0.5))
    rho = float(model.get("rho_slope", 1.0))
    bt = float(model.get("bt", 1.0))
    k = hi / (lo - eps)
    return ((1.0 + rho) / bt * k)[:, None] * T


def model_verdict(doc: dict) -> str | None:
    model = doc["model"]
    if model["family"] == "linear":
        return _decide(spectral_radius(linear_design(model)))
    if model["family"] == "cohen_grossberg":
        return _decide(spectral_radius(cg_design(model)))
    return None


def verdict(doc: dict) -> str | None:
    return model_verdict(doc) if "model" in doc else network_verdict(doc)


# ---------------------------------------------------------------------------
# Operators and the certificate re-check


def operator(doc: dict):
    """Internal gain operator of a config, as a function of (m, n) states."""
    if "model" in doc:
        model = doc["model"]
        if model["family"] == "linear":
            G = linear_design(model)
            return lambda S: (np.sqrt(S) @ G.T) ** 2
        J = cg_design(model)
        return lambda S: (S / (1.0 + S)) @ J.T
    n = doc["n"]
    nodes = [[parse(g) for g in row] for row in doc["gains"]]
    mus = doc["mu"]

    def apply(S):
        out = np.empty_like(S)
        for i in range(n):
            cols = np.stack([evaluate(nodes[i][j], S[:, j]) for j in range(n)], axis=1)
            out[:, i] = cols.max(axis=1) if mus[i] == "max" else cols.sum(axis=1)
        return out

    return apply


def recheck_path_csv(doc: dict, path: str) -> tuple[bool, float]:
    """Recompute ``sigma(r) - Gamma(sigma(r))`` from a ``.path.csv`` file.

    Returns (every margin positive, smallest relative margin).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = [k for k, name in enumerate(header) if name.startswith("sigma_")]
    S = np.array([[float(row[k]) for k in cols] for row in body])
    margins = S - operator(doc)(S)
    rel = float(np.min(margins / S)) if S.size else -math.inf
    return bool(S.size and np.all(margins > 0.0)), rel
