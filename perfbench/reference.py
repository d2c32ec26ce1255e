"""Reference graphs and numbers computed without specmax.

Everything here is written from the definitions (graph6 format, the family
layouts, the quotient matrices of the paper), so the checks that use it do
not trust the package under test.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def graph6_encode(n: int, edges) -> str:
    """graph6 text of a simple graph (n <= 258047)."""
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (r, c) in adj else 0 for c in range(1, n) for r in range(c)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out).decode("ascii")


def graph6_decode(text: str) -> np.ndarray:
    """Adjacency matrix (float) of one graph6 line."""
    data = text.strip().encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 body length {len(body)} does not fit n={n}")
    bits = [((b - 63) >> k) & 1 for b in body for k in range(5, -1, -1)]
    a = np.zeros((n, n))
    i = 0
    for c in range(1, n):
        for r in range(c):
            if bits[i]:
                a[r, c] = a[c, r] = 1.0
            i += 1
    return a


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def rho(a: np.ndarray) -> float:
    """Largest adjacency eigenvalue, by LAPACK's symmetric solver."""
    return float(np.linalg.eigvalsh(a)[-1])


def matrix_rho(m) -> float:
    """Spectral radius of a small nonnegative (not symmetric) matrix."""
    return float(max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))


def is_connected(a: np.ndarray) -> bool:
    n = len(a)
    seen = {0}
    todo = [0]
    while todo:
        v = todo.pop()
        for w in np.flatnonzero(a[v]):
            if int(w) not in seen:
                seen.add(int(w))
                todo.append(int(w))
    return len(seen) == n


def clique(vs):
    vs = list(vs)
    return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]


def matched_clique(vs):
    """Complete graph on vs minus the matching (vs[0],vs[1]), (vs[2],vs[3]), ..."""
    vs = list(vs)
    drop = {(vs[i], vs[i + 1]) for i in range(0, len(vs) - 1, 2)}
    return [e for e in clique(vs) if e not in drop]


def join(a, b):
    return [(u, v) for u in a for v in b]


def family_g(n: int, t: int):
    """G(n, t): vertex 0 joined to a matched K_t, fully joined to K_{n-t-1}."""
    mid = range(1, t + 1)
    right = range(t + 1, n)
    return n, matched_clique(mid) + clique(right) + join([0], mid) + join(mid, right)


def family_h1(n: int):
    """H1(n), even n: pendant 0 on vertex 1, edge {2,3}, matched block 4..n-1."""
    big = range(4, n)
    return n, [(0, 1), (2, 3)] + matched_clique(big) + join([1], big) + join([2, 3], big)


def family_h2(n: int):
    """H2(n), odd n: degree-2 vertex 0 on the edge {1,2}, K4 on 3..6, block 7..n-1."""
    big = range(7, n)
    edges = [(0, 1), (0, 2), (1, 2)] + clique([3, 4, 5, 6])
    edges += [(1, 5), (1, 6), (2, 3), (2, 4)]
    return n, edges + matched_clique(big) + join([1, 2, 3, 4, 5, 6], big)


def h1_cells(n: int):
    return [[0], [1], [2, 3], list(range(4, n))]


def h2_cells(n: int):
    return [[0], [1, 2], [3, 4, 5, 6], list(range(7, n))]


def bottleneck(k: int, path: int):
    """Two K_k joined by a path with `path` edges, plus a pendant on vertex 0.

    The two cliques are alike, so the top two eigenvalues nearly coincide and
    power iteration needs many steps; the pendant breaks the symmetry.
    """
    edges = clique(range(k)) + clique(range(k, 2 * k))
    n = 2 * k
    chain = [k - 1] + list(range(n, n + path - 1)) + [k]
    n += path - 1
    edges += list(zip(chain, chain[1:]))
    edges.append((0, n))
    return n + 1, edges


def gnp(rng, n: int, p: float):
    """Seeded connected G(n, p)."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if is_connected(adjacency(n, edges)):
            return n, edges


def quotient_matrix(a: np.ndarray, cells) -> list[list[tuple[int, int]]]:
    """Average edges from a vertex of cell i into cell j, as reduced fractions."""
    out = []
    for ci in cells:
        row = []
        for cj in cells:
            f = Fraction(int(a[np.ix_(ci, cj)].sum()), len(ci))
            row.append((f.numerator, f.denominator))
        out.append(row)
    return out


# Quotient matrices as printed in the paper, for the table winners.
def a_delta(n: int, d: int):
    return ((0, d, 0), (1, d - 2, n - d - 1), (0, d, n - d - 2))


def b1(n: int):
    return ((0, 1, 0, 0), (1, 0, 0, n - 4), (0, 0, 1, n - 4), (0, 1, 2, n - 6))


def b2(n: int):
    return ((0, 2, 0, 0), (1, 1, 2, n - 7), (0, 1, 3, n - 7), (0, 2, 4, n - 9))


def b_delta(n: int, d: int):
    return ((0, d, 0), (1, d - 3, n - d - 1), (0, d, n - d - 3))
