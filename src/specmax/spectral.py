"""Floating point eigensolves: Perron eigenpairs, and spectral radii of graphs and quotients.

Exact polynomial work (characteristic polynomials, root isolation,
polynomial comparisons) lives in intpoly, and the spectral inequalities
checked on these solves live in suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency_stack

# the most graphs a sweep or a search stacks into one solve, so that its
# memory does not grow with the number of graphs
ROUND = 2000


class ConvergenceError(RuntimeError):
    """An eigensolve missed the requested residual or lost positivity."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue and positive unit eigenvector of a connected graph;
    `iterations` is always 1, the one dense eigensolve behind the pair."""

    rho: float
    vector: np.ndarray
    residual: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "rho": self.rho,
            "vector": [float(x) for x in self.vector],
            "residual": self.residual,
            "iterations": self.iterations,
        }


def perron(g: Graph, tol: float = 1e-10) -> PerronPair:
    """Perron eigenpair of a connected graph: `perron_all([g], tol)[0]`."""
    return perron_all([g], tol)[0]


def perron_all(graphs: list[Graph], tol: float = 1e-10) -> list[PerronPair]:
    """Perron eigenpairs of connected graphs, in input order, from one
    stacked dense symmetric solve per order.

    Takes the top eigenvector of `numpy.linalg.eigh` (LAPACK, backward
    stable) in absolute value, which fixes its arbitrary sign and clears
    rounding-level negatives, renormalizes it, and reports rho as its
    Rayleigh quotient.  The infinity-norm residual ||A x - rho x|| is checked
    against `tol` for every graph; it sits near n * rho * 1e-16 whatever the
    spectral gap, so very small tolerances are unreachable for large graphs
    and raise ConvergenceError, as does a vector component <= 0 when n > 1.
    Each pair is bit for bit what the solve of its graph alone gives: the
    stacked `eigh` and `matmul` run the same LAPACK and BLAS calls per
    matrix.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol {tol} outside [1e-14, 1e-6]")
    if not all(g.is_connected() for g in graphs):
        raise ValueError("perron requires a connected graph")

    def top_pairs(graphs):
        a = adjacency_stack(graphs)
        x = np.abs(np.linalg.eigh(a)[1][:, :, -1])
        x /= np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0]
        ax = np.matmul(a, x[:, :, None])[:, :, 0]
        rho = np.matmul(x[:, None, :], ax[:, :, None])[:, 0, 0]
        residual = np.max(np.abs(ax - rho[:, None] * x), axis=1)
        return zip(rho.tolist(), x, residual.tolist(), (np.min(x, axis=1) > 0.0).tolist())

    pairs = []
    for g, (rho, x, residual, positive) in zip(graphs, _solve_by_order(graphs, top_pairs)):
        if residual > tol:
            raise ConvergenceError(f"residual {residual:.3e} above tol {tol:.1e} at n={g.n}", residual)
        if g.n > 1 and not positive:
            raise ConvergenceError("Perron vector not positive on a connected graph", residual)
        pairs.append(PerronPair(rho, x, residual, 1))
    return pairs


def spectral_radii(graphs: list[Graph]) -> list[float]:
    """Spectral radii of graphs of any orders, connected or not, in input
    order: the top eigenvalue of each adjacency matrix, which is symmetric
    and nonnegative, from one stacked `numpy.linalg.eigvalsh` per order, bit
    for bit what the solve of each graph alone gives."""
    return _solve_by_order(graphs, lambda gs: np.linalg.eigvalsh(adjacency_stack(gs))[:, -1].tolist())


def quotient_radii(specs) -> list[float]:
    """Spectral radii max |lambda| of partition quotients, in input order, from
    one stacked `numpy.linalg.eigvals` of counts / sizes per cell count, each
    bit for bit the solve of its quotient alone: c / s rounds correctly and
    `geev` runs per matrix."""

    def radii(group):
        b = np.array([spec.counts for spec in group], dtype=float)
        b /= np.array([spec.sizes for spec in group], dtype=float)[:, :, None]
        return np.max(np.abs(np.linalg.eigvals(b)), axis=1).tolist()

    return _solve_by_order(specs, radii, order=lambda spec: len(spec.sizes))


def _solve_by_order(items: list, solve, order=lambda g: g.n) -> list:
    """`solve` of the items (graphs by default) of each order, one call per
    order on the list of those items; its results put back in input order."""
    by_order: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_order.setdefault(order(item), []).append(i)
    solved = [None] * len(items)
    for idx in by_order.values():
        for i, result in zip(idx, solve([items[i] for i in idx])):
            solved[i] = result
    return solved
