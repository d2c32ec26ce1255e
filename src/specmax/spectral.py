"""Floating point eigensolves: Perron eigenpairs and spectral radii.

Exact polynomial work (characteristic polynomials, root isolation,
polynomial comparisons) lives in intpoly, and the spectral inequalities
checked on these solves live in suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph


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
    """Perron eigenpair of a connected graph from one dense symmetric solve.

    Takes the top eigenvector of `numpy.linalg.eigh` (LAPACK, backward
    stable) in absolute value, which fixes its arbitrary sign and clears
    rounding-level negatives, renormalizes it, and reports rho as its
    Rayleigh quotient.  The infinity-norm residual ||A x - rho x|| is checked
    against `tol` on every call; it sits near n * rho * 1e-16 whatever the
    spectral gap, so very small tolerances are unreachable for large graphs
    and raise ConvergenceError, as does a vector component <= 0 when n > 1.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol {tol} outside [1e-14, 1e-6]")
    if not g.is_connected():
        raise ValueError("perron requires a connected graph")
    a = g.to_numpy()
    x = np.abs(np.linalg.eigh(a)[1][:, -1])
    x /= np.linalg.norm(x)
    ax = a @ x
    rho = float(x @ ax)
    residual = float(np.max(np.abs(ax - rho * x)))
    if residual > tol:
        raise ConvergenceError(f"residual {residual:.3e} above tol {tol:.1e} at n={g.n}", residual)
    if g.n > 1 and float(np.min(x)) <= 0.0:
        raise ConvergenceError("Perron vector not positive on a connected graph", residual)
    return PerronPair(rho, x, residual, 1)


def spectral_radius(g: Graph) -> float:
    """Spectral radius of a graph that may be disconnected: the top
    eigenvalue of its adjacency matrix, which is nonnegative and symmetric."""
    return float(np.linalg.eigvalsh(g.to_numpy())[-1])

