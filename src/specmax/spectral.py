"""Perron eigenpair computation and spectral inequality primitives.

Exact polynomial work (characteristic polynomials, root isolation,
polynomial comparisons) lives in intpoly; this module owns the floating
point eigensolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

MAX_ITERATIONS = 10**6


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue and positive unit eigenvector of a connected graph."""

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
    """Perron eigenpair of a connected graph by shifted power iteration.

    Deterministic: starts from the normalized all-ones vector and iterates
    x <- normalize((A + I) x); the +I shift makes the iteration converge on
    bipartite graphs too.  Convergence is declared when the infinity-norm
    residual ||A x - rho x|| drops below `tol` with rho the Rayleigh
    quotient.  Note the float64 noise floor is about n * rho * 1e-16, so
    very small tolerances are unreachable for large graphs.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol {tol} outside [1e-14, 1e-6]")
    if not g.is_connected():
        raise ValueError("perron requires a connected graph")
    a = g.to_numpy()
    n = g.n
    x = np.full(n, 1.0 / math.sqrt(n))
    ax = a @ x
    residual = float("inf")
    for it in range(1, MAX_ITERATIONS + 1):
        y = ax + x
        x = y / np.linalg.norm(y)
        ax = a @ x
        rho = float(x @ ax)
        residual = float(np.max(np.abs(ax - rho * x)))
        if residual <= tol:
            if n > 1 and float(np.min(x)) <= 0.0:
                raise ConvergenceError(
                    "iterate lost positivity on a connected graph", residual
                )
            return PerronPair(rho, x, residual, it)
    raise ConvergenceError(
        f"no convergence after {MAX_ITERATIONS} iterations "
        f"(last residual {residual:.3e}, tol {tol:.1e})",
        residual,
    )


def perron_component_bound(g: Graph, tol: float = 1e-10):
    """Evaluate rho(G) * max-component < sqrt(max degree).

    Returns (lhs, rhs, holds).
    """
    pair = perron(g, tol)
    lhs = pair.rho * float(np.max(pair.vector))
    rhs = math.sqrt(g.max_degree())
    return lhs, rhs, lhs < rhs


def spectral_radius(g: Graph, tol: float = 1e-10) -> float:
    """Spectral radius of a graph that may be disconnected."""
    if g.is_connected():
        return perron(g, tol).rho
    return max(perron(g.induced(comp), tol).rho for comp in g.components())


def matrix_spectral_radius(matrix) -> float:
    """Spectral radius of a small nonnegative matrix via dense eigenvalues."""
    arr = np.array([[float(x) for x in row] for row in matrix])
    if arr.size == 0:
        raise ValueError("empty matrix")
    return float(np.max(np.abs(np.linalg.eigvals(arr))))
