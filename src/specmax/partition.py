"""Vertex partitions, exact rational quotient matrices, and the quotient
spectral-radius bound with its loop-shift variant."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .spectral import matrix_spectral_radius, perron


class PropertyViolation(AssertionError):
    """A verification primitive observed a violated spectral property."""


def _normalize_cells(g: Graph, cells) -> tuple[tuple[int, ...], ...]:
    try:
        norm = tuple(tuple(sorted(map(operator.index, cell))) for cell in cells)
    except TypeError:
        raise ValueError("partition must be a list of lists of vertex indices") from None
    seen = 0
    for cell in norm:
        if not cell:
            raise ValueError("empty cell in partition")
        for v in cell:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if (seen >> v) & 1:
                raise ValueError(f"vertex {v} appears in two cells")
            seen |= 1 << v
    if seen != (1 << g.n) - 1:
        raise ValueError("partition does not cover the vertex set")
    return norm


@dataclass(frozen=True)
class QuotientSpec:
    """Exact rational quotient matrix of a vertex partition.

    matrix[i][j] is the average number of edges from a vertex of cell i
    into cell j, with a loop contributing 2 to its own diagonal block.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    equitable: bool

    def rho(self) -> float:
        return matrix_spectral_radius(self.matrix)

    def as_int_matrix(self) -> list[list[int]]:
        out = []
        for row in self.matrix:
            ints = []
            for x in row:
                if x.denominator != 1:
                    raise ValueError("quotient matrix is not integral")
                ints.append(x.numerator)
            out.append(ints)
        return out

    def to_json(self) -> list[list[list[int]]]:
        return [[[x.numerator, x.denominator] for x in row] for row in self.matrix]


def quotient(g: Graph, cells) -> QuotientSpec:
    """Quotient matrix of the partition, with exact equitability flag."""
    norm = _normalize_cells(g, cells)
    masks = [sum(1 << v for v in cell) for cell in norm]
    m = len(norm)
    matrix = []
    equitable = True
    for i, cell in enumerate(norm):
        row = []
        for j in range(m):
            counts = []
            for v in cell:
                c = (g.rows[v] & masks[j]).bit_count()
                if i == j and (g.loops >> v) & 1:
                    c += 2
                counts.append(c)
            if any(c != counts[0] for c in counts):
                equitable = False
            row.append(Fraction(sum(counts), len(cell)))
        matrix.append(tuple(row))
    return QuotientSpec(tuple(matrix), equitable)


def quotient_bound_check(g: Graph, cells, tol: float = 1e-9):
    """Check rho(G) >= rho(B), with equality exactly in the equitable case.

    Returns (rho_G, rho_B, equitable); raises PropertyViolation when the
    bound fails at the given tolerance.
    """
    spec = quotient(g, cells)
    rho_g = perron(g).rho
    rho_b = spec.rho()
    if rho_g < rho_b - tol:
        raise PropertyViolation(
            f"quotient bound violated: rho(G)={rho_g!r} < rho(B)={rho_b!r}"
        )
    if spec.equitable and abs(rho_g - rho_b) > tol:
        raise PropertyViolation(
            f"equitable partition but rho(G)={rho_g!r} != rho(B)={rho_b!r}"
        )
    return rho_g, rho_b, spec.equitable


def loop_shift_check(g: Graph, cells, tol: float = 1e-9) -> bool:
    """Verify the loop-augmentation behaviour of an equitable partition.

    For an equitable partition of a loop-free g: the same partition is
    equitable for the all-loops graph, its quotient is B + 2I exactly, and
    the spectral radius shifts by exactly 2 (within tol numerically).
    """
    base = quotient(g, cells)
    if not base.equitable:
        raise ValueError("loop_shift_check requires an equitable partition")
    looped = g.add_loops()
    shifted = quotient(looped, cells)
    if not shifted.equitable:
        return False
    m = len(base.matrix)
    for i in range(m):
        for j in range(m):
            want = base.matrix[i][j] + (2 if i == j else 0)
            if shifted.matrix[i][j] != want:
                return False
    rho_g = perron(g).rho
    rho_loop = perron(looped).rho
    if abs(rho_loop - (rho_g + 2)) > tol:
        return False
    if abs(shifted.rho() - (base.rho() + 2)) > tol:
        return False
    return True
