"""Vertex partitions and their exact rational quotient matrices, with the
equitability flag the quotient-bound checks in `specmax.suites` rest on."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, strict_int


def _normalize_cells(g: Graph, cells) -> tuple[tuple[int, ...], ...]:
    try:
        norm = tuple(tuple(sorted(map(strict_int, cell))) for cell in cells)
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
        """Spectral radius of the matrix, from its dense float eigenvalues."""
        arr = np.array([[float(x) for x in row] for row in self.matrix])
        return float(np.max(np.abs(np.linalg.eigvals(arr))))

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
