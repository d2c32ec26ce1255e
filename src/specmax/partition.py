"""Vertex partitions and their quotient matrices, kept as integer edge counts
between cells, with the equitability flag the quotient-bound checks in
`specmax.suites` rest on. The radii of quotient matrices are solved in
`specmax.spectral`, by `quotient_radii`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, strict_int
from .spectral import quotient_radii


@dataclass(frozen=True)
class QuotientSpec:
    """Quotient matrix of a vertex partition, as integers: counts[i][j]
    edges from cell i into cell j, a loop adding 2 to its own cell, and
    sizes[i] vertices in cell i. Entry (i, j) of the matrix is the average
    counts[i][j] / sizes[i]; the partition is equitable when every vertex of
    cell i has the same number of edges into each cell j."""

    counts: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    equitable: bool

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(c, s) for c in row) for row, s in zip(self.counts, self.sizes))

    def rho(self) -> float:
        """Spectral radius of the matrix: `quotient_radii([self])[0]`."""
        return quotient_radii([self])[0]

    def to_json(self) -> list[list[list[int]]]:
        return [[[x.numerator, x.denominator] for x in row] for row in self.matrix]


def quotient(g: Graph, cells) -> QuotientSpec:
    """Quotient of the partition, with exact equitability flag; a ValueError
    when the cells are not a partition of g's vertices."""
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
    masks = [sum(1 << v for v in cell) for cell in norm]
    rows, loops = g.rows, g.loops
    counts, equitable = [], True
    for cell in norm:
        # each vertex's edges into every cell, a loop adding 2 to its own
        each = [tuple((rows[v] & m).bit_count() + 2 * ((loops & m) >> v & 1) for m in masks) for v in cell]
        equitable = equitable and each.count(each[0]) == len(cell)
        counts.append(tuple(map(sum, zip(*each))))
    return QuotientSpec(tuple(counts), tuple(map(len, norm)), equitable)
