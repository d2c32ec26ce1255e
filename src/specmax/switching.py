"""Local edge switching and the loop-graph path operations, as exact graph
rewrites. The spectral inequalities they satisfy are checked in
`specmax.suites` (`ls_verdicts` and `path_op_verdicts`)."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

KINDS = ("LS", "Op1", "Op2")


@dataclass(frozen=True)
class SwitchMove:
    """A rewrite kind plus its labeled participants.

    LS: (s, t, v, u) -- replaces edges uv, st by sv, tu.
    Op1/Op2: the complement path (v1, ..., vt) of a loop graph.
    """

    kind: str
    vertices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))


def _check_complement_path(g: Graph, path, label: str):
    """Consecutive path vertices non-adjacent, all other pairs adjacent."""
    if len(path) < 3:
        raise ValueError(f"{label}: path needs at least 3 vertices")
    for i, a in enumerate(path):
        for j in range(i + 1, len(path)):
            if g.has_edge(a, path[j]) != (j > i + 1):
                want = "adjacent" if j > i + 1 else "non-adjacent"
                raise ValueError(f"{label}: path vertices {a} and {path[j]} must be {want}")


def apply(g: Graph, move: SwitchMove) -> Graph:
    """Apply a switching move.

    Each move is an edge edit on distinct vertices, so its added and removed
    edges are disjoint; `Graph.with_edges` refuses an added edge that is
    present, a removed edge that is absent and a dropped loop that is absent.
    This function checks the rest: the complement-path shape of Op1/Op2.
    """
    vs = move.vertices
    if len(set(vs)) != len(vs):
        raise ValueError(f"{move.kind}: vertices must be distinct")
    if move.kind == "LS":
        s, t, v, u = vs
        return g.with_edges(add=[(s, v), (t, u)], remove=[(u, v), (s, t)])

    _check_complement_path(g, vs, move.kind)
    if move.kind == "Op2":
        if len(vs) < 4:
            raise ValueError("Op2 needs a path on at least 4 vertices")
        # Op2 on (v1, ..., vt) is Op1 on (v2, ..., vt)
        vs = vs[1:]
    if len(vs) > 4:
        v1, v2, *_, vt1, vt = vs
        return g.with_edges(add=[(v1, v2), (vt1, vt)], remove=[(v1, vt), (v2, vt1)])
    # t = 3 or 4: the interior loops become the path's edges
    return g.with_edges(add=list(zip(vs, vs[1:])), remove=[(vs[0], vs[-1])], drop_loops=vs[1:-1])
