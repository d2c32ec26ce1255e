"""Exhaustive generation of connected nonregular graphs with prescribed
order and maximum degree, and the extremal search over them; the
structure of the maximizers is checked in `suites.maximizer_verdicts`.

Generation proceeds by vertex augmentation: level k holds one canonical
representative per isomorphism class of connected k-vertex graphs with
max degree <= the target.  Every connected graph has a non-cut vertex, so
each class at level k arises from some class at level k-1.  A child is
kept only if its new vertex has maximum degree among the vertices whose
deletion stays in the previous level (McKay's canonical deletion, its
invariant half), which rejects most children before a canonical form is
computed; the canonical forms remove the remaining duplicates, which keeps
the level sets small (about 10^4 classes at n=8) and the memory flat.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .graphs import CapabilityError, Graph, canonical_form, graph6_decode
from .intpoly import char_poly, compare_max_real_roots
from .spectral import spectral_radius

EXHAUSTIVE_MAX_N = 9


@dataclass(frozen=True)
class EnumSpec:
    n: int
    max_degree: int
    require_connected: bool = True

    def __post_init__(self):
        if not 2 <= self.max_degree <= self.n - 1:
            raise ValueError(
                f"max_degree {self.max_degree} outside [2, n-1] for n={self.n}"
            )
        if self.n > EXHAUSTIVE_MAX_N:
            raise CapabilityError(
                f"exhaustive enumeration capped at n={EXHAUSTIVE_MAX_N}"
            )


@dataclass
class ExtremalReport:
    maximizers: list[Graph]
    rho_max: float
    total_classes: int


def _splits(rows: list[int], v: int) -> bool:
    """Whether deleting v disconnects the graph (v is not the last vertex,
    where the search starts)."""
    rest = ((1 << len(rows)) - 1) & ~(1 << v)
    seen = frontier = 1 << (len(rows) - 1)
    while frontier:
        low = frontier & -frontier
        grown = rows[low.bit_length() - 1] & rest & ~seen
        seen |= grown
        frontier = (frontier ^ low) | grown
    return seen != rest


def _level_up(codes: list[bytes], cap: int, connected_only: bool) -> list[bytes]:
    """Extend every canonical k-vertex class by one attached vertex.

    A vertex is deletable if removing it keeps the graph in the previous
    level: any vertex, or with connected_only a non-cut vertex (the new
    vertex must then attach somewhere).  A child keeps its new vertex k
    only if no deletable vertex has a higher degree than k, and only kept
    children get a canonical form.  No class is lost: take a deletable
    vertex w of maximum degree in a class C; C - w lies in the previous
    level, and its representative plus w's neighbourhood, carried over by
    the isomorphism, is a child isomorphic to C (k playing w) that passes
    the test and every cap check.  The set of canonical forms removes the
    remaining duplicates, so the level lists do not depend on the rule.
    """
    out: set[bytes] = set()
    lowest_mask = 1 if connected_only else 0
    for code in codes:
        g = graph6_decode(code.decode("ascii"))
        k = g.n
        degs = [g.rows[v].bit_count() for v in range(k)]
        # subsets that keep every degree within the cap
        blocked = sum(1 << v for v in range(k) if degs[v] + 1 > cap)
        for mask in range(lowest_mask, 1 << k):
            d = mask.bit_count()
            if mask & blocked or d > cap:
                continue
            rows = [r | (mask >> v & 1) << k for v, r in enumerate(g.rows)] + [mask]
            if any(
                rows[v].bit_count() > d and not (connected_only and _splits(rows, v))
                for v in range(k)
            ):
                continue
            out.add(canonical_form(Graph(k + 1, tuple(rows))))
    return sorted(out)


def _write_checkpoint(path: Path, state: dict) -> None:
    """Write a synced temp file beside `path`, then rename it over `path`:
    a failed write leaves the previous checkpoint whole."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(state, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def enumerate_graphs(spec: EnumSpec, checkpoint: str | None = None) -> Iterator[Graph]:
    """Yield one canonical representative per isomorphism class.

    Emits nonregular graphs whose maximum degree equals spec.max_degree
    exactly (connected unless the flag is off), in a deterministic order.
    A checkpoint file, when given, persists the per-level frontier so an
    interrupted run resumes at the completed level.
    """
    start_level = 1
    codes = [canonical_form(Graph.build(1, []))]
    if checkpoint:
        path = Path(checkpoint)
        if path.exists():
            state = json.loads(path.read_text())
            if (
                state.get("n") == spec.n
                and state.get("max_degree") == spec.max_degree
                and state.get("connected", True) == spec.require_connected
            ):
                start_level = state["level"]
                codes = [c.encode("ascii") for c in state["codes"]]
    for level in range(start_level, spec.n):
        codes = _level_up(codes, spec.max_degree, spec.require_connected)
        if checkpoint:
            _write_checkpoint(
                Path(checkpoint),
                {
                    "n": spec.n,
                    "max_degree": spec.max_degree,
                    "connected": spec.require_connected,
                    "level": level + 1,
                    "codes": [c.decode("ascii") for c in codes],
                },
            )
    for code in codes:
        g = graph6_decode(code.decode("ascii"))
        degs = g.degrees()
        if min(degs) == max(degs) or max(degs) != spec.max_degree:
            continue
        if spec.require_connected and not g.is_connected():
            continue
        yield g


def extremal_search(spec: EnumSpec) -> ExtremalReport:
    """All isomorphism classes attaining the maximum spectral radius.

    Every class within 1e-7 of the float maximum is re-examined exactly
    through the integer characteristic polynomial of its adjacency matrix,
    and the exact maximum is taken among them, so the reported maximizer
    set contains exactly the classes whose spectral radius equals the
    maximum as a real algebraic number, whatever the float order.
    """
    best: list[tuple[float, Graph]] = []
    rho_max = float("-inf")
    total = 0
    for g in enumerate_graphs(spec):
        total += 1
        rho = spectral_radius(g)
        if rho > rho_max:
            rho_max = rho
        best.append((rho, g))
    if not best:
        return ExtremalReport([], float("nan"), 0)
    # the exact maximum over every class within float reach of the float one
    top = None
    maximizers = []
    for r, g in best:
        if r < rho_max - 1e-7:
            continue
        poly = char_poly(g.adjacency())
        order = 1 if top is None else compare_max_real_roots(poly, top)
        if order > 0:
            top, maximizers = poly, [g]
        elif order == 0:
            maximizers.append(g)
    maximizers.sort(key=canonical_form)
    return ExtremalReport(maximizers, rho_max, total)

