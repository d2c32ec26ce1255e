"""Exhaustive generation of connected nonregular graphs with prescribed
order and maximum degree, and the extremal search over them; the
structure of the maximizers is checked in `suites.maximizer_verdicts`.

Generation proceeds by vertex augmentation: level k holds one canonical
representative per isomorphism class of connected k-vertex graphs with
max degree <= the target.  Each level grows from the one below by McKay's
canonical deletion (its invariant half), tries one neighbourhood of the
new vertex per orbit of the parent's automorphism group, whose generators
each class carries from its search, and removes the remaining duplicates
by canonical form, which keeps the level sets small (about 10^4 classes at
n=8) and the memory flat; `_level_up` states the rules and why no class is
lost.  Unless a checkpoint is written, the last level searches only the
children that can be emitted: nonregular, with maximum degree equal to the
cap.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Iterator

from .graphs import (
    CapabilityError,
    Graph,
    _refined_colors,
    canonical_search,
    components,
    graph6_decode,
    graph6_encode,
    orbit,
)
from .intpoly import char_poly, compare_max_real_roots
from .spectral import ROUND, spectral_radii

EXHAUSTIVE_MAX_N = 9


@dataclass(frozen=True)
class EnumSpec:
    n: int
    max_degree: int

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


def _level_up(
    level: dict[bytes, tuple[bytes, ...]], cap: int, last: bool, *, emitted_only: bool = False
) -> dict[bytes, tuple[bytes, ...]] | set[bytes]:
    """Extend every canonical k-vertex class by one attached vertex.

    `level` maps each class's canonical code to generators of its
    automorphism group in canonical labels; so does the result, unless
    `last`, when it is the set of the children's codes alone.

    The new vertex k attaches to a nonempty mask of the connected parent g,
    so every child is connected.  A vertex is deletable if it is not a cut
    vertex, i.e. removing it keeps the graph in the previous level.  A child
    is kept, and searched, only if no deletable vertex has a higher refined
    colour (`_refined_colors`) than k.  Colour ids are label-free and their
    order refines the degree order (the first palette is the sorted degrees,
    and every later one sorts by the previous colour first), so a child with
    a deletable vertex of higher degree than k is rejected before its
    colours are computed, and they are handed to the search.  No class is
    lost: take a deletable vertex w of maximum colour in a class C; C - w
    lies in the previous level, and its representative plus w's
    neighbourhood, carried over by the isomorphism, is a child isomorphic to
    C (k playing w) that passes the test and every cap check.  A mask is
    tried only if no mask in its orbit under Aut(g) was: an automorphism γ
    extended by k -> k maps the child of a mask onto the child of its image,
    and since γ preserves colours, cut vertices and the cap, every mask of
    an orbit passes the tests or none does.  The set of canonical forms
    removes the remaining duplicates, so the level lists depend on neither
    rule.

    Each parent's tables decide the degree and cut-vertex tests before a
    child is built: its degrees are g's plus the mask bits, and v is not
    its cut vertex iff every component of g - v meets the mask.  A non-cut
    vertex of g stays deletable, its degree not lower, in every child whose
    mask has two vertices or more, so such a mask smaller than the largest
    degree of one is rejected at once.  Each test keeps its verdict, and a
    search's twin seeds change neither its code nor the group its generators
    generate, so the same children are searched; each class keeps the
    generators of the first search that found it.

    With `last` and `emitted_only`, a child whose maximum degree is below
    `cap` or which is regular is rejected before its cut vertices, colours
    and search: `enumerate_graphs` would drop its class.  No emitted class
    is lost: every mask of an orbit gives the same degree multiset, and the
    child found above for a class C is isomorphic to C, so has its degrees.
    """
    out: dict[bytes, tuple[bytes, ...]] | set[bytes] = set() if last else {}
    for code, gens in level.items():
        g = graph6_decode(code.decode("ascii"))
        k = g.n
        done: set[int] = set()  # the Aut(g) orbits of the masks tried
        # per generator, the image of every mask: entry m is the image of m
        tables = [reduce(lambda t, w: t + [m | 1 << w for m in t], perm, [0]) for perm in gens]
        degs = [row.bit_count() for row in g.rows]
        comps = [components(g.rows, ((1 << k) - 1) & ~(1 << v)) for v in range(k)]  # the components of g - v
        least = max([degs[v] for v in range(k) if len(comps[v]) == 1], default=0)
        # subsets that keep every degree within the cap
        blocked = sum(1 << v for v in range(k) if degs[v] + 1 > cap)
        for mask in range(1, 1 << k):
            d = mask.bit_count()
            if mask & blocked or d > cap or 2 <= d < least or mask in done:
                continue
            cdeg = [a + (mask >> v & 1) for v, a in enumerate(degs)]  # the child's degrees
            if last and emitted_only and (max(cdeg) < cap and d < cap or cdeg.count(d) == k):
                continue
            if any(cdeg[v] > d and all(c & mask for c in comps[v]) for v in range(k)):
                continue
            done |= orbit(mask, tables)
            child = Graph(k + 1, tuple([r | (mask >> v & 1) << k for v, r in enumerate(g.rows)] + [mask]))
            colors = _refined_colors(child)
            if any(colors[v] > colors[k] and cdeg[v] == d and all(c & mask for c in comps[v]) for v in range(k)):
                continue
            form, child_gens = canonical_search(child, colors)
            if last:
                out.add(form)
            else:
                out.setdefault(form, child_gens)
    return out


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


def _resume(state, spec: EnumSpec) -> tuple[int, dict[bytes, tuple[bytes, ...]]] | None:
    """The level of a checkpoint and its codes, each mapped to the
    automorphism group generators of the search that validates it, or None
    if it was written for another spec; a malformed one raises ValueError.
    The codes must be distinct canonical forms: at level n they are emitted
    as they stand."""
    if not isinstance(state, dict):
        raise ValueError("checkpoint is not a JSON object")
    if (state.get("n"), state.get("max_degree"), state.get("connected", True)) != (
        spec.n, spec.max_degree, True
    ):
        return None
    level, codes = state.get("level"), state.get("codes")
    if type(level) is not int or not 1 <= level <= spec.n:
        raise ValueError(f"checkpoint level {level!r} outside [1, {spec.n}]")
    if not isinstance(codes, list) or not codes or not all(isinstance(c, str) for c in codes):
        raise ValueError("checkpoint codes are not a nonempty list of graph6 strings")
    if len(set(codes)) != len(codes):
        raise ValueError("checkpoint codes repeat a graph")
    resumed = {}
    for c in codes:
        g = graph6_decode(c)
        if (g.n != level or g.max_degree() > spec.max_degree or not g.is_connected()
                or (found := canonical_search(g))[0] != c.encode("ascii")):
            raise ValueError(f"checkpoint code {c!r} is not the canonical form of a level-{level} graph")
        resumed[found[0]] = found[1]
    return level, resumed


def enumerate_graphs(spec: EnumSpec, checkpoint: str | None = None) -> Iterator[Graph]:
    """Yield one canonical representative per isomorphism class.

    Emits connected nonregular graphs whose maximum degree equals
    spec.max_degree exactly, in a deterministic order.
    A checkpoint file, when given, persists the per-level frontier so an
    interrupted run resumes at the completed level; one written for this
    spec that does not hold a level's graphs raises ValueError.
    """
    start_level = 1
    # the one-vertex graph is its own canonical form, with a trivial group
    codes = {graph6_encode(Graph.build(1, [])).encode("ascii"): ()}
    if checkpoint and Path(checkpoint).exists():
        resumed = _resume(json.loads(Path(checkpoint).read_text()), spec)
        if resumed:
            start_level, codes = resumed
    for level in range(start_level, spec.n):
        codes = _level_up(codes, spec.max_degree, level + 1 == spec.n, emitted_only=not checkpoint)
        if checkpoint:
            _write_checkpoint(
                Path(checkpoint),
                {
                    "n": spec.n,
                    "max_degree": spec.max_degree,
                    "connected": True,
                    "level": level + 1,
                    "codes": sorted(c.decode("ascii") for c in codes),
                },
            )
    # the sorted list alone outlives this line: the last level's set is
    # freed before its graphs are built
    codes = sorted(codes)
    for code in codes:
        g = graph6_decode(code.decode("ascii"))
        degs = g.degrees()
        if min(degs) == max(degs) or max(degs) != spec.max_degree:
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
    # the classes within 1e-7 of the running float maximum
    best: list[tuple[float, Graph]] = []
    rho_max = float("-inf")
    total = 0
    graphs = enumerate_graphs(spec)
    while batch := list(islice(graphs, ROUND)):
        total += len(batch)
        for g, rho in zip(batch, spectral_radii(batch)):
            if rho > rho_max:
                rho_max = rho
                best = [(r, h) for r, h in best if r >= rho_max - 1e-7]
            if rho >= rho_max - 1e-7:
                best.append((rho, g))
    if not best:
        return ExtremalReport([], float("nan"), 0)
    # the exact maximum over every class within float reach of the float one
    top = None
    maximizers = []
    for _, g in best:
        poly = char_poly(g.to_numpy().astype(int))
        order = 1 if top is None else compare_max_real_roots(poly, top)
        if order > 0:
            top, maximizers = poly, [g]
        elif order == 0:
            maximizers.append(g)
    # the maximizers are canonical representatives: their graph6 lines are
    # their canonical forms
    maximizers.sort(key=graph6_encode)
    return ExtremalReport(maximizers, rho_max, total)

