"""Exhaustive generation of connected nonregular graphs with prescribed
order and maximum degree, and the extremal search over them; the
structure of the maximizers is checked in `suites.maximizer_verdicts`.

Generation follows McKay's canonical construction path (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): level k
holds one representative per class of connected k-vertex graphs with max
degree <= the target, in the labels it was built in, with generators of its
automorphism group.  A level grows from the one below by one neighbourhood
of the new vertex per orbit of the parent's group, and accepts a child
exactly when its new vertex is, up to automorphism, the canonical one to
delete: every class comes once, with no set of canonical forms, and most
children need no canonical search (`_level_up` says why).  Unless a
checkpoint is asked for, the last level holds only the classes that can be
emitted: nonregular, with maximum degree equal to the cap.  They are
emitted as the canonical graph6 lines the search computes.  A checkpoint
is the whole last level, written once when it is built; nothing here
reads a file.
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
    _ordered_code,
    _refined_colors,
    _search,
    canonical_form,
    components,
    graph6_decode,
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


def _level_up(level, cap: int, last: bool) -> Iterator[tuple]:
    """Extend every class of `level` by one attached vertex, and yield
    each accepted child once per isomorphism class of the next level.

    `level` lists each class as its rows and generators of its automorphism
    group, each the images of 0, 1, ... .  A child comes with its
    `_refined_colors` and `_search(child, colours)`, its canonical order and
    generators, or None at the `last` level if it needed no search.

    The new vertex k attaches to a nonempty mask of the connected parent g,
    so every child is connected.  A vertex is deletable if it is not a cut
    vertex, i.e. removing it keeps the graph in the previous level.  Let
    m(C) be the deletable vertex of top refined colour that comes first in
    the canonical order of C.  A child is accepted exactly when k lies in
    the Aut(C)-orbit of m(C) (McKay 1998).  Colour ids are label-free and
    their order refines the degree order (the first palette is the sorted
    degrees, and every later one sorts by the previous colour first), so a
    child with a deletable vertex of higher degree than k is rejected before
    its colours are computed, and one of higher colour before any search.
    If no other deletable vertex shares k's colour, k = m(C): the child is
    accepted with no search.  Otherwise one search gives the canonical order
    and the generators, so m(C) and the orbit of k.  A middle-level child is
    searched for the generators its children need, but automorphisms fix a
    discrete colouring, so then Aut(C) is trivial and `_search` returns at once.

    Each class C is accepted exactly once.  At least once: C - m(C) is
    connected and within the cap, so its class is in `level`; that
    representative plus m(C)'s neighbourhood, carried over by the
    isomorphism, is a child isomorphic to C with k playing m(C), and so is
    the child of the mask tried for that mask's orbit (below).  At most
    once: m(C) is canonical, since the canonical orders of two isomorphic
    graphs differ by an isomorphism, so two accepted children isomorphic to
    C are isomorphic by a map fixing k.  It restricts to an isomorphism of
    their parents, which are then one class of `level`, one representative,
    and maps one mask onto the other, and only one mask per orbit is tried.

    A mask is tried only if no mask in its orbit under Aut(g) was: an
    automorphism γ extended by k -> k maps the child of a mask onto the
    child of its image, and since γ preserves colours, cut vertices and the
    cap, every mask of an orbit passes the tests or none does.

    Each parent's tables decide the degree and cut-vertex tests before a
    child is built, as bitmasks over g's vertices, with no degree list per
    child.  The child's degrees are g's plus the mask bits, so with at[j]
    the vertices of degree j in g and above[j] those of degree > j, the
    child's vertices of degree d are at[d] off the mask and at[d - 1] on
    it, and those of degree > d are above[d] and at[d] on the mask.  v is
    not the child's cut vertex iff every component of g - v meets the
    mask: for a non-cut vertex of g, iff the mask holds another vertex.  So
    a non-cut vertex of g stays deletable, its degree not lower, in every
    child whose mask has two vertices or more, and such a mask smaller than
    the largest degree of one is rejected at once.

    The `last` level holds only the classes that are emitted: a child whose
    maximum degree is below `cap` or which is regular is rejected before its
    cut vertices and colours, as degrees are invariants, so every mask of an
    orbit, and every child isomorphic to a class, fares alike.  A last
    level written to a checkpoint keeps every class, so it is built with
    `last` false.
    """
    for rows, gens in level:
        k = len(rows)
        done: set[int] = set()  # the Aut(g) orbits of the masks tried
        # per generator, the image of every mask: entry m is the image of m
        tables = [reduce(lambda t, w: t + [m | 1 << w for m in t], perm, [0]) for perm in gens]
        degs = [row.bit_count() for row in rows]
        # at[j]: the vertices of degree j (j <= cap), above[j]: those of degree > j
        at, above = [0] * (cap + 1), [0] * (cap + 1)
        for v, a in enumerate(degs):
            at[a] |= 1 << v
        for j in range(cap - 1, -1, -1):
            above[j] = above[j + 1] | at[j + 1]
        comps = [components(rows, ((1 << k) - 1) & ~(1 << v)) for v in range(k)]  # the components of g - v
        # v is deletable in a child iff the mask meets every component of g - v:
        # for a non-cut vertex of g, iff the mask holds a vertex other than v
        noncut = sum(1 << v for v in range(k) if len(comps[v]) == 1)
        cuts = [(1 << v, comps[v]) for v in range(k) if len(comps[v]) != 1]
        least = max([degs[v] for v in range(k) if noncut >> v & 1], default=0)
        blocked = at[cap]  # a mask must miss them to keep every degree within the cap
        for mask in range(1, 1 << k):
            d = mask.bit_count()
            if mask & blocked or d > cap or 2 <= d < least or mask in done:
                continue
            # the vertices of degree d in the child: degree d off the mask, d - 1 on it
            same = at[d] & ~mask | at[d - 1] & mask
            # not emitted: every degree below the cap (none at cap in g, none at
            # cap - 1 on the mask, d < cap), or regular (all of g at degree d)
            if last and (d < cap and not blocked and not at[cap - 1] & mask or same == (1 << k) - 1):
                continue
            deletable = noncut if d > 1 else noncut & ~mask
            deletable |= sum([b for b, cs in cuts if all(c & mask for c in cs)])
            if deletable & (above[d] | at[d] & mask):  # one of degree > d in the child
                continue
            done |= orbit(mask, tables)
            child = Graph(k + 1, tuple([r | (mask >> v & 1) << k for v, r in enumerate(rows)] + [mask]))
            colors = _refined_colors(child)
            # the deletable vertices of k's colour or a higher one
            rivals = [v for v in range(k) if (deletable & same) >> v & 1 and colors[v] >= colors[k]]
            if any(colors[v] > colors[k] for v in rivals):
                continue
            found = _search(child, colors) if rivals or not last else None
            if rivals and next(v for v in found[0] if v == k or v in rivals) not in orbit(k, found[1]):
                continue
            yield child, colors, found


def _write_checkpoint(path: Path, spec: EnumSpec, codes: list[bytes]) -> None:
    """Write the sorted canonical forms of the last level's classes to a
    synced temp file beside `path`, then rename it over `path`: a failed
    write leaves the previous file whole."""
    state = {"n": spec.n, "max_degree": spec.max_degree, "connected": True, "level": spec.n,
             "codes": sorted(c.decode("ascii") for c in codes)}
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


def _parents(spec: EnumSpec) -> list:
    """The classes of level n - 1, as `_level_up` reads them."""
    level = [((0,), ())]  # the one-vertex graph, with a trivial group
    for _ in range(2, spec.n):
        level = [(bytes(child.rows), tuple(map(bytes, gens)))  # 8 vertices at most: a row fits a byte
                 for child, _, (_, gens) in _level_up(level, spec.max_degree, False)]
    return level


def enumerate_graphs(spec: EnumSpec, checkpoint: str | None = None) -> Iterator[str]:
    """Yield the canonical graph6 line of each isomorphism class, sorted:
    the form the generation computes, with no graph decoded or re-encoded.

    Emits connected nonregular graphs whose maximum degree equals
    spec.max_degree exactly.  Each emitted class is searched once, by its
    acceptance test or, if that needed none, for its canonical form.
    With a checkpoint path, the last level is built whole, its classes are
    written there once it is done (over any file already there, which is
    never read), and those that are not emitted are dropped here.
    """
    codes, emitted = [], []
    # the generator is the only holder of the level below, freed when it ends
    for g, colors, found in _level_up(_parents(spec), spec.max_degree, not checkpoint):
        codes.append(_ordered_code(g, (found or _search(g, colors))[0]))
        if not checkpoint or min(degs := [row.bit_count() for row in g.rows]) < max(degs) == spec.max_degree:
            emitted.append(codes[-1])
    if checkpoint:
        _write_checkpoint(Path(checkpoint), spec, codes)
    del codes  # the emitted codes alone outlive this line
    emitted.sort()
    for code in emitted:
        yield code.decode("ascii")


def extremal_search(spec: EnumSpec) -> ExtremalReport:
    """All isomorphism classes attaining the maximum spectral radius.

    The classes are read as `_level_up` builds them, and only the maximizers
    are put in canonical form.  Every class within 1e-7 of the float maximum
    is re-examined exactly through the integer characteristic polynomial of
    its adjacency matrix, and the exact maximum is taken among them, so the
    reported maximizer set contains exactly the classes whose spectral radius
    equals the maximum as a real algebraic number, whatever the float order.
    """
    # the classes within 1e-7 of the running float maximum
    best: list[tuple[float, Graph]] = []
    rho_max = float("-inf")
    total = 0
    graphs = (child for child, _, _ in _level_up(_parents(spec), spec.max_degree, True))
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
        poly = char_poly([[row >> j & 1 for j in range(g.n)] for row in g.rows])
        order = 1 if top is None else compare_max_real_roots(poly, top)
        if order > 0:
            top, maximizers = poly, [g]
        elif order == 0:
            maximizers.append(g)
    # the maximizers as canonical representatives, sorted by their forms
    maximizers = [graph6_decode(code.decode("ascii")) for code in sorted(map(canonical_form, maximizers))]
    return ExtremalReport(maximizers, rho_max, total)
