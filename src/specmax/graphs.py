"""Immutable labeled graphs on vertices 0..n-1.

Adjacency is stored as one integer bitmask per vertex, loops as a separate
bitmask (a loop adds 2 to the degree and 2 to the adjacency diagonal).
Includes graph6 text I/O, a JSON form for loop-bearing graphs, and a
canonical form for small-order isomorphism tests.
"""

from __future__ import annotations

import binascii
import json
import operator
import random
from dataclasses import dataclass

import numpy as np

# the search prunes by automorphisms, so symmetric graphs stay cheap: at
# n = 12 the edgeless graph, K6,6, 6K2, 3K4 and the icosahedron each take
# under 1 ms on a 2-core machine, C12 about 3 ms, random regular graphs under 10 ms
CANONICAL_MAX_N = 12
# family graphs are built from their sparse complements, but a Perron solve
# fills a dense n x n matrix and graph6 text has n^2/12 bytes: at n = 1999
# `verify sandwich` takes about 1.3 s and 187 MB on a 2-core machine, nearly
# all of it in the eigensolve. Graph files are held to the same order,
# checked as soon as their vertex count is read.
MAX_N = 2000


def strict_int(value) -> int:
    """An integer read from outside input; bools and floats raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


class CapabilityError(Exception):
    """A request exceeds a stated capability boundary of this package."""


class Graph6ParseError(ValueError):
    """Malformed graph6 text; carries the byte offset of the offending char."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional per-vertex loop flags.

    rows[v] is the neighbor bitmask of v (bit v itself is never set);
    loops is a bitmask of vertices carrying a loop.
    """

    n: int
    rows: tuple[int, ...]
    loops: int = 0

    # -- construction -------------------------------------------------

    @staticmethod
    def build(n: int, edges) -> "Graph":
        """Build a simple loop-free graph from a vertex count and edge pairs.

        Duplicate pairs collapse; u == v or out-of-range endpoints raise.
        """
        if not 1 <= n <= MAX_N:
            raise ValueError(f"vertex count {n} outside [1, {MAX_N}]")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-edge ({u},{u}); loops only via add_loops")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def with_edges(self, add=(), remove=(), drop_loops=()) -> "Graph":
        """Return a copy with edges added/removed and loops dropped.

        Every added edge must be absent, every removed edge present, and
        every dropped loop present; violations raise ValueError.
        """
        rows = list(self.rows)
        for u, v in remove:
            if u == v or not (rows[u] >> v) & 1:
                raise ValueError(f"cannot remove absent edge ({u},{v})")
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        for u, v in add:
            if u == v:
                raise ValueError(f"cannot add self-edge ({u},{u})")
            if (rows[u] >> v) & 1:
                raise ValueError(f"cannot add present edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        loops = self.loops
        for v in drop_loops:
            if not (loops >> v) & 1:
                raise ValueError(f"cannot drop absent loop at {v}")
            loops &= ~(1 << v)
        return Graph(self.n, tuple(rows), loops)

    # -- queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int):
        row = self.rows[v]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count() + 2 * ((self.loops >> v) & 1)

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.n)]

    def degree_sequence(self) -> list[int]:
        """Degrees sorted descending, loops counting 2."""
        return sorted(self.degrees(), reverse=True)

    def max_degree(self) -> int:
        return max(self.degrees())

    def edges(self):
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield (u, v)
                row >>= 1
                v += 1

    def is_connected(self) -> bool:
        """True iff the graph has one connected component (loops ignored)."""
        full = (1 << self.n) - 1
        return reach(self.rows, 1, full) == full

    # -- derived graphs ----------------------------------------------

    def complement(self) -> "Graph":
        if self.loops:
            raise ValueError("complement is defined for loop-free graphs")
        full = (1 << self.n) - 1
        rows = tuple((full & ~self.rows[v]) & ~(1 << v) for v in range(self.n))
        return Graph(self.n, rows)

    def add_loops(self) -> "Graph":
        """Attach a loop to every vertex (raises if any loop is present)."""
        if self.loops:
            raise ValueError("graph already has loops")
        return Graph(self.n, self.rows, (1 << self.n) - 1)

    # -- matrices and serialization -----------------------------------

    def to_numpy(self) -> np.ndarray:
        """The n x n float adjacency matrix, unpacked from the row bitmasks;
        loop diagonal entries are 2."""
        return adjacency_stack([self])[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "edges": [[u, v] for u, v in self.edges()],
                "loops": [v for v in range(self.n) if (self.loops >> v) & 1],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Graph":
        """Parse the JSON form; malformed input raises ValueError."""
        data = json.loads(text)
        try:
            # a generator, so that build checks n before any edge is read
            g = Graph.build(strict_int(data["n"]), (tuple(map(strict_int, e)) for e in data["edges"]))
            loops = 0
            for v in map(strict_int, data.get("loops", [])):
                if not 0 <= v < g.n:
                    raise ValueError(f"loop vertex {v} out of range")
                loops |= 1 << v
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph JSON: {exc!r}") from None
        return Graph(g.n, g.rows, loops)


def adjacency_stack(graphs: list[Graph]) -> np.ndarray:
    """The float adjacency matrices of graphs of one order n, stacked as a
    (k, n, n) array unpacked from the row bitmasks; loop diagonal entries
    are 2."""
    n = graphs[0].n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([row.to_bytes(width, "little") for g in graphs for row in g.rows]), np.uint8)
    bits = np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little")
    mats = bits.astype(float).reshape(len(graphs), n, n)
    for mat, g in zip(mats, graphs):
        if g.loops:
            loops = [v for v in range(n) if (g.loops >> v) & 1]
            mat[loops, loops] = 2
    return mats


def reach(rows, seen: int, within: int) -> int:
    """The bitmask of the vertices reached from the vertex set `seen` by
    paths whose other vertices all lie in `within`, `seen` included;
    rows[v] is the neighbour bitmask of v."""
    frontier = seen
    while frontier:
        low = frontier & -frontier
        grown = rows[low.bit_length() - 1] & within & ~seen
        seen |= grown
        frontier = (frontier ^ low) | grown
    return seen


def components(rows, within: int) -> list[int]:
    """The vertex bitmasks of the components of the subgraph induced on `within`."""
    comps = []
    while within:
        comps.append(reach(rows, within & -within, within))
        within &= ~comps[-1]
    return comps


# -- graph6 ------------------------------------------------------------


_G6_DIGITS = bytes(range(63, 127))
# a graph6 body is the base64 of its zero-padded bits, cut before base64's own
# padding, in the digits chr(63)..chr(126) for base64's alphabet: _g6_pack writes
# it at every order, and graph6_decode reads it back with numpy
_BASE64_TO_G6 = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", _G6_DIGITS)


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise CapabilityError(f"graph6 header for n={n} not supported")


def _g6_pack(n: int, bits: str) -> bytes:
    """graph6 bytes of an n-vertex graph from its upper-triangle bits, a
    '0'/'1' string in column-major order; six bits to a byte, the last
    byte padded with zeros."""
    pad = -len(bits) % 24  # base64 packs four six-bit groups per three bytes
    data = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    return _g6_header(n) + binascii.b2a_base64(data, newline=False)[: -(-len(bits) // 6)].translate(_BASE64_TO_G6)


def graph6_encode(g: Graph) -> str:
    """Standard graph6 encoding (upper triangle, column-major, 6-bit chunks)."""
    if g.loops:
        raise ValueError("graph6 encodes loop-free graphs only")
    # column c lists rows 0..c-1, the low c binary digits of rows[c] read
    # backwards (bit c, set, keeps the leading zeros), so the columns are
    # written last to first and the whole string reversed
    rows = g.rows
    bits = "".join([bin(rows[c] & ((1 << c) - 1) | 1 << c)[3:] for c in range(g.n - 1, 0, -1)])[::-1]
    return _g6_pack(g.n, bits).decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Decode graph6 text; malformed input raises Graph6ParseError."""
    try:
        data = text.strip().encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("non-ASCII character", exc.start) from None
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)
    extended = data[0] == 126  # '~', then n in three 6-bit bytes
    if extended and len(data) >= 2 and data[1] == 126:
        raise Graph6ParseError("graph6 long-long header not supported", 1)
    if extended and len(data) < 4:
        raise Graph6ParseError("truncated graph6 extended header", len(data))
    pos = 4 if extended else 1
    n = 0
    for i in range(1 if extended else 0, pos):
        if not 63 <= data[i] <= 126:
            raise Graph6ParseError(f"invalid header byte {data[i]}", i)
        n = n << 6 | data[i] - 63
    if not 1 <= n <= MAX_N:
        raise Graph6ParseError(f"vertex count {n} outside [1, {MAX_N}]", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6ParseError(
            f"body length {len(data) - pos} != expected {nbytes} for n={n}",
            len(data),
        )
    body = data[pos:]
    bad = body.translate(None, _G6_DIGITS)
    if bad:
        i = pos + body.index(bad[0])
        raise Graph6ParseError(f"invalid body byte {data[i]}", i)
    # the 6 * nbytes - nbits padding bits are the low bits of the last byte
    if nbytes and (data[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6ParseError("nonzero padding bits", len(data) - 1)
    # the body bits fill the strict lower triangle row by row, which is
    # graph6's column-major order of the upper one; then close under transpose
    bits = np.unpackbits((np.frombuffer(body, np.uint8) - 63)[:, None] << 2, axis=1, count=6).ravel()
    m = np.zeros((n, n), bool)
    m[np.tri(n, k=-1, dtype=bool)] = bits[:nbits]
    m |= m.T
    width = (n + 7) // 8
    packed = np.packbits(m, axis=1, bitorder="little").tobytes()
    return Graph(n, tuple(int.from_bytes(packed[i : i + width], "little") for i in range(0, n * width, width)))


# -- canonical form ----------------------------------------------------


def _refined_colors(g: Graph) -> list[int]:
    """Iterated neighborhood color refinement; ids are isomorphism-invariant.

    A vertex's signature is its color and then, per class, the negated count
    of its neighbours there, as the digits of one integer in base n + 1 that
    sorts as their tuple. Each round refines the last, so the partition, and
    with it every id, is stable once the class count stops growing."""
    n, rows = g.n, g.rows
    degs = [row.bit_count() for row in rows]
    palette = {d: i for i, d in enumerate(sorted(set(degs)))}
    colors = [palette[d] for d in degs]
    while True:
        cells = [0] * len(palette)
        for v, c in enumerate(colors):
            cells[c] |= 1 << v
        sigs = []
        for sig, row in zip(colors, rows):
            for cell in cells:
                sig = sig * (n + 1) - (row & cell).bit_count()
            sigs.append(sig)
        count = len(palette)
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(palette) == count:
            return colors
        colors = [palette[s] for s in sigs]


def _search(g: Graph, colors: list[int] | None = None) -> tuple[list[int], list[list[int]]]:
    """An ordering of g's vertices that gives the canonical matrix (see
    `canonical_form`), and generators of Aut(g): the twin swaps it starts
    from and, per leaf whose string equals the best one, the map from the
    best ordering to the leaf's. `colors`, when given, is `_refined_colors(g)`.

    These generate Aut(g). The leaves with the minimal string are the
    images of the first one under Aut(g), which acts freely on them. Each is
    reached, giving a generator, or lies in a pruned subtree, the image of a
    searched one under a known automorphism; so all are images of the first
    under the group the generators generate, which is then all of Aut(g).
    """
    if g.loops:
        raise ValueError("canonical forms are defined for loop-free graphs")
    if g.n > CANONICAL_MAX_N:
        raise CapabilityError(f"canonical_form capped at n={CANONICAL_MAX_N}")
    n, rows = g.n, g.rows
    if colors is None:
        colors = _refined_colors(g)
    if len(set(colors)) == n:  # discrete: the search would follow one path
        return sorted(range(n), key=colors.__getitem__), []
    pos_color = sorted(colors)
    cells = [[v for v in range(n) if colors[v] == c] for c in range(max(colors) + 1)]
    best: list[int] = []
    best_path: list[int] = []
    path: list[int] = []
    gens: list[list[int]] = []
    twin: dict[int, int] = {}
    for v, row in enumerate(rows):
        for key in (row, row | 1 << v):  # twins share an open or a closed neighbourhood
            if key in twin:
                gens.append([{v: twin[key], twin[key]: v}.get(u, u) for u in range(n)])
            twin[key] = v
    changes = 0  # appends to, and decreases of, `best`
    # a leaf's string equals the best leaf's iff `best` has not changed
    # since that leaf: any change is followed by its own leaf
    best_changes = -1

    def dfs(p: int, used: int, chunk: list[int]) -> int:
        """Search below the prefix `path`; return the depth to unwind to."""
        nonlocal changes, best_changes
        if p == n:
            if changes != best_changes:
                best_changes = changes
                best_path[:] = path
                return n
            gens.append([b for _, b in sorted(zip(best_path, path))])
            return next(i for i in range(n) if path[i] != best_path[i])
        tried = 0
        fixing, known = [], 0  # those of gens[:known] that fix `path` pointwise
        for ch, v in sorted([(chunk[v], v) for v in cells[pos_color[p]] if not used >> v & 1]):
            if p > 0:
                if len(best) < p:
                    best.append(ch)
                    changes += 1
                elif ch > best[p - 1]:
                    break
                elif ch < best[p - 1]:
                    best[p - 1] = ch
                    del best[p:]
                    changes += 1
            if tried and known < len(gens):
                fixing, known = [perm for perm in gens if all(perm[u] == u for u in path)], len(gens)
            if tried and fixing and any(tried >> w & 1 for w in orbit(v, fixing)):
                continue
            tried |= 1 << v
            path.append(v)
            row = rows[v]
            back = dfs(p + 1, used | 1 << v, [c << 1 | (row >> w & 1) for w, c in enumerate(chunk)])
            path.pop()
            if back < p:
                return back
        return n

    dfs(0, 0, [0] * n)
    return best_path, gens


def orbit(point: int, maps) -> set[int]:
    """The orbit of `point` under the group that `maps` generate, each map
    the list of the images of 0, 1, 2, ...: a vertex under permutations, or
    a vertex subset, as a bitmask, under their tables of subset images."""
    found, todo = {point}, [point]
    while todo:
        x = todo.pop()
        grown = {image[x] for image in maps} - found
        found |= grown
        todo += grown
    return found


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic (n <= 12).

    Computes the lexicographic minimum of the column-major upper-triangle
    adjacency bit string over the vertex orderings that list the refined
    color classes in canonical order (refinement is isomorphism-equivariant
    with label-free class ids, so the minimum is a complete invariant).

    The search places one vertex per position and cuts a prefix whose
    columns exceed the best. Two leaves with one string give an
    automorphism, the map from one ordering to the other, and it maps each
    ordering to one with the same string. So a subtree that an automorphism
    maps onto a subtree already searched holds no smaller string, and two
    prunings skip such subtrees:
    - a leaf with the best string returns the search to the node where its
      path leaves the best leaf's: the map between the two fixes the common
      prefix and carries the best leaf's subtree below it onto this one;
    - at a node, a candidate in the orbit of one already tried, under the
      known automorphisms that fix the prefix pointwise, is skipped; swaps
      of twins, two vertices adjacent to the same others, are known at once.
    The minimum is therefore the one the full search gives.
    The result is packed as graph6 bytes, so the canonical labeling can be
    decoded back with graph6_decode.
    """
    return _ordered_code(g, _search(g)[0])


def _ordered_code(g: Graph, order: list[int]) -> bytes:
    """The graph6 bytes of g with vertex order[p] relabelled p: its
    canonical form when `order` is the ordering `_search` returns."""
    rows = [g.rows[v] for v in order]  # column p lists rows 0..p-1
    return _g6_pack(g.n, "".join(str(rows[i] >> order[p] & 1) for p in range(1, g.n) for i in range(p)))


# -- helpers for randomized sweeps --------------------------------------


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Seeded random connected simple graph on n vertices."""
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.build(n, edges)
        if g.is_connected():
            return g
