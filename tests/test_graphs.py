import itertools
import math
import random
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from specmax.graphs import (
    MAX_N,
    CapabilityError,
    Graph,
    Graph6ParseError,
    canonical_form,
    _ordered_code,
    _refined_colors,
    _search,
    components,
    graph6_decode,
    graph6_encode,
    orbit,
    random_connected_graph,
    reach,
)

from graph_shapes import adjacency_lists


def complete(n):
    return Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n):
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return Graph.build(n, [(0, i) for i in range(1, n)])


def relabeled(g, perm):
    return Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def from_nx(h):
    h = nx.convert_node_labels_to_integers(h)
    return Graph.build(h.number_of_nodes(), h.edges())


def to_nx(g):
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


ATLAS = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
SYMMETRIC_12 = {
    "edgeless": nx.empty_graph(12),
    "K6,6": nx.complete_bipartite_graph(6, 6),
    "6K2": nx.disjoint_union_all([nx.complete_graph(2)] * 6),
    "3K4": nx.disjoint_union_all([nx.complete_graph(4)] * 3),
    "C12": nx.cycle_graph(12),
    "icosahedron": nx.icosahedral_graph(),
}


@st.composite
def _labelled_pairs(draw, max_n=12):
    """A graph on at most max_n vertices and a relabelling of it."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e, bit in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if bit]
    return Graph.build(n, edges), draw(st.permutations(range(n)))


class TestBuild:
    def test_triangle(self):
        g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
        assert g.degree_sequence() == [2, 2, 2]

    def test_cycle5(self):
        assert cycle(5).degree_sequence() == [2] * 5

    def test_single_vertex(self):
        g = Graph.build(1, [])
        assert g.degree_sequence() == [0]
        assert g.is_connected()

    def test_duplicate_edges_collapse(self):
        g = Graph.build(3, [(0, 1), (1, 0), (0, 1)])
        assert list(g.edges()) == [(0, 1)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(0, 3)])

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(1, 1)])

    def test_vertex_count_range(self):
        with pytest.raises(ValueError):
            Graph.build(0, [])
        with pytest.raises(ValueError):
            Graph.build((1 << 16) + 1, [])

    def test_degree_sum_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 12), 0.4)
            if rng.random() < 0.5:
                g = g.add_loops()
            assert sum(g.degrees()) == 2 * len(list(g.edges())) + 2 * g.loops.bit_count()


class TestQueries:
    def test_star_degrees(self):
        assert star(5).degree_sequence() == [4, 1, 1, 1, 1]

    def test_connectivity(self):
        assert cycle(5).is_connected()
        assert not Graph.build(4, [(0, 1), (2, 3)]).is_connected()


def _random_graphs(seed, count, max_n=12):
    """Seeded G(n, p) graphs on 1..max_n vertices, connected or not."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.uniform(0.1, 0.6)
        yield Graph.build(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])


class TestReach:
    """`reach` and `components` against networkx: the connectivity test, a
    non-cut test and the components of induced subgraphs, which enumeration's
    `_level_up` tabulates per parent, on every atlas graph (up to 7
    vertices) and on seeded random graphs up to 12."""

    GRAPHS = [from_nx(h) for h in ATLAS] + list(_random_graphs(0, 300))

    def test_is_connected_matches_networkx(self):
        for g in self.GRAPHS:
            assert g.is_connected() == nx.is_connected(to_nx(g)), graph6_encode(g)

    def test_non_cut_test_matches_articulation_points(self):
        rng = random.Random(1)
        graphs = [g for g in self.GRAPHS if g.n > 1 and g.is_connected()]
        graphs += [random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.5)) for _ in range(200)]
        for g in graphs:
            rests = [((1 << g.n) - 1) & ~(1 << v) for v in range(g.n)]
            # seeded at the last vertex, as _level_up seeds the new one, or
            # at vertex 0 when the last one is left out
            seeds = [1 << g.n - 1] * (g.n - 1) + [1]
            non_cut = {v for v in range(g.n) if reach(g.rows, seeds[v], rests[v]) == rests[v]}
            assert non_cut == set(range(g.n)) - set(nx.articulation_points(to_nx(g))), graph6_encode(g)

    def test_components_match_networkx(self):
        rng = random.Random(3)
        for g in self.GRAPHS:
            within = rng.getrandbits(g.n)
            sub = to_nx(g).subgraph([v for v in range(g.n) if within >> v & 1])
            want = sorted(sum(1 << v for v in c) for c in nx.connected_components(sub))
            assert sorted(components(g.rows, within)) == want, graph6_encode(g)

    def test_mask_is_the_component_within(self):
        rng = random.Random(2)
        for g in self.GRAPHS[::3]:
            h = to_nx(g)
            s = rng.randrange(g.n)
            within = rng.getrandbits(g.n) | 1 << s
            sub = h.subgraph([v for v in range(g.n) if within >> v & 1])
            assert reach(g.rows, 1 << s, within) == sum(1 << v for v in nx.node_connected_component(sub, s))


class TestComplement:
    def test_complete_complement_edgeless(self):
        assert list(complete(4).complement().edges()) == []

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 10), 0.5)
            assert g.complement().complement() == g

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            complete(3).add_loops().complement()


class TestLoops:
    def test_add_loops_degrees(self):
        g = complete(3).add_loops()
        assert g.degree_sequence() == [4, 4, 4]
        assert g.to_numpy()[0, 0] == 2

    def test_double_add_rejected(self):
        with pytest.raises(ValueError):
            complete(3).add_loops().add_loops()

    def test_json_roundtrip_with_loops(self):
        g = complete(4).add_loops()
        assert Graph.from_json(g.to_json()) == g


class TestToNumpy:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 300])
    def test_matches_adjacency(self, n):
        rng = random.Random(n)
        g = Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        loops = Graph(n, g.rows, sum(1 << v for v in range(n) if rng.random() < 0.5))
        for h in (g, g.add_loops(), loops):
            got = h.to_numpy()
            assert got.dtype == np.float64 and got.shape == (n, n)
            assert np.array_equal(got, np.array(adjacency_lists(h), dtype=float))


G6_ORDERS = [*range(1, 25), 40, 62, 63, 120, 300]


class TestGraph6:
    def test_k3_is_Bw(self):
        assert graph6_encode(complete(3)) == "Bw"

    def test_roundtrip_small(self):
        rng = random.Random(1)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(1, 40), 0.3)
            assert graph6_decode(graph6_encode(g)) == g

    def test_roundtrip_extended_header(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 70, 0.1)
        text = graph6_encode(g)
        assert text.startswith("~")
        assert graph6_decode(text) == g

    def test_roundtrip_at_short_header_boundary(self):
        rng = random.Random(6)
        for n in (61, 62):
            g = random_connected_graph(rng, n, 0.2)
            text = graph6_encode(g)
            assert not text.startswith("~")
            assert graph6_decode(text) == g
        g63 = random_connected_graph(rng, 63, 0.2)
        assert graph6_encode(g63).startswith("~")

    def test_malformed_reports_offset(self):
        with pytest.raises(Graph6ParseError) as exc:
            graph6_decode("Bw" + chr(20))
        assert exc.value.offset >= 0
        with pytest.raises(Graph6ParseError):
            graph6_decode("B")  # truncated body

    def test_decode_matches_networkx_on_atlas(self):
        for h in nx.graph_atlas_g()[1:]:
            text = nx.to_graph6_bytes(h, header=False).strip()
            want = nx.from_graph6_bytes(text)
            assert graph6_decode(text.decode()) == Graph.build(want.number_of_nodes(), want.edges()), text

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 12, 61, 62, 63, 64, 300, 2000])
    def test_decode_matches_networkx_on_random_text(self, n):
        # graph6 text drawn bit by bit, so neither encoder is involved
        rng = random.Random(n)
        nbits = n * (n - 1) // 2
        bits = "".join("1" if rng.random() < 0.05 else "0" for _ in range(nbits))
        bits += "0" * (-nbits % 6)
        header = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
        text = header + "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))
        want = nx.from_graph6_bytes(text.encode())
        assert graph6_decode(text) == Graph.build(n, want.edges())

    # the writer packs four six-bit groups per base64 block, and n = 1..24
    # gives every count of groups modulo 4; 62 and 63 sit on either side of
    # the extended header
    @pytest.mark.parametrize("n", G6_ORDERS)
    def test_roundtrip_with_networkx(self, n):
        h = nx.gnp_random_graph(n, 0.5, seed=n)
        text = nx.to_graph6_bytes(h, header=False).strip()
        g = graph6_decode(text.decode())
        assert g == Graph.build(n, h.edges())
        assert graph6_encode(g).encode() == text
        back = nx.from_graph6_bytes(graph6_encode(g).encode())
        assert sorted(map(sorted, back.edges())) == sorted(map(sorted, h.edges()))

    @pytest.mark.parametrize("n", G6_ORDERS)
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.9, 1.0])
    def test_encode_matches_networkx_at_every_density(self, n, p):
        # at p = 0 and p = 1 the body is all zeros and all ones before padding
        h = nx.gnp_random_graph(n, p, seed=n)
        assert graph6_encode(from_nx(h)).encode() == nx.to_graph6_bytes(h, header=False).strip()

    def test_ordered_code_matches_networkx(self):
        # _ordered_code(g, order) writes g with vertex order[p] relabelled p
        rng = random.Random(9)
        for g in _random_graphs(8, 300):
            order = rng.sample(range(g.n), g.n)
            inverse = {v: p for p, v in enumerate(order)}
            want = nx.to_graph6_bytes(to_nx(relabeled(g, inverse)), header=False).strip()
            assert _ordered_code(g, order) == want, order

    def test_roundtrip_dense_at_the_order_cap(self):
        # networkx takes over 10 s and 350 MB to write a graph this dense,
        # so the text is made here from bits drawn in graph6 order: column
        # j lists the pairs (0, j), ..., (j - 1, j)
        n = MAX_N
        bits = np.random.default_rng(1).random(n * (n - 1) // 2) < 0.5
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        g = Graph.build(n, [pair for pair, bit in zip(pairs, bits.tolist()) if bit])
        digits = np.append(bits, np.zeros(-bits.size % 6, bool)).reshape(-1, 6) @ [32, 16, 8, 4, 2, 1]
        header = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
        text = header + (digits + 63).astype(np.uint8).tobytes().decode()
        assert graph6_decode(text) == g
        assert graph6_encode(g) == text
        assert graph6_encode(graph6_decode(text)) == text

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("Aé", "non-ASCII character", 1),
            (" \n", "empty graph6 string", 0),
            ("~~??", "graph6 long-long header not supported", 1),
            ("~", "truncated graph6 extended header", 1),
            ("~??", "truncated graph6 extended header", 3),
            (">", "invalid header byte 62", 0),
            ("~?\x14?", "invalid header byte 20", 2),
            ("~??\x7f", "invalid header byte 127", 3),
            ("?", "vertex count 0 outside [1, 2000]", 0),
            # the order cap is checked before the body is read
            ("~?~~", "vertex count 4095 outside [1, 2000]", 0),
            ("~??~", "body length 0 != expected 326 for n=63", 4),
            ("Bw\x14", "body length 2 != expected 1 for n=3", 3),
            ("Gs@\x14?K", "invalid body byte 20", 3),
            # a bad byte is reported before the padding it carries
            ("D?\x7f", "invalid body byte 127", 2),
            ("D\x14@", "invalid body byte 20", 1),
            ("D?@", "nonzero padding bits", 2),
            (" Bx\n", "nonzero padding bits", 1),
        ],
    )
    def test_parse_error_message_and_offset(self, text, message, offset):
        with pytest.raises(Graph6ParseError) as exc:
            graph6_decode(text)
        assert (str(exc.value), exc.value.offset) == (f"{message} (byte offset {offset})", offset)

    def test_non_ascii_rejected(self):
        # 'é' must not be read as '?', which is byte 63 and a valid digit
        with pytest.raises(Graph6ParseError) as exc:
            graph6_decode("Aé")
        assert exc.value.offset == 1

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            graph6_encode(complete(3).add_loops())

    def test_decoded_degrees_match(self):
        from specmax.families import build_g

        g = build_g(5, 2)
        back = graph6_decode(graph6_encode(g))
        assert back.degree_sequence() == [3, 3, 3, 3, 2]


def tuple_refined_colors(g, rounds=None):
    """Colour refinement with each signature a tuple: the colour, then the
    negated count of neighbours in each class, ids by sorted signature.
    Every signature is counted, and rounds go on until one adds no class;
    with `rounds`, the colours after at most that many rounds."""
    degs = [row.bit_count() for row in g.rows]
    palette = {d: i for i, d in enumerate(sorted(set(degs)))}
    colors = [palette[d] for d in degs]
    for _ in itertools.count() if rounds is None else range(rounds):
        cells = [sum(1 << v for v in range(g.n) if colors[v] == c) for c in range(len(palette))]
        sigs = [(c, tuple(-(row & cell).bit_count() for cell in cells)) for c, row in zip(colors, g.rows)]
        count = len(palette)
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(palette) == count:
            break
        colors = [palette[s] for s in sigs]
    return colors


def test_refined_colors_match_tuple_signatures():
    # the integer signatures give the ids the tuples give, up to n = 12
    graphs = [from_nx(h) for h in ATLAS] + list(_random_graphs(4, 500))
    graphs += [from_nx(h) for h in SYMMETRIC_12.values()] + list(TWIN_RICH.values())
    for g in graphs:
        assert _refined_colors(g) == tuple_refined_colors(g), graph6_encode(g)


class TestRefinementShortcuts:
    """`_refined_colors` stops at a discrete partition and gives a vertex
    alone in its class its colour's top signature without counting its
    neighbours; neither may change an id, whatever round the partition
    becomes discrete in."""

    def test_discrete_after_one_round(self):
        # degrees tie, and the first round separates every vertex
        graphs = [g for g in _random_graphs(38, 3000)
                  if len(set(tuple_refined_colors(g, rounds=0))) < g.n == len(set(tuple_refined_colors(g, rounds=1)))]
        assert len(graphs) > 300
        for g in graphs:
            assert _refined_colors(g) == tuple_refined_colors(g), graph6_encode(g)

    def test_one_class_short_of_discrete_is_refined_on(self):
        # a partition with n - 1 classes may still split its last pair
        graphs = [g for g in _random_graphs(39, 3000)
                  if any(len(set(tuple_refined_colors(g, rounds=r))) == g.n - 1 for r in range(3))
                  and len(set(tuple_refined_colors(g))) == g.n]
        assert len(graphs) > 100
        for g in graphs:
            assert _refined_colors(g) == tuple_refined_colors(g), graph6_encode(g)


class TestCanonicalForm:
    def test_cycle_relabelings_agree(self):
        a = cycle(5)
        b = Graph.build(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert canonical_form(a) == canonical_form(b)

    def test_path_vs_star(self):
        p4 = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        assert canonical_form(p4) != canonical_form(star(4))

    def test_all_relabelings_of_family_graph(self):
        from specmax.families import build_g

        g = build_g(5, 2)
        forms = {
            canonical_form(relabeled(g, perm))
            for perm in itertools.permutations(range(5))
        }
        assert len(forms) == 1

    def test_permutation_invariance_random(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(2, 8)
            g = random_connected_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabeled(g, perm))

    def test_decodes_to_isomorphic_graph(self):
        rng = random.Random(23)
        g = random_connected_graph(rng, 7, 0.5)
        back = graph6_decode(canonical_form(g).decode("ascii"))
        assert back.degree_sequence() == g.degree_sequence()
        assert nx.is_isomorphic(nx.Graph(list(back.edges())), nx.Graph(list(g.edges())))

    @settings(max_examples=150, deadline=None)
    @given(_labelled_pairs())
    def test_permutation_invariance_up_to_12(self, pair):
        g, perm = pair
        assert canonical_form(g) == canonical_form(relabeled(g, perm))

    def test_atlas_forms_distinct(self):
        # the atlas lists every graph on up to 7 vertices once
        rng = random.Random(4)
        forms = set()
        for h in ATLAS:
            perm = list(range(h.number_of_nodes()))
            rng.shuffle(perm)
            forms.add(canonical_form(relabeled(from_nx(h), perm)))
        assert len(forms) == len(ATLAS)

    def test_agrees_with_networkx_on_random_pairs(self):
        # the second graph of a pair is a relabelled copy of the first, with
        # one degree-preserving edge swap half of the time
        rng = random.Random(31)
        agree = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randint(5, 10)
            h = nx.gnm_random_graph(n, rng.randint(n, n * (n - 1) // 2 - n), seed=rng.randrange(1 << 30))
            k = h.copy()
            if rng.random() < 0.5:
                try:
                    nx.double_edge_swap(k, nswap=1, max_tries=1000, seed=rng.randrange(1 << 30))
                except nx.NetworkXException:  # no swap possible: k stays h
                    pass
            perm = list(range(n))
            rng.shuffle(perm)
            g1, g2 = from_nx(h), relabeled(from_nx(k), perm)
            same = nx.is_isomorphic(h, k)
            assert (canonical_form(g1) == canonical_form(g2)) == same
            agree[same] += 1
        assert min(agree.values()) > 50

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_12))
    def test_symmetric_order_12_in_bounded_time(self, name):
        g = relabeled(from_nx(SYMMETRIC_12[name]), random.Random(name).sample(range(12), 12))
        t0 = time.perf_counter()
        form = canonical_form(g)
        assert time.perf_counter() - t0 < 1
        assert nx.is_isomorphic(to_nx(graph6_decode(form.decode("ascii"))), SYMMETRIC_12[name])

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            canonical_form(complete(13))

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(complete(3).add_loops())


def group_closure(n, gens):
    """Every element of the permutation group the generators generate."""
    identity = tuple(range(n))
    group, todo = {identity}, [identity]
    while todo:
        a = todo.pop()
        for perm in gens:
            b = tuple(perm[x] for x in a)
            if b not in group:
                group.add(b)
                todo.append(b)
    return group


def group_order(n, gens):
    """The order of the permutation group the generators generate."""
    return len(group_closure(n, gens))


class TestAutomorphisms:
    """The generators `_search` returns are automorphisms of the graph it
    searched, and generate the whole group."""

    def test_generators_preserve_adjacency(self):
        rng = random.Random(9)
        graphs = [relabeled(from_nx(h), rng.sample(range(12), 12)) for h in SYMMETRIC_12.values()]
        graphs += [random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8)) for _ in range(100)]
        for g in graphs:
            order, gens = _search(g)
            assert sorted(order) == list(range(g.n))
            for perm in gens:
                assert sorted(perm) == list(range(g.n))
                assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())

    def test_group_orders_match_networkx_on_atlas(self):
        for h in ATLAS:
            want = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            g = from_nx(h)
            gens = _search(g)[1]
            assert all(g.has_edge(perm[u], perm[v]) for perm in gens for u, v in g.edges())
            assert group_order(h.number_of_nodes(), gens) == want
            # no generator is the identity, so an asymmetric graph has none
            assert (gens == []) == (want == 1)

    def test_group_orders_of_symmetric_order_12(self):
        # sympy's Schreier-Sims order against the closed forms: these groups
        # are too large to list, as networkx would have to
        want = {
            "edgeless": math.factorial(12),
            "K6,6": 2 * math.factorial(6) ** 2,
            "6K2": 2**6 * math.factorial(6),
            "3K4": math.factorial(4) ** 3 * math.factorial(3),
            "C12": 24,
            "icosahedron": 120,
        }
        for name, h in SYMMETRIC_12.items():
            g = relabeled(from_nx(h), random.Random(name).sample(range(12), 12))
            gens = _search(g)[1]
            assert all(g.has_edge(perm[u], perm[v]) for perm in gens for u, v in g.edges()), name
            assert PermutationGroup([Permutation(list(perm)) for perm in gens]).order() == want[name], name


def multipartite(*parts):
    return from_nx(nx.complete_multipartite_graph(*parts))


def pendant_twins(a, b, leaves):
    """K_{a,b} with `leaves` pendant leaves on each vertex of its a-side:
    each vertex's leaves are false twins, and leaves of two vertices share a
    refined colour without being twins."""
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    edges += [(u, a + b + u * leaves + i) for u in range(a) for i in range(leaves)]
    return Graph.build(a + b + a * leaves, edges)


def twin_classes(k3, k2):
    """A clique of k3 true twins and k2 false-twin leaves, joined through a
    path: c is adjacent to the whole clique, d to c and to every leaf."""
    c, d = k3, k3 + 1
    edges = list(itertools.combinations(range(k3), 2)) + [(v, c) for v in range(k3)] + [(c, d)]
    edges += [(d, k3 + 2 + i) for i in range(k2)]
    return Graph.build(k3 + 2 + k2, edges)


# twin-rich graphs on at most 8 vertices, and their complements below
TWIN_RICH = {
    **{f"K1,{k}": star(k + 1) for k in range(2, 8)},
    "K2,2,2": multipartite(2, 2, 2),
    "K1,2,3": multipartite(1, 2, 3),
    "K2,3,3": multipartite(2, 3, 3),
    "K1,1,3,3": multipartite(1, 1, 3, 3),
    "K3,4": multipartite(3, 4),
    "K3,3": multipartite(3, 3),
    "K2,2+2 pendant twins": pendant_twins(2, 2, 2),
    "K1,3+3 pendant twins": pendant_twins(1, 3, 3),
    "K2,1+2 pendant twins": pendant_twins(2, 1, 2),
    "K3,1+1 pendant each": pendant_twins(3, 1, 1),
    "K1,1,1,3": multipartite(1, 1, 1, 3),
    "true 3, false 2": twin_classes(3, 2),
    "true 4, false 2": twin_classes(4, 2),
    "true 2, false 3": twin_classes(2, 3),
}
TWIN_RICH.update({f"co-({name})": g.complement() for name, g in list(TWIN_RICH.items())})


def shuffled_twin_rich(name):
    g = TWIN_RICH[name]
    return relabeled(g, random.Random(name).sample(range(g.n), g.n))


def upper_bits(g, order):
    """The column-major upper-triangle adjacency bits of g listed in `order`."""
    return "".join("1" if g.has_edge(order[i], order[p]) else "0" for p in range(1, g.n) for i in range(p))


class TestTwinSeeding:
    """The search starts from the swaps of twin vertices. On graphs full of
    twins, its code is the brute-force minimum and its generators give the
    whole automorphism group."""

    @pytest.mark.parametrize("name", sorted(TWIN_RICH))
    def test_code_is_the_minimum_over_cell_orderings(self, name):
        # every ordering that lists the refined colour cells in order,
        # vertices permuted within each cell
        g = shuffled_twin_rich(name)
        colors = _refined_colors(g)
        cells = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
        want = min(
            upper_bits(g, [v for part in parts for v in part])
            for parts in itertools.product(*(itertools.permutations(cell) for cell in cells))
        )
        assert upper_bits(g, _search(g)[0]) == want
        assert upper_bits(graph6_decode(canonical_form(g).decode("ascii")), range(g.n)) == want

    @pytest.mark.parametrize("name", sorted(TWIN_RICH))
    def test_generators_give_networkx_group_order(self, name):
        g = shuffled_twin_rich(name)
        gens = _search(g)[1]
        for perm in gens:
            assert sorted(perm) == list(range(g.n))
            assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges()), perm
        h = to_nx(g)
        want = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        assert group_order(g.n, gens) == want


class TestOrbit:
    """`orbit` against the brute-force images under every group element, on
    seeded random generator sets: of vertices under the permutations, and of
    vertex subsets under their tables of subset images."""

    def test_matches_group_closure(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [rng.sample(range(n), n) for _ in range(rng.randint(0, 3))]
            group = group_closure(n, gens)
            tables = [[sum(1 << perm[v] for v in range(n) if m >> v & 1) for m in range(1 << n)] for perm in gens]
            for v in range(n):
                assert orbit(v, gens) == {a[v] for a in group}
            for mask in rng.sample(range(1 << n), min(8, 1 << n)):
                assert orbit(mask, tables) == {sum(1 << a[v] for v in range(n) if mask >> v & 1) for a in group}
