import itertools
import random

import networkx as nx
import numpy as np
import pytest

from specmax.graphs import (
    CapabilityError,
    Graph,
    Graph6ParseError,
    canonical_form,
    graph6_decode,
    graph6_encode,
    random_connected_graph,
)


def complete(n):
    return Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n):
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return Graph.build(n, [(0, i) for i in range(1, n)])


def relabeled(g, perm):
    return Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
        assert g.adjacency()[0][0] == 2

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
            assert np.array_equal(got, np.array(h.adjacency(), dtype=float))


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

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            canonical_form(complete(13))

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(complete(3).add_loops())
