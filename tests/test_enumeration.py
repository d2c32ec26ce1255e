import hashlib
import itertools
import json
import os
from dataclasses import replace

import networkx as nx
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

import specmax.enumeration as enumeration
from specmax.enumeration import EnumSpec, enumerate_graphs, extremal_search
from specmax.families import build_g
from specmax.graphs import CapabilityError, Graph, canonical_form, components, graph6_decode, graph6_encode
from specmax.spectral import perron, spectral_radii
from specmax.suites import maximizer_verdicts

# sha256 of the sorted level lists of EnumSpec(8, 6), levels 2..8, one code
# per line; level 8 holds the 10,073 connected graphs of order 8 with
# maximum degree <= 6
LEVELS_8_6 = [
    "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    "5966edf890849db6cb03626431916231a81a30c9db9a4781a4a8f2e5dc7e6129",
    "b0024cb6b9eb3ef85ae992cd8b602640c1806b2e8f7e7a2cf8c6d7ab7603aee5",
    "acf6fe668c55241c00d0e6c094ccee87bfd823cffeee2dcfe94c08d3e4ae84a1",
    "324241b733f99ff10ef55653a3ea097a0fc57814490950d5cd464c83a3263100",
    "9baf595cc7ef2ce9e1ac64ffac689895b5f6846267f2a90dd0e981d8eeeb5876",
    "d20b70fc463d1b7bfe6363f7d542d16e9036676d47677aac8d49c77b3b4b285f",
]

# sha256 of the lines `enumerate --emit` writes for every (n, cap) with
# 3 <= n <= 8, in that order: 12,080 canonical forms
EMITTED_3_8 = "9f83f6807ee495e6be8cbe29159ae809945190acf52a4a6d272b88b3ecfe0279"


def brute_force_classes(n, max_degree):
    """Direct enumeration over all labeled graphs (oracle for small n)."""
    classes = set()
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = Graph.build(n, edges)
        if not g.is_connected():
            continue
        degs = g.degrees()
        if max(degs) != max_degree or min(degs) == max(degs):
            continue
        classes.add(canonical_form(g).decode())
    return classes


class TestEnumerate:
    def test_path_only_at_n4_d2(self):
        got = list(enumerate_graphs(EnumSpec(4, 2)))
        assert len(got) == 1
        assert graph6_decode(got[0]).degree_sequence() == [2, 2, 1, 1]

    def test_star_present_at_n5_d4(self):
        got = list(enumerate_graphs(EnumSpec(5, 4)))
        star = Graph.build(5, [(0, i) for i in range(1, 5)])
        assert canonical_form(star).decode() in got
        for g in map(graph6_decode, got):
            degs = g.degrees()
            assert max(degs) == 4 and min(degs) < 4
            assert g.is_connected()

    def test_family_graph_present_at_n5_d3(self):
        assert canonical_form(build_g(5, 2)).decode() in enumerate_graphs(EnumSpec(5, 3))

    def test_matches_brute_force(self):
        for n in (4, 5):
            for d in range(2, n):
                got = set(enumerate_graphs(EnumSpec(n, d)))
                assert got == brute_force_classes(n, d)

    def test_matches_brute_force_n6(self):
        got = set(enumerate_graphs(EnumSpec(6, 4)))
        assert got == brute_force_classes(6, 4)

    def test_dominating_vertex_when_d_is_n_minus_1(self):
        for n in (4, 5, 6):
            got = list(enumerate_graphs(EnumSpec(n, n - 1)))
            assert got
            for line in got:
                assert max(graph6_decode(line).degrees()) == n - 1

    def test_degree_sum_even(self):
        for line in enumerate_graphs(EnumSpec(6, 3)):
            assert sum(graph6_decode(line).degrees()) % 2 == 0

    def test_deterministic_order(self):
        a = list(enumerate_graphs(EnumSpec(6, 4)))
        b = list(enumerate_graphs(EnumSpec(6, 4)))
        assert a == b == sorted(a)

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            EnumSpec(10, 5)
        with pytest.raises(ValueError):
            EnumSpec(5, 5)

    @pytest.mark.parametrize("previous", ["finished", "[1, 2]"], ids=["finished", "malformed"])
    def test_existing_checkpoint_is_overwritten(self, previous, tmp_path):
        # a file already at the checkpoint path is never read: a finished
        # checkpoint or a malformed one gives way to a fresh run's bytes
        fresh, ck = tmp_path / "fresh.json", tmp_path / "frontier.json"
        full = list(enumerate_graphs(EnumSpec(6, 4)))
        assert list(enumerate_graphs(EnumSpec(6, 4), checkpoint=str(fresh))) == full
        assert json.loads(fresh.read_text())["level"] == 6
        ck.write_bytes(fresh.read_bytes() if previous == "finished" else previous.encode())
        assert list(enumerate_graphs(EnumSpec(6, 4), checkpoint=str(ck))) == full
        assert ck.read_bytes() == fresh.read_bytes()

    def test_failed_checkpoint_write_keeps_previous(self, tmp_path, monkeypatch):
        ck = tmp_path / "frontier.json"
        ck.write_bytes(b"previous")

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            list(enumerate_graphs(EnumSpec(6, 4), checkpoint=str(ck)))
        # the previous file keeps its bytes and the temp file is gone
        assert ck.read_bytes() == b"previous"
        assert list(tmp_path.iterdir()) == [ck]

    def test_degree_rule_prunes_canonical_forms(self, monkeypatch):
        # 6,430 canonical forms at (7, 5) before children were rejected by
        # degree, 1,164 before they were rejected by refined colour, 486
        # before a child was accepted by its canonical deletion
        calls = counted_searches(monkeypatch)
        assert sum(1 for _ in enumerate_graphs(EnumSpec(7, 5))) == 344
        assert len(calls) <= SEARCHES_7_5

    def test_orbit_pruning_keeps_level_lists(self, monkeypatch):
        # at (7, 5), one mask per Aut(parent) orbit gives the level lists of
        # every mask, with fewer canonical searches. Parents without their
        # generators try every mask, and then a class can come more than
        # once: the first child of each is kept
        calls = counted_searches(monkeypatch)
        pruned = [sorted(canonical_form(g) for g, _, _ in level) for level in levels(7, 5)[1:]]
        pruned_calls = len(calls)
        calls.clear()
        level, full = [((0,), ())], []
        for k in range(2, 8):
            firsts = {}
            for child, _, _ in enumeration._level_up(level, 5, False):
                firsts.setdefault(canonical_form(child), child)
            full.append(sorted(firsts))
            level = [(g.rows, ()) for g in firsts.values()]
        assert all(len(set(forms)) == len(forms) for forms in pruned)
        assert pruned == full
        assert pruned_calls < 0.7 * len(calls)

    def test_level_lists_at_8_6(self):
        # sha256 of each level's sorted canonical forms, one per line,
        # recorded before children were rejected by refined colour: the
        # colour rule and the acceptance test above the atlas keep every class
        got = []
        for level in levels(8, 6)[1:]:
            codes = sorted(canonical_form(g) for g, _, _ in level)
            got.append(hashlib.sha256(b"".join(c + b"\n" for c in codes)).hexdigest())
        assert got == LEVELS_8_6


class TestParentTables:
    """The tables `_level_up` builds once per parent decide what the built
    child would: checked against networkx on every child at (7, 5)."""

    @staticmethod
    def parents():
        """Each parent graph that `_level_up` extends on the way to (7, 5)."""
        for level in levels(7, 5)[:-1]:
            yield from (g for g, _, _ in level)

    def test_component_test_matches_articulation_points(self):
        # a child minus v is connected iff every component of g - v meets
        # the mask; a mask of two or more vertices below the largest degree
        # of a non-cut vertex of g leaves a non-cut vertex of higher degree
        # than the new one
        checked = 0
        for g in self.parents():
            k = g.n
            comps = [components(g.rows, ((1 << k) - 1) & ~(1 << v)) for v in range(k)]
            least = max([g.degree(v) for v in range(k) if len(comps[v]) == 1], default=0)
            for mask in range(1, 1 << k):
                child = Graph(k + 1, tuple([r | (mask >> v & 1) << k for v, r in enumerate(g.rows)] + [mask]))
                if child.max_degree() > 5:
                    continue
                h = nx.Graph(list(child.edges()))
                cut = set(nx.articulation_points(h))
                assert [all(c & mask for c in comps[v]) for v in range(k)] == [v not in cut for v in range(k)]
                if 2 <= mask.bit_count() < least:
                    assert any(v not in cut and h.degree(v) > mask.bit_count() for v in range(k))
                checked += 1
        assert checked > 5000

    def test_orbit_tables_map_masks_under_the_parent_group(self, monkeypatch):
        # every table `_level_up` hands to `orbit` maps masks through one
        # automorphism of the parent, and together they generate its whole
        # group, as networkx counts it
        real_level_up, real_orbit = enumeration._level_up, enumeration.orbit
        parents, seen = [], set()

        def tracked(level):
            for rows, gens in level:
                parents.append(Graph(len(rows), tuple(rows)))
                yield rows, gens

        def checked_orbit(mask, tables):
            # the first orbit a parent asks for is that of a mask; the later
            # ones may be a child's orbit of k
            g = parents[-1]
            if id(g) not in seen:
                seen.add(id(g))
                perms = [[table[1 << v].bit_length() - 1 for v in range(g.n)] for table in tables]
                for perm, table in zip(perms, tables):
                    assert sorted(perm) == list(range(g.n))
                    images = [sum(1 << perm[v] for v in range(g.n) if m >> v & 1) for m in range(1 << g.n)]
                    assert table == images
                    assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())
                h = nx.Graph(list(g.edges()))
                h.add_nodes_from(range(g.n))
                group = PermutationGroup([Permutation(perm) for perm in perms] or [Permutation(g.n - 1)])
                assert group.order() == sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            return real_orbit(mask, tables)

        monkeypatch.setattr(
            enumeration, "_level_up", lambda level, *args, **kw: real_level_up(tracked(level), *args, **kw)
        )
        monkeypatch.setattr(enumeration, "orbit", checked_orbit)
        assert sum(1 for _ in enumerate_graphs(EnumSpec(7, 5))) == 344
        assert len(seen) > 100


def levels(n, cap, *, emitted_only=False):
    """Levels 1..n as `_level_up` builds them from the one-vertex graph: per
    level, the (graph, colours, found) of each accepted child. The last level
    holds every class, as a checkpoint writes it, or with `emitted_only` the
    classes `enumerate_graphs` emits."""
    out = [[(Graph.build(1, []), [0], ([0], []))]]
    for k in range(2, n + 1):
        parents = [(g.rows, found[1]) for g, _, found in out[-1]]
        out.append(list(enumeration._level_up(parents, cap, emitted_only and k == n)))
    return out


def is_emitted(g, cap):
    """Whether `enumerate --emit` writes the class of g: nonregular, with
    maximum degree exactly `cap`."""
    degs = g.degrees()
    return min(degs) < max(degs) == cap


def counted_searches(monkeypatch):
    """The orders of the graphs `enumeration` searches, one entry per
    search: a `_search` call on a colouring that is not discrete (on a
    discrete one it returns at once)."""
    calls = []
    real = enumeration._search

    def counting(g, colors=None):
        if colors is None or len(set(colors)) < g.n:
            calls.append(g.n)
        return real(g, colors)

    monkeypatch.setattr(enumeration, "_search", counting)
    return calls


# canonical searches over every cap at each order n: 16,075 in all before
# each class was accepted once by its canonical deletion, 11,806 since. Pruning
# inside a search changes none of them, and the children searched are
# fixed by the rules of `_level_up`
SEARCHES = {3: 2, 4: 10, 5: 42, 6: 185, 7: 1128, 8: 10439}
SEARCHES_7_5 = 414
SEARCHES_8_6 = 3428


class TestEmittedOnlyRule:
    """`_level_up(..., last=True)` rejects, at the last level, the
    children that are not emitted: regular, or below the cap; no output
    may change."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_emitted_lines_match_rule_off(self, n, monkeypatch):
        specs = [EnumSpec(n, cap) for cap in range(2, n)]
        calls = counted_searches(monkeypatch)
        on = [list(enumerate_graphs(spec)) for spec in specs]
        assert len(calls) == SEARCHES[n]
        real = enumeration._level_up
        monkeypatch.setattr(
            enumeration, "_level_up", lambda level, cap, last: real(level, cap, False)
        )
        # with the rule off, every class of the last level comes out, and
        # the rule is applied here to the decoded graphs
        off = [[line for line in enumerate_graphs(spec) if is_emitted(graph6_decode(line), spec.max_degree)]
               for spec in specs]
        assert on == off

    def test_checkpoint_keeps_whole_last_level(self, tmp_path):
        # a checkpoint at level n holds all 697 classes of (7, 5), and the
        # 344 lines emitted alongside it are those of a run without one
        from specmax.cli import main

        plain, emit, ck = tmp_path / "plain.g6", tmp_path / "emit.g6", tmp_path / "frontier.json"
        base = ["enumerate", "--n", "7", "--max-degree", "5", "--emit"]
        assert main(base + [str(plain)]) == 0
        assert main(base + [str(emit), "--checkpoint", str(ck)]) == 0
        state = json.loads(ck.read_text())
        assert (state["level"], len(state["codes"])) == (7, 697)
        assert emit.read_text() == plain.read_text()
        assert len(plain.read_text().splitlines()) == 344

    def test_searches_bounded_at_8_6(self, monkeypatch):
        # 11,092 searches with every last-level child searched, 4,682 with
        # the rule, 3,428 with each class accepted once by its canonical deletion
        calls = counted_searches(monkeypatch)
        assert sum(1 for _ in enumerate_graphs(EnumSpec(8, 6))) == 3686
        assert len(calls) <= SEARCHES_8_6

    def test_oracle_above_the_atlas_at_8_7(self):
        # with cap n - 1 the cap binds at no level: the rule-off levels hold
        # every connected graph (OEIS A001349), and the emitted classes are
        # the 1,044 graphs on 7 vertices (A000088), each joined to a
        # dominating vertex, less K8; the rule's last level holds just these
        built = levels(8, 7)
        assert [len(level) for level in built] == [1, 1, 2, 6, 21, 112, 853, 11117]
        emitted = [line.encode("ascii") for line in enumerate_graphs(EnumSpec(8, 7))]
        assert len(emitted) == 1043
        parents = [(g.rows, found[1]) for g, _, found in built[6]]
        last = enumeration._level_up(parents, 7, True)
        assert sorted(canonical_form(g) for g, _, _ in last) == emitted


class TestCanonicalAugmentation:
    """`_level_up` accepts a child C exactly when its new vertex lies in the
    Aut(C)-orbit of m(C), the deletable vertex of top colour that comes
    first in C's canonical order: each class is accepted once, and nothing
    removes duplicates."""

    def test_accepted_children_are_distinct_classes(self):
        # every level of every (n, cap) with 3 <= n <= 8 holds pairwise
        # distinct canonical forms, and the sorted forms of the last levels
        # are the lines `enumerate --emit` writes for those (n, cap)
        lines = []
        for n in range(3, 9):
            for cap in range(2, n):
                for level in levels(n, cap, emitted_only=True):
                    forms = [canonical_form(g) for g, _, _ in level]
                    assert len(set(forms)) == len(forms), (n, cap)
                lines += sorted(forms)
        assert len(lines) == 12080
        assert hashlib.sha256(b"".join(c + b"\n" for c in lines)).hexdigest() == EMITTED_3_8

    def test_generators_give_the_group(self):
        # the generators each middle-level class of (8, 6) carries generate
        # its automorphism group, as networkx counts it; a class whose
        # colouring is discrete is accepted with none, and its group is trivial
        discrete = 0
        for level in levels(8, 6)[1:-1]:
            for g, colors, (_, gens) in level:
                h = nx.Graph(list(g.edges()))
                h.add_nodes_from(range(g.n))
                count = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
                group = PermutationGroup([Permutation(perm) for perm in gens] or [Permutation(g.n - 1)])
                assert group.order() == count, graph6_encode(g)
                if len(set(colors)) == g.n:
                    assert (gens, count) == ([], 1)
                    discrete += 1
        assert discrete > 100


class TestAgainstGraphAtlas:
    """networkx's graph atlas lists every graph on up to 7 vertices exactly
    once: the enumerated classes must be its connected nonregular graphs of
    that order and maximum degree, each once."""

    ATLAS = nx.graph_atlas_g()

    @pytest.mark.parametrize("n", range(3, 8))
    def test_classes_match_atlas(self, n):
        for cap in range(2, n):
            want = set()
            matched = 0
            for h in self.ATLAS:
                degs = [d for _, d in h.degree()]
                if h.number_of_nodes() != n or max(degs) != cap or min(degs) == cap or not nx.is_connected(h):
                    continue
                matched += 1
                want.add(canonical_form(Graph.build(n, h.edges())).decode())
            got = list(enumerate_graphs(EnumSpec(n, cap)))
            assert len(want) == matched
            assert len(got) == len(set(got)) == matched, (n, cap)
            assert set(got) == want, (n, cap)
            # each line is its own canonical form, and the lines ascend
            assert all(a < b for a, b in zip(got, got[1:])), (n, cap)
            assert all(canonical_form(graph6_decode(line)).decode() == line for line in got), (n, cap)


class TestExtremalSearch:
    def test_n5(self):
        rep = extremal_search(EnumSpec(5, 3))
        assert len(rep.maximizers) == 1
        assert canonical_form(rep.maximizers[0]) == canonical_form(build_g(5, 2))
        assert rep.rho_max == pytest.approx(2.85577, abs=1e-4)

    def test_n6(self):
        rep = extremal_search(EnumSpec(6, 4))
        assert len(rep.maximizers) == 1
        assert canonical_form(rep.maximizers[0]) == canonical_form(build_g(6, 2))

    def test_n7(self):
        rep = extremal_search(EnumSpec(7, 5))
        assert len(rep.maximizers) == 1
        assert canonical_form(rep.maximizers[0]) == canonical_form(build_g(7, 4))
        assert rep.maximizers[0].degree_sequence() == [5, 5, 5, 5, 5, 5, 4]

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_maximizers_are_their_own_canonical_forms(self, n):
        # run_theorem_n2 reads the maximizers' canonical forms by encoding them
        for m in extremal_search(EnumSpec(n, n - 2)).maximizers:
            assert graph6_encode(m) == canonical_form(m).decode()

    def test_exact_maximum_ignores_float_order(self, monkeypatch):
        spec = EnumSpec(6, 4)
        want = {canonical_form(g) for g in extremal_search(spec).maximizers}
        graphs = [graph6_decode(line) for line in enumerate_graphs(spec)]
        rho = {canonical_form(g): r for g, r in zip(graphs, spectral_radii(graphs))}
        top = max(rho.values())
        runner_up = max((f for f in rho if f not in want), key=rho.get)

        def swapped(g):
            # the runner-up floats to the top, the maximizers stay within 1e-7
            form = canonical_form(g)
            if form == runner_up:
                return top
            return top - 5e-8 if form in want else rho[form]

        monkeypatch.setattr(enumeration, "spectral_radii", lambda graphs: [swapped(g) for g in graphs])
        got = {canonical_form(g) for g in extremal_search(spec).maximizers}
        assert got == want

    def test_report_fields(self):
        rep = extremal_search(EnumSpec(5, 3))
        assert rep.total_classes >= len(rep.maximizers) >= 1
        assert isinstance(rep.rho_max, float)

    def test_exploratory_max_degree_n_minus_3(self):
        # no structural prediction is pinned at small orders for this
        # degree regime; just confirm the search runs and filters correctly
        rep = extremal_search(EnumSpec(7, 4))
        assert rep.maximizers
        for g in rep.maximizers:
            degs = g.degrees()
            assert max(degs) == 4 and min(degs) < 4
        assert rep.rho_max < 4


CHECKS = ("maximizer_low_clique", "maximizer_component_order", "maximizer_separation", "maximizer_degrees")


def moved(pair, v, value):
    """The Perron pair with component v of its vector set to value."""
    x = pair.vector.copy()
    x[v] = value
    return replace(pair, vector=x)


class TestStructureAudit:
    """`suites.maximizer_verdicts`: the structure of the maximizers."""

    def test_family_maximizers(self):
        for n, t in [(5, 2), (7, 4), (8, 2), (8, 4)]:
            g = build_g(n, t)
            assert [(check, ok) for check, ok, _ in maximizer_verdicts(g, perron(g))] == [
                (check, True) for check in CHECKS
            ], (n, t)

    def test_non_extremal_fails(self):
        # the check names and witness of the failure records `verify
        # theorem-n2` prints: the path's two ends are not adjacent and two
        # vertices have degree below n - 2 = 3
        p5 = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        witness = {"graph6": "DhC", "degrees": [2, 2, 2, 1, 1]}
        assert maximizer_verdicts(p5, perron(p5)) == [
            (check, ok, witness) for check, ok in zip(CHECKS, (False, True, True, False))
        ]

    def test_unequal_components_fail_component_order(self):
        # P5's low vertices 0 and 4 have the full-degree neighborhoods {1}
        # and {3}, neither inside the other, so x0 and x4 must agree within
        # 1e-9; x0 moved 1e-6 up breaks that and nothing else
        p5 = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        pair = perron(p5)
        for shift, ok in ((1e-10, True), (1e-6, False)):
            verdicts = maximizer_verdicts(p5, moved(pair, 0, pair.vector[0] + shift))
            got = [(check, holds) for check, holds, _ in verdicts]
            assert got == list(zip(CHECKS, (False, ok, True, False)))

    def test_low_component_above_a_full_degree_one_fails_separation(self):
        # vertex 0 is G(7, 4)'s one low vertex; set 1e-6 above the least
        # full-degree component, it is no longer separated from it
        g = build_g(7, 4)
        pair = perron(g)
        least_full = float(pair.vector[1:].min())
        for shift, ok in ((-1e-6, True), (1e-6, False)):
            verdicts = maximizer_verdicts(g, moved(pair, 0, least_full + shift))
            assert [(check, holds) for check, holds, _ in verdicts] == [
                (check, ok or check != "maximizer_separation") for check in CHECKS
            ]

    def test_nested_neighborhoods_order_components(self):
        # low vertices 3 (degree 2) and 6 (degree 1, pendant at 4) have the
        # full-degree neighborhoods {2, 4} and {4}: x6 may lie anywhere
        # below x3, but not more than 1e-9 above it
        g = Graph.build(7, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (4, 6)])
        pair = perron(g)
        for shift, ok in ((-1e-6, True), (1e-6, False)):
            verdicts = maximizer_verdicts(g, moved(pair, 6, pair.vector[3] + shift))
            assert ("maximizer_component_order", ok) in [(check, holds) for check, holds, _ in verdicts], shift

    def test_low_neighbor_is_not_in_the_neighborhood(self):
        # K5 less the edge 34, vertex 5 joined to 3 and 4, and 6 pendant at
        # 5: the low vertices 5 and 6 are adjacent, but only full-degree
        # neighbors count, so their neighborhoods {3, 4} and {} are nested
        # and x6 below x5 passes
        g = Graph.build(7, [(a, b) for a, b in itertools.combinations(range(5), 2) if (a, b) != (3, 4)]
                        + [(3, 5), (4, 5), (5, 6)])
        pair = perron(g)
        assert pair.vector[6] < pair.vector[5] - 1e-3
        for x6, ok in ((pair.vector[6], True), (pair.vector[5] + 1e-6, False)):
            verdicts = maximizer_verdicts(g, moved(pair, 6, x6))
            assert [(check, holds) for check, holds, _ in verdicts] == list(zip(CHECKS, (True, ok, True, False)))
