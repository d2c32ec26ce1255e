import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from specmax import families
from specmax.families import build_family, build_g, g_partition, profile_family_partition
from specmax.graphs import Graph, adjacency_stack, random_connected_graph
from specmax.partition import QuotientSpec, quotient
from specmax.spectral import perron, quotient_radii, spectral_radii
from specmax.suites import failure_records, random_partition_cases

from graph_shapes import adjacency_lists
from quotient_inputs import bound_verdicts, family_verdicts


def complete(n):
    return Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n):
    return Graph.build(n, [(0, i) for i in range(1, n)])


def looped_verdicts(g, cells):
    return family_verdicts(g, cells, *spectral_radii([g, g.add_loops()]))


def family_cases():
    """The family graphs of the lemma sweep at n = 8..16, each with its
    documented partition."""
    cases = []
    for n in range(8, 17):
        cases.append((build_g(n, 2), g_partition(n, 2)))
        for tag in ("h1",) if n % 2 == 0 else ("h2", "g21"):
            cases.append((build_family(tag, n), profile_family_partition(tag, n)))
    return cases


class TestQuotient:
    def test_single_cell_complete(self):
        spec = quotient(complete(4), [[0, 1, 2, 3]])
        assert spec.equitable
        assert spec.matrix == ((Fraction(3),),)

    def test_star_two_cells(self):
        spec = quotient(star(4), [[0], [1, 2, 3]])
        assert spec.equitable
        assert spec.matrix == ((0, 3), (1, 0))
        assert quotient_radii([spec])[0] == pytest.approx(math.sqrt(3), abs=1e-10)

    def test_family_three_cells(self):
        for n, t in [(7, 4), (9, 6), (12, 2)]:
            spec = quotient(build_g(n, t), g_partition(n, t))
            assert spec.equitable
            assert spec.matrix == families._FORMS["A_delta"](n, t)[0]

    def test_discrete_partition_is_adjacency(self):
        rng = random.Random(4)
        g = random_connected_graph(rng, 7, 0.5)
        spec = quotient(g, [[v] for v in range(7)])
        assert [list(row) for row in spec.matrix] == adjacency_lists(g)
        assert spec.equitable

    def test_invalid_partitions_rejected(self):
        g = complete(3)
        with pytest.raises(ValueError):
            quotient(g, [[0, 1]])
        with pytest.raises(ValueError):
            quotient(g, [[0, 1, 2], [2]])
        with pytest.raises(ValueError):
            quotient(g, [[0, 1, 2], []])

    def test_fractional_entries_when_inequitable(self):
        p3 = Graph.build(3, [(0, 1), (1, 2)])
        spec = quotient(p3, [[0, 1, 2]])
        assert not spec.equitable
        assert spec.matrix[0][0] == Fraction(4, 3)
        assert (spec.counts, spec.sizes) == (((4,),), (3,))


def oracle_cases():
    """Random partitions at several seeds, the family partitions with and
    without a loop at every vertex, and the one-cell and all-singleton
    partitions of a few of these graphs."""
    cases = [case for seed in (0, 7, 31, 2024) for case in random_partition_cases(random.Random(seed), 60)]
    family = family_cases()
    cases += family + [(g.add_loops(), cells) for g, cells in family]
    for g, _ in cases[::25]:
        cases += [(g, [list(range(g.n))]), (g, [[v] for v in range(g.n)])]
    return cases


class TestQuotientOracle:
    """`quotient`'s integer counts, cell sizes and equitability flag against
    numpy on the adjacency matrix read edge by edge, loops counting 2 on the
    diagonal: with P the 0/1 cell indicator, counts = P^T A P, sizes are the
    column sums of P, and the partition is equitable exactly when the rows
    of A P are constant on each cell."""

    def test_counts_sizes_and_equitable_match_numpy(self):
        cases = oracle_cases()
        for g, cells in cases:
            a = np.array(adjacency_lists(g), dtype=np.int64)
            p = np.zeros((g.n, len(cells)), dtype=np.int64)
            for j, cell in enumerate(cells):
                p[cell, j] = 1
            ap = a @ p
            spec = quotient(g, cells)
            assert spec.counts == tuple(map(tuple, (p.T @ ap).tolist())), (g, cells)
            assert spec.sizes == tuple(p.sum(axis=0).tolist()), (g, cells)
            assert spec.equitable == all((ap[cell] == ap[cell[0]]).all() for cell in cells), (g, cells)
            assert spec.matrix == tuple(
                tuple(Fraction(c, s) for c in row) for row, s in zip(spec.counts, spec.sizes)
            )
        # both verdicts of the flag occur, and a partition with loops
        assert {quotient(g, cells).equitable for g, cells in cases} == {True, False}
        assert any(g.loops for g, _ in cases)


class TestQuotientRadii:
    def test_stacked_radii_are_bit_for_bit_each_spec_alone(self):
        # a shuffled mix of cell counts from 1 to 10, so that each stacked
        # call mixes specs that come from far apart in the input
        specs = [quotient(g, cells) for g, cells in oracle_cases()]
        random.Random(5).shuffle(specs)
        assert len({len(spec.sizes) for spec in specs}) >= 8
        for spec, rho in zip(specs, quotient_radii(specs)):
            alone = np.array([[float(Fraction(c, s)) for c in row] for row, s in zip(spec.counts, spec.sizes)])
            assert rho == float(np.max(np.abs(np.linalg.eigvals(alone)))), spec
            assert quotient_radii([spec])[0] == rho

    def test_empty_input(self):
        assert quotient_radii([]) == []

    def test_order_of_the_input_is_kept(self):
        star, triangle = QuotientSpec(((0, 3), (3, 0)), (1, 3), True), QuotientSpec(((6,),), (3,), True)
        assert quotient_radii([star, triangle, star]) == pytest.approx([math.sqrt(3), 2, math.sqrt(3)], abs=1e-12)


class TestQuotientBound:
    def test_equitable_equality(self):
        g = build_family("h1", 8)
        verdicts = bound_verdicts(g, profile_family_partition("h1", 8), perron(g))
        assert [(check, ok) for check, ok, _ in verdicts] == [
            ("quotient_bound", True),
            ("quotient_equitable_equality", True),
        ]

    def test_single_cell_average_degree(self):
        g = star(5)
        cells = [[0, 1, 2, 3, 4]]
        assert quotient_radii([quotient(g, cells)])[0] == pytest.approx(8 / 5, abs=1e-12)
        # the check names and witness of the failure records `verify lemmas`
        # prints
        witness = "Ds_ [[0, 1, 2, 3, 4]]"
        assert bound_verdicts(g, cells, perron(g)) == [
            ("quotient_bound", True, witness),
            ("quotient_bound_strict", True, witness),
        ]

    def test_rho_moved_past_the_bound_fails(self):
        # negative controls, rho 1e-6 the wrong way: on an equitable
        # partition rho(G) = rho(B) (test_equitable_equality), so a pair
        # 1e-6 low fails the bound and 1e-6 either way fails the equality
        g, cells = build_family("h1", 8), profile_family_partition("h1", 8)
        pair = perron(g)
        for shift, want in [
            (-1e-6, [("quotient_bound", False), ("quotient_equitable_equality", False)]),
            (1e-6, [("quotient_bound", True), ("quotient_equitable_equality", False)]),
        ]:
            verdicts = bound_verdicts(g, cells, replace(pair, rho=pair.rho + shift))
            assert [(check, ok) for check, ok, _ in verdicts] == want, shift

    def test_rho_moved_past_rho_b_fails_strict(self):
        # the star as one cell is inequitable with a Perron vector far from
        # constant, so rho(G) = 2 lies well above rho(B) = 8/5; rho is put
        # 1e-6 on either side of rho(B) instead
        g, cells = star(5), [[0, 1, 2, 3, 4]]
        pair = perron(g)
        rho_b = quotient_radii([quotient(g, cells)])[0]
        for rho, want in [
            (rho_b + 1e-6, [("quotient_bound", True), ("quotient_bound_strict", True)]),
            (rho_b, [("quotient_bound", True), ("quotient_bound_strict", False)]),
            (rho_b - 1e-6, [("quotient_bound", False), ("quotient_bound_strict", False)]),
        ]:
            verdicts = bound_verdicts(g, cells, replace(pair, rho=rho))
            assert [(check, ok) for check, ok, _ in verdicts] == want, rho

    def test_random_sweep_strict_unless_cell_constant(self):
        # equality rho(G) = rho(B) happens exactly when the Perron vector is
        # constant on cells (Rayleigh-Ritz); inequitable partitions usually
        # are not, and then the gap must be strictly positive
        cases = random_partition_cases(random.Random(31), 200)
        verdicts = [v for g, cells in cases for v in bound_verdicts(g, cells, perron(g))]
        assert all(ok for _, ok, _ in verdicts)
        assert sum(check == "quotient_bound_strict" for check, _, _ in verdicts) > 100

    def test_inequitable_equality_cases_exist(self):
        # the bound's equality case is the cell-constant Perron vector, not
        # equitability: a path quotient by {end},{end},{middles} ties exactly
        p4 = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        spec = quotient(p4, [[0], [3], [1, 2]])
        assert not spec.equitable
        assert quotient_radii([spec])[0] == pytest.approx(perron(p4, 1e-12).rho, abs=1e-12)

    def test_regular_graph_any_partition_ties(self):
        c5 = Graph.build(5, [(i, (i + 1) % 5) for i in range(5)])
        spec = quotient(c5, [[0, 1], [2, 3, 4]])
        assert not spec.equitable
        assert quotient_radii([spec])[0] == pytest.approx(2, abs=1e-12)

    def test_equitable_eigenvalues_contained(self):
        cases = [
            (build_family("h2", 11), profile_family_partition("h2", 11)),
            (build_family("h1", 12), profile_family_partition("h1", 12)),
            (build_g(9, 4), g_partition(9, 4)),
        ]
        for g, cells in cases:
            spec = quotient(g, cells)
            assert spec.equitable
            b_eigs = np.linalg.eigvals(np.array(spec.matrix, dtype=float))
            a_eigs = np.linalg.eigvals(adjacency_stack([g])[0])
            for be in b_eigs:
                assert min(abs(a_eigs - be)) < 1e-8

    def test_regular_quotient_rho_is_degree(self):
        c6 = Graph.build(6, [(i, (i + 1) % 6) for i in range(6)])
        spec = quotient(c6, [[0, 2, 4], [1, 3, 5]])
        assert spec.equitable
        assert quotient_radii([spec])[0] == pytest.approx(2, abs=1e-12)


class TestLoopShift:
    def test_triangle_single_cell(self):
        assert all(ok for _, ok, _ in looped_verdicts(complete(3), [[0, 1, 2]]))

    def test_family_partitions(self):
        cases = [(build_g(7, 4), g_partition(7, 4)), (build_family("h2", 9), profile_family_partition("h2", 9))]
        for g, cells in cases:
            assert [(check, ok) for check, ok, _ in looped_verdicts(g, cells)] == [
                ("family_equitable", True),
                ("family_quotient_rho", True),
                ("loop_shift", True),
            ]

    def test_inequitable_rejected(self):
        # P3 as one cell: neither it nor the looped P3 is equitable, and the
        # average degree 4/3 falls short of rho = sqrt(2)
        p3 = Graph.build(3, [(0, 1), (1, 2)])
        failures = failure_records(3, looped_verdicts(p3, [[0, 1, 2]]))
        assert failures == [
            {"check": check, "n": 3, "witness": "Bg [[0, 1, 2]]"}
            for check in ("family_equitable", "family_quotient_rho", "loop_shift")
        ]
