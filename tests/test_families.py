import networkx as nx
import pytest

from specmax.families import (
    ComplementProfile,
    admissible_deltas,
    build_case2,
    build_family,
    build_from_profile,
    build_g,
    g_partition,
    named_quotient,
    profile_family_partition,
)
from specmax import families
from specmax.intpoly import IntPolynomial, char_poly, max_real_root
from specmax.partition import quotient
from specmax.spectral import perron

from graph_shapes import complement_shapes


class TestBuildG:
    def test_order5(self):
        assert build_g(5, 2).degree_sequence() == [3, 3, 3, 3, 2]

    def test_order8(self):
        g = build_g(8, 4)
        assert g.degree_sequence() == [6] * 7 + [4]
        poly = named_quotient("A_delta", 8, 4)
        assert poly.coeffs == (8, -12, -4, 1)
        assert perron(g, 1e-12).rho == pytest.approx(max_real_root(poly), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_g(8, 3)  # odd block size
        with pytest.raises(ValueError):
            build_g(8, 6)  # right block would vanish
        with pytest.raises(ValueError):
            build_g(4, 2)

    def test_partition_matches_quotient(self):
        for n, t in [(6, 2), (9, 4), (15, 10)]:
            spec = quotient(build_g(n, t), g_partition(n, t))
            assert spec.equitable
            assert spec.matrix == families._FORMS["A_delta"](n, t)[0]

    def test_complement_without_low_vertex(self):
        # dropping the low vertex and complementing leaves exactly the
        # deleted matching on its neighborhood, everything else isolated
        h = nx.Graph(list(build_g(6, 2).edges()))
        assert [sorted(e) for e in nx.complement(h.subgraph(range(1, 6))).edges()] == [[1, 2]]


class TestBuildH1:
    def test_degrees(self):
        assert build_family("h1", 8).degree_sequence() == [5] * 7 + [1]

    def test_big_block_is_matched_clique(self):
        # the block's complement is the perfect matching (4, 5), (6, 7)
        assert complement_shapes(build_family("h1", 8), range(4, 8)) == [(2, 1), (2, 1)]

    def test_quotient(self):
        spec = quotient(build_family("h1", 8), profile_family_partition("h1", 8))
        assert spec.equitable
        assert spec.matrix == families._FORMS["B1"](8, 1)[0]
        assert named_quotient("B1", 8).coeffs == (6, 7, -11, -3, 1)

    def test_order60_rho(self):
        poly = named_quotient("B1", 60)
        assert poly.coeffs == (58, 111, -115, -55, 1)
        exact = max_real_root(poly)
        assert perron(build_family("h1", 60)).rho == pytest.approx(exact, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_family("h1", 9)
        with pytest.raises(ValueError):
            build_family("h1", 6)


class TestBuildH2:
    def test_degrees(self):
        assert build_family("h2", 11).degree_sequence() == [8] * 10 + [2]

    def test_quotient(self):
        spec = quotient(build_family("h2", 11), profile_family_partition("h2", 11))
        assert spec.equitable
        assert spec.matrix == families._FORMS["B2"](11, 2)[0]

    def test_order9_rho(self):
        poly = named_quotient("B2", 9)
        assert poly.coeffs == (16, 10, -13, -4, 1)
        exact = max_real_root(poly)
        assert perron(build_family("h2", 9), 1e-12).rho == pytest.approx(exact, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_family("h2", 10)
        with pytest.raises(ValueError):
            build_family("h2", 7)


class TestBuildG21:
    def test_degrees(self):
        assert build_family("g21", 9).degree_sequence() == [6] * 8 + [2]

    def test_complement_structure(self):
        # removing the low vertex and complementing leaves one 4-vertex path
        # plus (n-5)/2 disjoint edges
        for n in (9, 13):
            shapes = complement_shapes(build_family("g21", n), range(1, n))
            assert shapes == [(2, 1)] * ((n - 5) // 2) + [(4, 3)]

    def test_partition_equitable(self):
        spec = quotient(build_family("g21", 11), profile_family_partition("g21", 11))
        assert spec.equitable

    def test_below_h2(self):
        for n in (9, 11, 13):
            assert perron(build_family("g21", n)).rho < perron(build_family("h2", n)).rho


# H1(n), H2(n) and G2,1(n) as their own builders listed them before the
# three became rows of PROFILE_FAMILIES: tag -> (parity of n, least n,
# non-edges at order n, cells at order n)
HAND_WRITTEN = {
    "h1": ("even", 8,
           lambda n: [(0, v) for v in range(2, n)] + [(1, 2), (1, 3)] + [(v, v + 1) for v in range(4, n - 1, 2)],
           lambda n: [[0], [1], [2, 3], list(range(4, n))]),
    "h2": ("odd", 9,
           lambda n: [(0, v) for v in range(3, n)] + [(1, 3), (1, 4), (2, 5), (2, 6)]
           + [(v, v + 1) for v in range(7, n - 1, 2)],
           lambda n: [[0], [1, 2], [3, 4, 5, 6], list(range(7, n))]),
    "g21": ("odd", 9,
            lambda n: [(0, v) for v in range(3, n)] + [(1, 2), (1, 3), (2, 4)]
            + [(v, v + 1) for v in range(5, n - 1, 2)],
            lambda n: [[0], [1, 2], [3, 4], list(range(5, n))]),
}


def missing_pairs(g) -> set[tuple[int, int]]:
    """The pairs u < v that g does not join, read off its rows bit by bit."""
    pairs = set()
    for u, row in enumerate(g.rows):
        miss = ~row & ((1 << g.n) - 1) & ~((1 << (u + 1)) - 1)
        while miss:
            pairs.add((u, (miss & -miss).bit_length() - 1))
            miss &= miss - 1
    return pairs


class TestProfileFamilies:
    """`build_family` builds h1, h2 and g21 from their complement profiles
    with the labels of their hand-written builders, and refuses the orders
    those refused."""

    @pytest.mark.parametrize("tag", sorted(HAND_WRITTEN))
    def test_same_graphs_and_cells_as_hand_written(self, tag):
        parity, least, non_edges, cells = HAND_WRITTEN[tag]
        orders = [n for n in [*range(8, 202), 1998, 1999] if n >= least and n % 2 == least % 2]
        assert len(orders) == 98
        for n in orders:
            g = build_family(tag, n)
            assert (g.n, g.loops) == (n, 0)
            assert missing_pairs(g) == set(non_edges(n)), n
            assert profile_family_partition(tag, n) == cells(n), n

    @pytest.mark.parametrize("tag, n", [("h1", 9), ("h1", 6), ("h1", 1999), ("h1", 0),
                                        ("h2", 10), ("h2", 7), ("h2", 1998), ("g21", 8), ("g21", 7), ("g21", -1)])
    def test_refused_orders_exit_2(self, tag, n, capsys):
        from specmax.cli import main

        parity, least, _, _ = HAND_WRITTEN[tag]
        assert main(["construct", "--family", tag, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"usage error: {tag} needs {parity} n >= {least}, got {n}\n")


class TestProfiles:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            ComplementProfile(type2=(0,))
        with pytest.raises(ValueError):
            ComplementProfile(type3=(2,))
        with pytest.raises(ValueError):
            build_from_profile(9, 4, ComplementProfile(type1=1, type3=(4,)))
        with pytest.raises(ValueError):
            build_from_profile(9, 4, ComplementProfile(type1=2, type3=(3,)))
        with pytest.raises(ValueError):
            # parity: even order needs odd low degree
            build_from_profile(10, 4, ComplementProfile(type1=2, type3=(4,)))

    @pytest.mark.parametrize(
        "profile, message",
        [
            (ComplementProfile(type1=2, type3=(3,)), "profile consumes 3 interior vertices, needs delta=4"),
            (ComplementProfile(type1=1, type3=(4,)), "profile consumes 2 outer vertices, needs n-delta-1=4"),
        ],
    )
    def test_mismatch_messages(self, profile, message):
        with pytest.raises(ValueError) as exc:
            build_from_profile(9, 4, profile)
        assert str(exc.value) == message

    def test_cycle_profile(self):
        g = build_from_profile(9, 4, ComplementProfile(type1=2, type3=(4,)))
        assert g.degree_sequence() == [6] * 8 + [4]
        # the low vertex, its neighborhood and the rest
        spec = quotient(g, [[0], [1, 2, 3, 4], [5, 6, 7, 8]])
        assert spec.equitable
        assert spec.matrix == families._FORMS["B_delta"](9, 4)[0]

    def test_path_profile_complement_audit(self):
        g = build_from_profile(9, 4, ComplementProfile(type1=1, type2=(4,)))
        assert g.degree_sequence() == [6] * 8 + [4]
        assert complement_shapes(g, range(1, 9)) == [(2, 1), (6, 5)]


class TestCase2:
    def test_equal_degrees(self):
        g = build_case2(10, 4, 4, ComplementProfile(type3=(3,)))
        assert g.degree_sequence() == [7] * 8 + [4, 4]
        # {u, v}, their common neighborhood and the rest
        spec = quotient(g, [[0, 1], [2, 3, 4], [5, 6, 7, 8, 9]])
        assert spec.equitable
        assert spec.matrix == families._FORMS["B_dd"](10, 4)[0]
        assert named_quotient("B_dd", 10, 4).coeffs == (39, -17, -5, 1)

    def test_pendant(self):
        g = build_case2(10, 3, 1, ComplementProfile(type1=1))
        assert g.degree_sequence() == [7] * 8 + [3, 1]
        # v, u, the common neighborhood and the rest
        spec = quotient(g, [[1], [0], [2, 3], [4, 5, 6, 7, 8, 9]])
        assert spec.equitable
        assert spec.matrix == families._FORMS["B_d1"](10, 3)[0]

    def test_mixed_degrees(self):
        g = build_case2(12, 5, 3, ComplementProfile(type2=(2,)))
        assert g.degree_sequence() == [9] * 10 + [5, 3]

    def test_odd_difference_rejected(self):
        with pytest.raises(ValueError):
            build_case2(12, 5, 4, ComplementProfile(type2=(2,)))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10, 4, 4, ComplementProfile(type3=(4,))), "profile consumes 4 interior vertices, needs dv-1=3"),
            ((12, 3, 1, ComplementProfile(type1=2)), "profile consumes 4 outer vertices, needs du-dv=2"),
        ],
    )
    def test_mismatch_messages(self, args, message):
        with pytest.raises(ValueError) as exc:
            build_case2(*args)
        assert str(exc.value) == message


class TestNamedQuotients:
    def test_printed_values(self):
        assert named_quotient("A_delta", 7, 4).coeffs == (4, -10, -3, 1)
        assert named_quotient("B_n5", 59).coeffs == (278, 159, -169, -53, 1)
        assert named_quotient("B_dd", 10, 4).coeffs == (39, -17, -5, 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            named_quotient("A_delta", 8, 3)
        with pytest.raises(ValueError):
            named_quotient("B_delta", 10, 6)
        with pytest.raises(ValueError):
            named_quotient("B_dd", 10, 7)
        with pytest.raises(ValueError):
            named_quotient("nope", 10, 3)

    def test_fixed_delta_names_refuse_another_delta(self):
        assert named_quotient("B1", 60, 1) == named_quotient("B1", 60)
        assert named_quotient("B_n5", 60, 55) == named_quotient("B_n5", 60)
        with pytest.raises(ValueError, match=r"B1 at n=60 takes delta in \{1\}, got 7"):
            named_quotient("B1", 60, 7)
        with pytest.raises(ValueError, match=r"B_n5 at n=60 takes delta in \{55\}, got 3"):
            named_quotient("B_n5", 60, 3)
        with pytest.raises(ValueError, match=r"B_n5 at n=8 takes delta in \{\}, got 3"):
            named_quotient("B_n5", 8)

    def test_one_admissibility_test(self):
        # named_quotient takes exactly the deltas of `_admissible`, and each
        # table lists a progression within them
        for n in (8, 9, 10, 59, 60, 61):
            for which in families._FORMS:
                allowed = families._admissible(which, n)
                for d in range(-1, n + 2):
                    try:
                        named_quotient(which, n, d)
                    except ValueError:
                        assert d not in allowed, (which, n, d)
                    else:
                        assert d in allowed, (which, n, d)
                assert set(admissible_deltas(which, n)) <= set(allowed), (which, n)

    def test_named_quotient_has_no_order_cap(self):
        n = families.QUOTIENT_MAX_N + 2
        assert named_quotient("A_delta", n, 2).degree == 3
        with pytest.raises(families.CapabilityError):
            admissible_deltas("A_delta", n)

    def test_closed_forms_sample_grid(self):
        for n in (8, 13, 20, 47, 101, 200):
            for which in families._FORMS:
                for d in admissible_deltas(which, n):
                    assert char_poly(families._FORMS[which](n, d)[0]) == named_quotient(which, n, d), (which, n, d)

    def test_fixed_delta_names_have_one_delta(self):
        for n in (10, 59, 60, 61, 20000):
            assert [list(admissible_deltas(which, n)) for which in ("B1", "B2", "B_n5")] == [[1], [2], [n - 5]]
        # none below the least order: 9 for B2, 10 for B_n5
        assert [list(admissible_deltas(which, 8)) for which in ("B1", "B2", "B_n5")] == [[1], [], []]


class TestGridProof:
    """The 5 x 5 grid proves a closed form for every (n, delta) only because
    every matrix entry is affine in (n, delta): then each char_poly
    coefficient has degree <= 4 in each variable."""

    @pytest.mark.parametrize("which", sorted(families._FORMS))
    def test_matrix_entries_affine(self, which):
        form = families._FORMS[which]

        def entries(n, d):
            return [v for row in form(n, d)[0] for v in row]

        for n in range(-3, 9):
            for d in range(-3, 9):
                at = {(i, j): entries(n + i, d + j) for i in (-1, 0, 1) for j in (-1, 0, 1)}
                for k in range(len(at[0, 0])):
                    e = {key: vals[k] for key, vals in at.items()}
                    assert e[1, 0] - 2 * e[0, 0] + e[-1, 0] == 0, (which, n, d, k)
                    assert e[0, 1] - 2 * e[0, 0] + e[0, -1] == 0, (which, n, d, k)
                    assert e[1, 1] - e[1, 0] - e[0, 1] + e[0, 0] == 0, (which, n, d, k)

    @pytest.mark.parametrize("which", sorted(families._FORMS))
    def test_grid_proves_every_form(self, which):
        assert families._grid_mismatches(families._FORMS[which]) == []

    @pytest.mark.parametrize("which", sorted(families._FORMS))
    def test_grid_rejects_one_patched_coefficient(self, which):
        form = families._FORMS[which]
        for k in range(len(form(0, 0)[1])):

            def patched(n, d, k=k):
                matrix, coeffs = form(n, d)
                return matrix, coeffs[:k] + (coeffs[k] + 1,) + coeffs[k + 1 :]

            assert families._grid_mismatches(patched), (which, k)

    @pytest.mark.parametrize("which", sorted(families._FORMS))
    def test_every_form_is_quadratic_in_delta(self, which):
        assert families._cubic_points(families._FORMS[which]) == []

    def test_refuses_a_form_cubic_in_delta(self, monkeypatch):
        # delta I has the closed form (x - delta)^3, proved on the 5 x 5
        # grid, but its constant term -delta^3 is no quadratic in delta
        def cube(n, d):
            return ((d, 0, 0), (0, d, 0), (0, 0, d)), (-(d**3), 3 * d * d, -3 * d, 1)

        assert families._grid_mismatches(cube) == []
        monkeypatch.setitem(families._FORMS, "cube", cube)
        try:
            with pytest.raises(AssertionError, match="closed form of cube is not quadratic in delta"):
                families._prove_closed_form("cube")
        finally:
            families._prove_closed_form.cache_clear()

    def test_named_quotient_refuses_a_patched_form(self, monkeypatch):
        form = families._FORMS["B1"]

        def patched(n, d):
            matrix, coeffs = form(n, d)
            return matrix, (coeffs[0] + 1,) + coeffs[1:]

        monkeypatch.setitem(families._FORMS, "B1", patched)
        families._prove_closed_form.cache_clear()
        try:
            with pytest.raises(AssertionError, match="closed-form mismatch for B1"):
                named_quotient("B1", 60)
        finally:
            families._prove_closed_form.cache_clear()


class TestBuildFamily:
    def test_build(self):
        for args in [
            ("g", 8, 4),
            ("h1", 10),
            ("h2", 11),
            ("g21", 9),
            ("profile", 9, 4, ComplementProfile(type1=2, type3=(4,))),
            ("gdd", 10, 4),
            ("gd1", 10, 3),
        ]:
            assert build_family(*args).n == args[1]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError) as exc:
            build_family("k5", 5)
        assert str(exc.value) == "unknown family tag 'k5'; use one of ('g', 'h1', 'h2', 'g21', 'profile', 'gdd', 'gd1')"

    @pytest.mark.parametrize("tag", ["g", "profile", "gdd", "gd1"])
    def test_missing_delta_rejected(self, tag):
        with pytest.raises(ValueError) as exc:
            build_family(tag, 8)
        assert str(exc.value) == f"{tag} needs delta"

    def test_missing_profile_rejected(self):
        with pytest.raises(ValueError) as exc:
            build_family("profile", 9, 4)
        assert str(exc.value) == "profile needs a complement profile"

    def test_checks_in_order(self):
        from specmax.graphs import MAX_N, CapabilityError

        # tag before order, order before delta, delta before profile
        with pytest.raises(ValueError, match="unknown family tag"):
            build_family("k5", MAX_N + 1)
        with pytest.raises(CapabilityError):
            build_family("profile", MAX_N + 1)
        with pytest.raises(ValueError, match="^profile needs delta$"):
            build_family("profile", 9)


class TestDifferenceIdentities:
    def test_three_cell_family(self):
        for n in (8, 9, 15, 60):
            for d1 in admissible_deltas("A_delta", n):
                for d2 in admissible_deltas("A_delta", n):
                    p1 = named_quotient("A_delta", n, d1)
                    p2 = named_quotient("A_delta", n, d2)
                    diff = p2 - p1
                    want = (d1 - d2) * (d1 + d2 - n + 2)
                    assert diff == IntPolynomial((want,))

    def test_quartic_pair(self):
        for n in (9, 10, 59, 60):
            f1 = IntPolynomial((n - 2, 2 * n - 9, 5 - 2 * n, 5 - n, 1))
            f2 = IntPolynomial((2 * n - 2, 3 * n - 17, 5 - 2 * n, 5 - n, 1))
            assert (f1 - f2) == IntPolynomial((-n, 8 - n))

    def test_equal_pair(self):
        for n in (10, 14, 60):
            for d1 in admissible_deltas("B_dd", n):
                for d2 in admissible_deltas("B_dd", n):
                    p1 = named_quotient("B_dd", n, d1)
                    p2 = named_quotient("B_dd", n, d2)
                    want = 2 * (d2 - d1) * (d1 + d2 - n + 2)
                    assert (p1 - p2) == IntPolynomial((want,))

    def test_pendant_pair(self):
        for n in (10, 15, 61):
            ds = admissible_deltas("B_d1", n)
            for d1 in ds:
                for d2 in ds:
                    p1 = named_quotient("B_d1", n, d1)
                    p2 = named_quotient("B_d1", n, d2)
                    want = IntPolynomial(
                        ((d2 - d1), (d2 - d1) * (d2 + d1 - n + 1))
                    )
                    assert (p1 - p2) == want
