import itertools
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmax
from specmax.enumeration import EnumSpec, enumerate_graphs
from specmax.families import build_family
from specmax.graphs import Graph, graph6_decode, random_connected_graph
from specmax.intpoly import char_poly, max_real_root
from specmax.spectral import ConvergenceError, perron, perron_all, spectral_radii
from specmax.suites import component_bound_verdicts

from graph_shapes import adjacency_lists


class TestBlasThreadDefaults:
    """`import specmax` sets one BLAS thread before numpy loads, and keeps a
    count the caller chose. A fresh interpreter sees what the import does,
    since this one loaded numpy long ago."""

    @staticmethod
    def after_import(**preset) -> list[str]:
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(preset, PYTHONPATH=str(Path(specmax.__file__).resolve().parent.parent))
        code = (
            "import os, sys, specmax\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('MKL_NUM_THREADS'), 'numpy' in sys.modules)"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return done.stdout.split()

    def test_unset_counts_become_one_before_numpy(self):
        assert self.after_import() == ["1", "1", "False"]

    def test_preset_counts_are_kept(self):
        assert self.after_import(OPENBLAS_NUM_THREADS="3", MKL_NUM_THREADS="3") == ["3", "3", "False"]


def complete(n):
    return Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n):
    return Graph.build(n, [(0, i) for i in range(1, n)])


class TestPerron:
    def test_triangle(self):
        pair = perron(complete(3), 1e-12)
        assert pair.rho == pytest.approx(2, abs=1e-11)
        assert np.allclose(pair.vector, 1 / math.sqrt(3), atol=1e-10)
        assert pair.residual <= 1e-12

    def test_star_closed_form(self):
        pair = perron(star(5), 1e-12)
        assert pair.rho == pytest.approx(2, abs=1e-11)
        assert pair.vector[0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert np.allclose(pair.vector[1:], 1 / (2 * math.sqrt(2)), atol=1e-9)

    def test_family_graph_bracketed_root(self):
        from specmax.families import build_g

        pair = perron(build_g(7, 4), 1e-12)
        assert 4.88 < pair.rho < 4.89

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            perron(Graph.build(4, [(0, 1), (2, 3)]))

    def test_tol_range_enforced(self):
        with pytest.raises(ValueError):
            perron(complete(3), 1e-3)

    def test_single_vertex(self):
        pair = perron(Graph.build(1, []), 1e-12)
        assert pair.rho == pytest.approx(0, abs=1e-12)

    def test_bipartite_converges(self):
        # even cycles are bipartite; the shifted iteration must still settle
        c6 = Graph.build(6, [(i, (i + 1) % 6) for i in range(6)])
        assert perron(c6, 1e-12).rho == pytest.approx(2, abs=1e-10)

    def test_agrees_with_char_poly_roots(self):
        from specmax.intpoly import max_real_root

        rng = random.Random(77)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 10), 0.5)
            rho = perron(g, 1e-12).rho
            p = char_poly(adjacency_lists(g))
            exact = max_real_root(p)
            assert rho == pytest.approx(exact, abs=1e-9)

    def test_deterministic(self):
        rng = random.Random(5)
        g = random_connected_graph(rng, 9, 0.5)
        a = perron(g, 1e-12)
        b = perron(g, 1e-12)
        assert a.rho == b.rho and np.array_equal(a.vector, b.vector)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        assert_nonconvergence_reported(monkeypatch, perron)

    def test_nonconvergence_reports_residual_stacked(self, monkeypatch):
        assert_nonconvergence_reported(monkeypatch, lambda g, tol: perron_all([g], tol)[0])

    def test_one_dense_solve(self):
        assert perron(complete(4), 1e-12).iterations == 1


def assert_nonconvergence_reported(monkeypatch, solve) -> None:
    """With the top eigenvector perturbed, `solve(g, tol)` must raise
    ConvergenceError carrying the residual it saw."""
    real_eigh = np.linalg.eigh

    def perturbed(a):
        # component 0 of the top eigenvector of every matrix in the stack
        w, v = real_eigh(a)
        v = v.copy()
        v[..., 0, -1] += 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    rng = random.Random(5)
    g = random_connected_graph(rng, 9, 0.5)
    with pytest.raises(ConvergenceError) as exc:
        solve(g, 1e-10)
    assert exc.value.last_residual > 1e-10
    assert str(exc.value) == f"residual {exc.value.last_residual:.3e} above tol 1.0e-10 at n=9"


def mixed_orders() -> list[Graph]:
    """Seeded connected graphs of orders 1, 2, 3..10 and 40, with looped
    family graphs, shuffled so that each order's graphs are scattered."""
    from specmax.families import build_g

    rng = random.Random(18)
    graphs = [Graph.build(1, []), Graph.build(2, [(0, 1)]), complete(2).add_loops()]
    graphs += [random_connected_graph(rng, rng.randint(3, 10), rng.choice([0.3, 0.5, 0.8])) for _ in range(150)]
    graphs += [random_connected_graph(rng, 40, 0.2) for _ in range(3)]
    for n in range(8, 13):
        family = build_family("h1", n) if n % 2 == 0 else build_family("h2", n)
        graphs += [build_g(n, 2), build_g(n, 2).add_loops(), family.add_loops()]
    rng.shuffle(graphs)
    return graphs


def one_matrix_solve(g: Graph) -> tuple[float, np.ndarray, float]:
    """rho, vector and residual by the same arithmetic on one unstacked
    matrix, built from `adjacency_lists`: the reference for the stacked solve."""
    a = np.array(adjacency_lists(g), dtype=float)
    x = np.abs(np.linalg.eigh(a)[1][:, -1])
    x /= np.linalg.norm(x)
    ax = a @ x
    rho = float(x @ ax)
    return rho, x, float(np.max(np.abs(ax - rho * x)))


class TestPerronAll:
    """`perron_all` solves one stack per order; each pair must be the one
    `perron` gives for its graph alone, and the one the same arithmetic
    gives on one unstacked matrix, bit for bit."""

    def test_matches_perron_bit_for_bit(self):
        graphs = mixed_orders()
        pairs = perron_all(graphs)
        assert len(pairs) == len(graphs)
        for g, pair in zip(graphs, pairs):
            alone = perron(g)
            assert pair.rho == alone.rho
            assert np.array_equal(pair.vector, alone.vector)
            assert pair.residual == alone.residual
            rho, x, residual = one_matrix_solve(g)
            assert (pair.rho, pair.residual) == (rho, residual)
            assert np.array_equal(pair.vector, x)

    def test_empty(self):
        assert perron_all([]) == []

    @pytest.mark.parametrize("at", [0, 5, -1])
    def test_disconnected_anywhere_refused(self, at):
        graphs = mixed_orders()[:20]
        graphs.insert(at if at >= 0 else len(graphs), Graph.build(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError) as exc:
            perron_all(graphs)
        assert str(exc.value) == "perron requires a connected graph"

    @pytest.mark.parametrize("tol", [1e-15, 1e-5])
    def test_tol_refused_before_any_solve(self, monkeypatch, tol):
        def no_solve(a):
            raise AssertionError("solved before the tol check")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        # the tol check comes first, ahead of the connectivity check too
        graphs = [complete(3), Graph.build(4, [(0, 1), (2, 3)])]
        with pytest.raises(ValueError) as exc:
            perron_all(graphs, tol)
        assert str(exc.value) == f"tol {tol} outside [1e-14, 1e-6]"

    def test_first_failing_graph_in_input_order_raises(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def perturbed(a):
            # the top eigenvector of the last matrix of each stack
            w, v = real_eigh(a)
            v = v.copy()
            v[-1, 0, -1] += 1e-6
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        rng = random.Random(5)
        fine, g9, late = (random_connected_graph(rng, n, 0.5) for n in (5, 9, 5))
        # the order-5 stack is solved first and fails on `late`, but g9
        # fails earlier in the input, as one solve per graph would find
        with pytest.raises(ConvergenceError) as exc:
            perron_all([fine, g9, late], 1e-10)
        assert str(exc.value).endswith("at n=9")


def _with_pendant(g: nx.Graph) -> Graph:
    n = g.number_of_nodes()
    return Graph.build(n + 1, list(g.edges()) + [(n - 1, n)])


class TestBottleneck:
    """Graphs with a tiny spectral gap, where the solve must stay fast and
    agree with the library eigenvalues."""

    @pytest.mark.parametrize(
        "g",
        [
            # Barbell(20, 40) plus a pendant, n = 81
            _with_pendant(nx.barbell_graph(20, 40)),
            # two K12 joined by a 10-vertex path, plus a pendant
            _with_pendant(nx.barbell_graph(12, 10)),
        ],
        ids=["barbell-20-40", "k12-path10-k12"],
    )
    def test_against_library_eigenvalues(self, g):
        t0 = time.perf_counter()
        pair = perron(g)
        elapsed = time.perf_counter() - t0
        a = g.to_numpy()
        nx_graph = nx.Graph(list(g.edges()))
        assert pair.rho == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-9)
        assert pair.rho == pytest.approx(
            float(np.max(nx.adjacency_spectrum(nx_graph).real)), abs=1e-9
        )
        assert np.min(pair.vector) > 0
        assert float(np.max(np.abs(a @ pair.vector - pair.rho * pair.vector))) <= 1e-10
        assert pair.residual <= 1e-10
        assert elapsed < 0.1


@st.composite
def connected_graphs(draw, max_n=10):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= {e for e in pairs if draw(st.booleans())}
    return Graph.build(n, sorted(edges))


def _exact_rho(g: Graph) -> float:
    return max_real_root(char_poly(adjacency_lists(g)))


class TestAgainstCharPoly:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs())
    def test_perron_matches_max_real_root(self, g):
        pair = perron(g, 1e-12)
        assert pair.rho == pytest.approx(_exact_rho(g), abs=1e-9)
        assert g.n == 1 or np.min(pair.vector) > 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(connected_graphs(max_n=6), min_size=2, max_size=3))
    def test_spectral_radius_of_disjoint_union(self, parts):
        edges, offset = [], 0
        for part in parts:
            edges += [(u + offset, v + offset) for u, v in part.edges()]
            offset += part.n
        union = Graph.build(offset, edges)
        want = max(_exact_rho(part) for part in parts)
        assert spectral_radii([union])[0] == pytest.approx(want, abs=1e-9)

    def test_spectral_radii_match_one_at_a_time(self):
        # every class `extremal_search` solves at n = 5..7, and one shuffled
        # input of mixed orders with looped and disconnected graphs: each
        # rho bit for bit the one-graph `eigvalsh`, and networkx's spectrum
        # within 1e-9
        rng = random.Random(21)
        mixed = mixed_orders()[:60] + [Graph.build(4, [(0, 1), (2, 3)]), Graph.build(3, [])]
        for n in range(1, 11):
            mixed.append(Graph.build(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.2]))
        rng.shuffle(mixed)
        assert len({g.n for g in mixed}) > 5 and sum(not g.is_connected() for g in mixed) > 5
        emitted = [[graph6_decode(line) for line in enumerate_graphs(EnumSpec(n, n - 2))] for n in (5, 6, 7)]
        for graphs in emitted + [mixed]:
            radii = spectral_radii(graphs)
            assert radii == [float(np.linalg.eigvalsh(np.array(adjacency_lists(g), dtype=float))[-1]) for g in graphs]
            for g, rho in zip(graphs, radii):
                h = nx.empty_graph(g.n)
                h.add_edges_from(g.edges())
                h.add_edges_from((v, v, {"weight": 2}) for v in range(g.n) if g.loops >> v & 1)
                assert rho == pytest.approx(float(max(nx.adjacency_spectrum(h).real)), abs=1e-9)
        assert spectral_radii([]) == []


class TestLoopShift:
    def test_triangle_loop_rho(self):
        g = complete(3).add_loops()
        assert perron(g, 1e-12).rho == pytest.approx(4, abs=1e-10)

    def test_shift_and_vector_agreement(self):
        from specmax.families import build_g

        g = build_g(7, 4)
        base = perron(g, 1e-12)
        looped = perron(g.add_loops(), 1e-12)
        assert looped.rho - base.rho == pytest.approx(2, abs=1e-9)
        assert np.max(np.abs(looped.vector - base.vector)) < 1e-8

    def test_shift_random(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 9), 0.5)
            assert perron(g.add_loops(), 1e-12).rho - perron(g, 1e-12).rho == pytest.approx(
                2, abs=1e-9
            )


class TestRayleigh:
    def test_random_unit_vectors_below_rho(self):
        rng = np.random.default_rng(99)
        g = random_connected_graph(random.Random(3), 8, 0.5)
        a = g.to_numpy()
        rho = perron(g, 1e-12).rho
        for _ in range(100):
            y = rng.normal(size=8)
            y /= np.linalg.norm(y)
            assert float(y @ a @ y) <= rho + 1e-9


class TestDegreeBand:
    def test_average_below_rho_below_max(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(3, 10), 0.5)
            degs = g.degrees()
            if min(degs) == max(degs):
                continue
            rho = perron(g, 1e-12).rho
            assert sum(degs) / g.n <= rho + 1e-9
            assert rho < max(degs)

    def test_profile_band(self):
        from specmax.families import ComplementProfile, build_from_profile

        for n, d, prof in [
            (11, 4, ComplementProfile(type1=3, type3=(4,))),
            (12, 5, ComplementProfile(type1=2, type2=(1,), type3=(4,))),
            (15, 6, ComplementProfile(type1=3, type2=(2,), type3=(4,))),
        ]:
            g = build_from_profile(n, d, prof)
            rho = perron(g).rho
            assert n - 4 < rho < n - 3


def component_bound_sides(g: Graph) -> tuple[bool, float, float]:
    """Whether the component bound holds, and its two sides, read back from
    the witness `<graph6> <lhs> vs <rhs>`."""
    [(check, holds, witness)] = component_bound_verdicts(g, perron(g))
    assert check == "perron_component_bound"
    _, lhs, _, rhs = witness.split()
    return holds, float(lhs), float(rhs)


class TestComponentBound:
    def test_star(self):
        # the check name and witness of the failure record `verify lemmas`
        # prints; the last digits of the left side follow the eigensolver's
        # rounding
        [(check, holds, witness)] = component_bound_verdicts(star(5), perron(star(5)))
        code, lhs, vs, rhs = witness.split()
        assert (check, holds, code, vs, rhs) == ("perron_component_bound", True, "Ds_", "vs", "2.0")
        assert float(lhs) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_complete(self):
        holds, lhs, _ = component_bound_sides(complete(5))
        assert lhs == pytest.approx(4 / math.sqrt(5), abs=1e-9)
        assert holds

    def test_random_sweep(self):
        rng = random.Random(2024)
        for _ in range(120):
            g = random_connected_graph(rng, rng.randint(2, 10), 0.5)
            assert component_bound_sides(g)[0]

    @pytest.mark.parametrize("g", [star(5), complete(5), build_family("g21", 9)], ids=["star", "K5", "G2,1(9)"])
    def test_rho_past_the_bound_fails(self, g):
        # negative control: no honest pair comes near the bound, so rho is
        # put 1e-6 on either side of sqrt(max degree) / max component
        pair = perron(g)
        edge = math.sqrt(g.max_degree()) / float(pair.vector.max())
        [(_, below, _)] = component_bound_verdicts(g, replace(pair, rho=edge - 1e-6))
        [(_, above, _)] = component_bound_verdicts(g, replace(pair, rho=edge + 1e-6))
        assert (below, above) == (True, False)


class TestSpectralRadius:
    def test_disconnected(self):
        g = Graph.build(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert spectral_radii([g]) == [pytest.approx(2, abs=1e-10)]
