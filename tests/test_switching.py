import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specmax import suites
from specmax.cli import main
from specmax.families import (
    ComplementProfile,
    build_case2,
    build_family,
    build_from_profile,
    named_quotient,
)
from specmax.graphs import Graph, canonical_form, random_connected_graph
from specmax.partition import quotient
from specmax.spectral import perron, perron_all, spectral_radii
from specmax.suites import (
    case2_verdicts,
    ls_hypothesis,
    ls_verdicts,
    path_op_verdicts,
    run_lemmas,
    switch_improvement_failures,
)
from specmax.switching import SwitchMove, apply

from graph_shapes import complement_shapes


def random_ls_config(rng, g):
    verts = list(range(g.n))
    rng.shuffle(verts)
    s, t, v, u = verts[:4]
    if (
        g.has_edge(u, v)
        and g.has_edge(s, t)
        and not g.has_edge(s, v)
        and not g.has_edge(t, u)
    ):
        return s, t, v, u
    return None


def has_loop(g, v):
    return (g.loops >> v) & 1


def holds(verdicts) -> list[tuple[str, bool]]:
    return [(check, ok) for check, ok, _ in verdicts]


def op_verdicts(gl, move):
    """`path_op_verdicts` given the Perron pairs of gl and of its rewrite."""
    return path_op_verdicts(gl, move, *perron_all([gl, apply(gl, move)]))


def switched_rho(g, move):
    """rho of g after local switching on move, solved on its own by numpy."""
    return float(np.linalg.eigvalsh(apply(g, SwitchMove("LS", move)).to_numpy())[-1])


def case2_solved(g):
    """`case2_verdicts` given the Perron pair of g."""
    return case2_verdicts(g, perron(g))


class TestLocalSwitching:
    def test_cycle4_equality_case(self):
        c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pair = perron(c4)
        x = pair.vector
        assert (x[0] - x[3]) * (x[2] - x[1]) == pytest.approx(0, abs=1e-10)
        rho_after = switched_rho(c4, (0, 1, 2, 3))
        assert rho_after == pytest.approx(pair.rho, abs=1e-9)
        # the hypothesis is 0 up to rounding, so its float sign may go either
        # way; the verdict holds
        assert holds(ls_verdicts(c4, pair, (0, 1, 2, 3), rho_after)) == [("ls_monotone", True)]
        # the equality case: x_s = x_u and x_v = x_t
        assert x[0] == pytest.approx(x[3], abs=1e-8) and x[2] == pytest.approx(x[1], abs=1e-8)

    def test_failure_record(self):
        # the check name and witness of the failure record `verify lemmas`
        # prints
        g = build_family("g21", 9)
        move = (2, 5, 1, 6)
        assert ls_verdicts(g, perron(g), move, switched_rho(g, move)) == [("ls_monotone", True, "HpTzr|} 2,5,1,6")]

    def test_no_verdict_when_hypothesis_fails(self, monkeypatch):
        # the first seeded move whose hypothesis is negative
        rng = random.Random(501)
        while True:
            g = random_connected_graph(rng, rng.randint(5, 9), 0.45)
            cfg = random_ls_config(rng, g)
            if cfg is None:
                continue
            s, t, v, u = cfg
            x = perron(g).vector
            if (x[s] - x[u]) * (x[v] - x[t]) < 0:
                break
        assert not ls_hypothesis(perron(g), cfg)
        # a sweep that draws only this move hands no verdict function a
        # move, and solves no switched graph
        solved = []
        monkeypatch.setattr(suites, "random_connected_graph", lambda rng, n, p: g)
        monkeypatch.setattr(suites, "_draw_switch", lambda g, rng: cfg)
        monkeypatch.setattr(suites, "ls_verdicts", None)
        monkeypatch.setattr(suites, "spectral_radii", lambda graphs: solved.extend(graphs) or [])
        failures = suites.local_switching_failures(random.Random(0), 1)
        assert failures == [{"check": "ls_trials_completed", "n": None, "witness": "0/1"}]
        assert solved == []

    def test_precondition_validation(self):
        c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            apply(c4, SwitchMove("LS", (0, 1, 1, 3)))
        with pytest.raises(ValueError):
            apply(c4, SwitchMove("LS", (0, 2, 1, 3)))  # st absent

    def test_random_sweep_nonnegative_hypothesis(self):
        rng = random.Random(501)
        done = 0
        while done < 200:
            g = random_connected_graph(rng, rng.randint(5, 9), 0.45)
            cfg = random_ls_config(rng, g)
            if cfg is None:
                continue
            pair = perron(g)
            if ls_hypothesis(pair, cfg):
                done += 1
                assert holds(ls_verdicts(g, pair, cfg, switched_rho(g, cfg))) == [("ls_monotone", True)]

    def test_reversible(self):
        rng = random.Random(77)
        while True:
            g = random_connected_graph(rng, 8, 0.5)
            cfg = random_ls_config(rng, g)
            if cfg:
                break
        s, t, v, u = cfg
        moved = apply(g, SwitchMove("LS", cfg))
        back = moved.with_edges(add=[(u, v), (s, t)], remove=[(s, v), (t, u)])
        assert back == g

    def test_g21_to_h2_strict_increase(self):
        for n in (9, 11, 17, 31):
            g = build_family("g21", n)
            pair = perron(g)
            x = pair.vector
            assert (x[2] - x[6]) * (x[1] - x[5]) >= -1e-12
            rho_after = switched_rho(g, (2, 5, 1, 6))
            assert ls_hypothesis(pair, (2, 5, 1, 6))
            assert holds(ls_verdicts(g, pair, (2, 5, 1, 6), rho_after)) == [("ls_monotone", True)]
            assert rho_after > pair.rho + 1e-9

    def test_g21_switch_lands_on_h2(self):
        for n in (9, 11):
            moved = apply(build_family("g21", n), SwitchMove("LS", (2, 5, 1, 6)))
            assert canonical_form(moved) == canonical_form(build_family("h2", n))


def listed_moves(g):
    """Every (s, t, v, u) of distinct vertices with st and uv edges and sv
    and tu non-edges, by brute force over the vertices: the edges (s, t)
    with s < t first, then the same edges reversed, u and v ascending."""
    moves = []
    for flip in (False, True):
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if not g.has_edge(a, b):
                    continue
                s, t = (b, a) if flip else (a, b)
                for u in range(g.n):
                    for v in range(g.n):
                        if (
                            len({s, t, v, u}) == 4
                            and g.has_edge(u, v)
                            and not g.has_edge(s, v)
                            and not g.has_edge(t, u)
                        ):
                            moves.append((s, t, v, u))
    return moves


class TestDrawSwitch:
    """`suites._draw_switch` counts the moves instead of listing them; it
    must pick what `rng.choice` picks from the full list and leave the
    generator in the same state, so every sweep sees the same moves."""

    @staticmethod
    def assert_same_draw(g, seed):
        listed, counted = random.Random(seed), random.Random(seed)
        moves = listed_moves(g)
        want = listed.choice(moves) if moves else None
        assert suites._draw_switch(g, counted) == want, (g.rows, seed)
        assert counted.getstate() == listed.getstate()

    def test_matches_choice_over_the_list(self):
        rng = random.Random(16)
        for trial in range(300):
            g = random_connected_graph(rng, rng.randint(5, 9), rng.choice([0.2, 0.45, 0.8]))
            self.assert_same_draw(g, trial)

    def test_every_index_picks_its_listed_move(self):
        class Fixed:
            def randrange(self, total):
                assert total == len(moves)
                return k

        rng = random.Random(9)
        for g in [build_family("g21", 9)] + [random_connected_graph(rng, 8, 0.45) for _ in range(5)]:
            moves = listed_moves(g)
            for k in range(len(moves)):
                assert suites._draw_switch(g, Fixed()) == moves[k]

    def test_matches_choice_on_sparse_and_dense_graphs(self):
        # connected or not, from 2 to 12 vertices: the closed-form count
        # must equal the list's length on every shape, not only on the
        # connected graphs of order 5..9 the sweep draws
        rng = random.Random(28)
        for trial in range(400):
            n, p = rng.randint(2, 12), rng.choice([0.1, 0.9])
            g = Graph.build(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            self.assert_same_draw(g, trial)

    @pytest.mark.parametrize(
        "g",
        [Graph.build(n, itertools.combinations(range(n), 2)) for n in (2, 3, 4, 7, 12)]
        + [Graph.build(m + 1, [(0, v) for v in range(1, m + 1)]) for m in (2, 5, 11)]
        + [Graph.build(3, [(0, 1), (1, 2)])],
        ids=["K2", "K3", "K4", "K7", "K12", "K1,2", "star", "K1,11", "P3"],  # star is K1,5
    )
    def test_no_move(self, g):
        assert listed_moves(g) == []
        self.assert_same_draw(g, 0)
        rng = random.Random(0)
        assert suites._draw_switch(g, rng) is None
        assert rng.getstate() == random.Random(0).getstate()


class TestLemmaControls:
    """Each switching check fails when what it checks is broken."""

    def test_lowered_rho_fails_ls_monotone(self, monkeypatch, capsys):
        # rho(G') read 1e-6 low: the moves that keep rho fail the check; the
        # family graphs' radii, read as low, fail rho(G) = rho(B)
        monkeypatch.setattr(suites, "spectral_radii", lambda graphs: [r - 1e-6 for r in spectral_radii(graphs)])
        assert main(["verify", "lemmas"]) == 1
        checks = {record["check"] for record in json.loads(capsys.readouterr().out)["failures"]}
        assert checks == {"ls_monotone", "family_quotient_rho"}

    def test_no_moves_fails_ls_trials_completed(self, monkeypatch, capsys):
        monkeypatch.setattr(suites, "_draw_switch", lambda g, rng: None)
        assert main(["verify", "lemmas", "--trials", "2"]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures == [{"check": "ls_trials_completed", "n": None, "witness": "0/2"}]

    @staticmethod
    def skewed_apply(g, move):
        # the input graph one edge up for Op1 (v1 v2 is a non-edge of the
        # complement path) and one edge down for Op2 (v1 v3 is an edge), so
        # rho moves by far more than the 1e-9 slack the wrong way
        a, b, c = move.vertices[:3]
        return g.with_edges(add=[(a, b)]) if move.kind == "Op1" else g.with_edges(remove=[(a, c)])

    def test_skewed_path_ops_fail_their_checks(self, monkeypatch, capsys):
        monkeypatch.setattr(suites, "apply", self.skewed_apply)
        result = run_lemmas(trials=0)
        assert {record["check"] for record in result["failures"]} == {"op1_sandwich", "op2_monotone"}
        assert main(["verify", "lemmas", "--trials", "0"]) == 1
        assert json.loads(capsys.readouterr().out) == result

    def test_unchanged_graph_fails_g21_to_h2_strict(self, monkeypatch, capsys):
        # H2(n) built as G2,1(n): the "after" graph is the "before" graph
        monkeypatch.setattr(suites, "build_family", lambda tag, n: build_family("g21" if tag == "h2" else tag, n))
        rho = perron(build_family("g21", 9)).rho
        assert switch_improvement_failures([9]) == [
            {"check": "g21_to_h2_strict", "n": 9, "witness": f"{rho} -> {rho}"}
        ]
        assert main(["verify", "lemmas", "--trials", "0"]) == 1
        # the H2 family checks fail too; the switching record is among them
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert {"check": "g21_to_h2_strict", "n": 9, "witness": f"{rho} -> {rho}"} in failures


class TestOp1:
    def build(self, n, delta, profile):
        return build_from_profile(n, delta, profile).add_loops()

    def test_long_path_rewrite_and_sandwich(self):
        gl = self.build(15, 6, ComplementProfile(type1=3, type2=(3,), type3=(3,)))
        move = SwitchMove("Op1", (13, 1, 2, 3, 14))
        # the check name and witness of the failure record `verify lemmas`
        # prints: the loop graph, the move and both spectral radii
        witness = f"{gl.to_json()} Op1 [13, 1, 2, 3, 14] {perron(gl).rho} -> {perron(apply(gl, move)).rho}"
        assert op_verdicts(gl, move) == [("op1_sandwich", True, witness)]
        out = apply(gl, move)
        # the type-II component became a type-I edge plus a 3-cycle:
        # quotient of the rewrite is the three-cell matrix plus 2I
        spec = quotient(out, [[0], list(range(1, 7)), list(range(7, 15))])
        assert spec.equitable
        base = named_quotient("B_delta", 15, 6).matrix
        assert [list(row) for row in spec.matrix] == [
            [x + (2 if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(base)
        ]

    def test_total_degrees_preserved(self):
        gl = self.build(15, 6, ComplementProfile(type1=3, type2=(3,), type3=(3,)))
        out = apply(gl, SwitchMove("Op1", (13, 1, 2, 3, 14)))
        assert out.degrees() == gl.degrees()

    def test_t4_variant(self):
        gl = self.build(13, 2, ComplementProfile(type1=4, type2=(2,)))
        move = SwitchMove("Op1", (11, 1, 2, 12))
        assert holds(op_verdicts(gl, move)) == [("op1_sandwich", True)]
        out = apply(gl, move)
        # middle vertices lose their loops but keep total degree
        assert not has_loop(out, 1) and not has_loop(out, 2)
        assert out.degrees() == gl.degrees()
        # the path became a type-I edge; both interiors now dominate G - u
        assert complement_shapes(out, range(1, 13)) == [(1, 0), (1, 0)] + [(2, 1)] * 5

    def test_t3_variant(self):
        gl = self.build(13, 4, ComplementProfile(type1=3, type2=(1,), type3=(3,)))
        move = SwitchMove("Op1", (11, 1, 12))
        assert holds(op_verdicts(gl, move)) == [("op1_sandwich", True)]
        out = apply(gl, move)
        assert not has_loop(out, 1)
        assert out.degrees() == gl.degrees()
        # type-II path on 3 vertices became a type-I edge plus a dominating
        # interior vertex
        assert complement_shapes(out, range(1, 13)) == [(1, 0), (2, 1), (2, 1), (2, 1), (2, 1), (3, 3)]

    def test_path_end_symmetry(self):
        gl = self.build(15, 6, ComplementProfile(type1=3, type2=(3,), type3=(3,)))
        x = perron(gl, 1e-11).vector
        assert abs(x[13] - x[14]) < 1e-8
        assert abs(x[1] - x[3]) < 1e-8

    def test_reversible(self):
        gl = self.build(15, 6, ComplementProfile(type1=3, type2=(3,), type3=(3,)))
        move = SwitchMove("Op1", (13, 1, 2, 3, 14))
        out = apply(gl, move)
        back = out.with_edges(
            add=[(13, 14), (1, 3)], remove=[(13, 1), (3, 14)]
        )
        assert back == gl

    def test_bad_path_rejected(self):
        gl = self.build(15, 6, ComplementProfile(type1=3, type2=(3,), type3=(3,)))
        with pytest.raises(ValueError):
            apply(gl, SwitchMove("Op1", (13, 1, 2, 14, 3)))  # not a complement path


class TestOp2:
    def test_two_paths_then_named_quotient(self):
        n, delta = 17, 12
        gl = build_from_profile(n, delta, ComplementProfile(type2=(6, 6))).add_loops()
        m1 = SwitchMove("Op2", (13, 1, 2, 3, 4, 5, 6, 14))
        m2 = SwitchMove("Op2", (15, 7, 8, 9, 10, 11, 12, 16))
        witness = f"{gl.to_json()} Op2 [13, 1, 2, 3, 4, 5, 6, 14] {perron(gl).rho} -> {perron(apply(gl, m1)).rho}"
        assert op_verdicts(gl, m1) == [("op2_monotone", True, witness)]
        step = apply(gl, m1)
        assert holds(op_verdicts(step, m2)) == [("op2_monotone", True)]
        out = apply(step, m2)
        centers = [1, 7]
        ends = [13, 14, 15, 16]
        cells = [
            [0],
            [v for v in range(1, n) if v not in centers + ends],
            centers,
            ends,
        ]
        spec = quotient(out, cells)
        assert spec.equitable
        base = named_quotient("B_n5", n).matrix
        assert [list(row) for row in spec.matrix] == [
            [x + (2 if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(base)
        ]
        # complement of the rewrite minus the low vertex: two 3-vertex paths
        # plus cycles covering the full-degree block
        assert complement_shapes(out, range(1, n)) == [(3, 2), (3, 2), (5, 5), (5, 5)]

    def test_t5_branch(self):
        gl = build_from_profile(19, 14, ComplementProfile(type2=(3, 11))).add_loops()
        assert holds(op_verdicts(gl, SwitchMove("Op2", (15, 1, 2, 3, 16)))) == [("op2_monotone", True)]

    def test_t4_branch(self):
        gl = build_from_profile(13, 8, ComplementProfile(type2=(2, 6))).add_loops()
        assert holds(op_verdicts(gl, SwitchMove("Op2", (9, 1, 2, 10)))) == [("op2_monotone", True)]

    def test_degrees_preserved_and_reversible(self):
        n, delta = 17, 12
        gl = build_from_profile(n, delta, ComplementProfile(type2=(6, 6))).add_loops()
        move = SwitchMove("Op2", (13, 1, 2, 3, 4, 5, 6, 14))
        out = apply(gl, move)
        assert out.degrees() == gl.degrees()
        back = out.with_edges(add=[(2, 6), (1, 14)], remove=[(1, 2), (6, 14)])
        assert back == gl


class TestCase2Audit:
    """The two-low-vertex inequality chain that `verify lemmas` checks on
    both case-2 shapes."""

    BOTH = [("case2_min_gap", True), ("case2_diff_gap", True)]

    def test_equal_degrees(self):
        assert holds(case2_solved(build_case2(12, 4, 4, ComplementProfile(type3=(3,))))) == self.BOTH

    def test_pendant_pair(self):
        g = build_case2(12, 3, 1, ComplementProfile(type1=1))
        assert holds(case2_solved(g)) == self.BOTH
        # u is the degree-3 vertex, so the difference side (d_u - d_v) m is 2m > 0
        _, _, witness = case2_solved(g)[1]
        assert float(witness.split()[1]) > 0

    def test_family_sweep(self):
        for n in range(12, 41, 4):
            assert holds(case2_solved(build_case2(n, 4, 4, ComplementProfile(type3=(3,))))) == self.BOTH, n

    @staticmethod
    def low_vertices(g):
        degs = g.degrees()
        return [v for v, d in enumerate(degs) if d < max(degs)]

    def test_raised_low_components_fail_min_gap(self):
        # raising x_u + x_v by the slack of (lambda + 1)(M - m) <= 2M - (x_u +
        # x_v) and 1e-6 more leaves M and m as they are and breaks the check
        g = build_case2(12, 4, 4, ComplementProfile(type3=(3,)))
        pair = perron(g)
        _, lhs, _, rhs = case2_verdicts(g, pair)[0][2].split()
        slack = float(rhs) - float(lhs)
        for excess, ok in ((-1e-6, True), (1e-6, False)):
            x = pair.vector.copy()
            x[self.low_vertices(g)] += (slack + excess) / 2
            verdicts = case2_verdicts(g, replace(pair, vector=x))
            assert holds(verdicts) == [("case2_min_gap", ok), ("case2_diff_gap", True)]

    def test_lowered_u_fails_diff_gap(self):
        # on the pendant pair (d_u - d_v) m = (lambda + 1)(x_u - x_v) holds
        # with equality, so x_u moved 1e-6 down breaks it
        g = build_case2(12, 3, 1, ComplementProfile(type1=1))
        pair = perron(g)
        u = max(self.low_vertices(g), key=g.degree)
        for shift, ok in ((1e-6, True), (-1e-6, False)):
            x = pair.vector.copy()
            x[u] += shift
            verdicts = case2_verdicts(g, replace(pair, vector=x))
            assert holds(verdicts) == [("case2_min_gap", True), ("case2_diff_gap", ok)]

    def test_wrong_shape_rejected(self):
        g = build_from_profile(9, 4, ComplementProfile(type1=2, type3=(4,)))
        with pytest.raises(ValueError):
            case2_solved(g)

    def test_failure_reaches_lemmas(self, monkeypatch):
        monkeypatch.setattr(suites, "case2_verdicts", lambda g, pair: [("case2_min_gap", False, "planted")])
        result = run_lemmas(trials=0)
        assert not result["pass"]
        assert {"check": "case2_min_gap", "n": 12, "witness": "planted"} in result["failures"]


class TestApplyCharacterization:
    """Every vertex tuple, repeats included, that `apply` accepts on three
    seeded order-6 graphs per kind, and the graph it returns, pinned in
    `tests/golden/switching_apply.txt`. Op1 and Op2 graphs carry random
    loops. Seeds 1, 2 and 6 give every kind an accepted tuple on each graph.
    The file was recorded before `apply` left its edge and loop checks to
    `Graph.with_edges`."""

    SEEDS = (1, 2, 6)
    ARITY = {"LS": (4,), "Op1": (3, 4, 5, 6), "Op2": (3, 4, 5, 6)}

    @staticmethod
    def graph(kind, seed):
        rng = random.Random(seed)
        if kind not in ("Op1", "Op2"):
            return Graph.build(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.6])
        # a complement holding a shuffled Hamiltonian path has complement
        # paths of every length 3..6
        order = rng.sample(range(6), 6)
        extra = [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.1]
        g = Graph.build(6, list(zip(order, order[1:])) + extra).complement()
        return Graph(6, g.rows, sum(1 << v for v in range(6) if rng.random() < 0.75))

    def accepted(self):
        lines = []
        for kind, arities in self.ARITY.items():
            for seed in self.SEEDS:
                g = self.graph(kind, seed)
                for vs in itertools.chain.from_iterable(itertools.product(range(6), repeat=k) for k in arities):
                    try:
                        out = apply(g, SwitchMove(kind, vs))
                    except ValueError:
                        continue
                    lines.append(f"{kind} {seed} {','.join(map(str, vs))} {out.to_json()}\n")
        return "".join(lines)

    def test_matches_golden(self):
        assert self.accepted() == (Path(__file__).parent / "golden" / "switching_apply.txt").read_text()

    @pytest.mark.parametrize("kind", ["Op3", "Op4", "Op5", "ls"])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(ValueError) as exc:
            SwitchMove(kind, (0, 1, 2, 3))
        assert str(exc.value) == f"unknown move kind {kind!r}"
