"""Golden outputs: stdout of the verify suites and compare-families, the
theorem-n2 status lines on stderr, the enumeration files and level lists,
and canonical labels, byte for byte.

The expected files in `tests/golden/` were recorded from the CLI before the
suites moved out of `specmax.cli` into `specmax.suites`; the enumeration
pins `enumerate_7_5.*` before `_level_up` began rejecting children by
degree ahead of their canonical forms, and `levels_7_5.txt` before the
generator lost its disconnected mode;
`families.g6` before the family builders listed complement edges instead
of every edge; `canonical_forms.txt`, from `canonical_form` itself, before
its search pruned by automorphisms; `compare_300_json` and `compare_301_csv`, whose
rows carry about 2,400 correctly rounded roots, before `max_real_root`
tried a float seed ahead of its Sturm bisection. The one value allowed to
move is the `rho_graph` of `sandwich`, which comes from a LAPACK
eigensolve; it must agree to 1e-12 relative. `perfbench/workloads.py`
parses the theorem-n2 status lines.
"""

import json
import random
import re
from pathlib import Path

import networkx as nx
import pytest

from specmax.cli import main
from specmax.enumeration import _level_up
from specmax.graphs import Graph, canonical_form, graph6_encode

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    "signs_59_65": ["verify", "signs", "--n-min", "59", "--n-max", "65"],
    "theorem_n3_59_62": ["verify", "theorem-n3", "--n-min", "59", "--n-max", "62"],
    "theorem_n2_5_6": ["verify", "theorem-n2", "--n-min", "5", "--n-max", "6"],
    "lemmas_25_7": ["verify", "lemmas", "--trials", "25", "--seed", "7"],
    "sandwich_60_5": ["verify", "sandwich", "--n-min", "60", "--delta", "5"],
    "sandwich_61_6": ["verify", "sandwich", "--n-min", "61", "--delta", "6"],
    "compare_60_json": ["compare-families", "--n", "60"],
    "compare_61_csv": ["compare-families", "--n", "61", "--format", "csv"],
    "compare_300_json": ["compare-families", "--n", "300"],
    "compare_301_csv": ["compare-families", "--n", "301", "--format", "csv"],
}
# (family, n, delta, profile) of each line of families.g6: every family tag
# at two orders
FAMILY_CASES = [
    ("g", 9, 4, None),
    ("g", 40, 6, None),
    ("h1", 10, None, None),
    ("h1", 40, None, None),
    ("h2", 9, None, None),
    ("h2", 39, None, None),
    ("g21", 11, None, None),
    ("g21", 37, None, None),
    ("profile", 15, 6, {"type1": 3, "type2": [3], "type3": [3]}),
    ("profile", 40, 7, {"type1": 14, "type2": [2, 1], "type3": [4]}),
    ("gdd", 12, 5, None),
    ("gdd", 40, 9, None),
    ("gd1", 12, 5, None),
    ("gd1", 39, 7, None),
]
RHO_GRAPH = re.compile(r'"rho_graph":[^,}]+')


def _symmetric_families():
    """(name, networkx graph) of vertex-transitive and other highly
    symmetric graphs on at most 9 vertices."""
    for n in range(1, 10):
        yield f"E{n}", nx.empty_graph(n)
        yield f"K{n}", nx.complete_graph(n)
        yield f"W{n}", nx.wheel_graph(n)
        if n >= 3:
            yield f"C{n}", nx.cycle_graph(n)
            yield f"S{n}", nx.star_graph(n - 1)
            yield f"Cn{n}_12", nx.circulant_graph(n, [1, 2])
        for a in range(2, n // 2 + 1):
            yield f"K{a},{n - a}", nx.complete_bipartite_graph(a, n - a)
    for m in range(2, 5):
        yield f"{m}K2", nx.disjoint_union_all([nx.complete_graph(2)] * m)
    for t, s in [(2, 3), (3, 3), (2, 4)]:
        yield f"{t}K{s}", nx.disjoint_union_all([nx.complete_graph(s)] * t)
    for parts in [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3)]:
        yield "K" + ",".join(map(str, parts)), nx.complete_multipartite_graph(*parts)
    yield "Q3", nx.hypercube_graph(3)
    yield "prism3", nx.circular_ladder_graph(3)
    yield "rook3x3", nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(3))


def canonical_cases():
    """Lines `name input canonical` (graph6): every atlas graph with at least
    one vertex, seeded random graphs at n = 8..10 and the symmetric families
    up to n = 9, each input under a seeded relabelling."""
    rng = random.Random(13)
    named = [(f"atlas{i}", h) for i, h in enumerate(nx.graph_atlas_g()) if h.number_of_nodes()]
    for n in (8, 9, 10):
        for i in range(30):
            p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
            h = nx.empty_graph(n)
            h.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
            named.append((f"random{n}_{i}", h))
    named += list(_symmetric_families())
    lines = []
    for name, h in named:
        nodes = list(h.nodes())
        perm = list(range(len(nodes)))
        rng.shuffle(perm)
        label = {v: perm[i] for i, v in enumerate(nodes)}
        g = Graph.build(len(nodes), [(label[u], label[v]) for u, v in h.edges()])
        lines.append(f"{name} {graph6_encode(g)} {canonical_form(g).decode('ascii')}\n")
    return "".join(lines)


def assert_same_lines(got: str, want: str) -> None:
    """got == want, checked one line at a time: a failure shows the first
    line that differs, not a diff of two whole texts, which pytest can take
    minutes to build when every line differs."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        assert a == b, f"line {i} differs"
    assert len(got_lines) == len(want_lines)


def test_canonical_forms_match_golden():
    assert_same_lines(canonical_cases(), (GOLDEN / "canonical_forms.txt").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    out, err = capsys.readouterr()
    want = (GOLDEN / f"{name}.out").read_text()
    if name.startswith("sandwich"):
        got_rho, want_rho = (json.loads(text)["rho_graph"] for text in (out, want))
        assert got_rho == pytest.approx(want_rho, rel=1e-12, abs=0)
        out, want = (RHO_GRAPH.sub('"rho_graph":_', text) for text in (out, want))
    assert_same_lines(out, want)
    # every stderr line but the closing timing line
    status = GOLDEN / f"{name}.err"
    want_err = status.read_text().splitlines() if status.exists() else []
    assert [line for line in err.splitlines() if not line.startswith("suite ")] == want_err


def test_construct_matches_golden(tmp_path, capsys):
    lines = []
    for family, n, delta, profile in FAMILY_CASES:
        argv = ["construct", "--family", family, "--n", str(n)]
        if delta is not None:
            argv += ["--delta", str(delta)]
        if profile is not None:
            path = tmp_path / "profile.json"
            path.write_text(json.dumps(profile))
            argv += ["--profile", str(path)]
        assert main(argv) == 0
        lines.append(capsys.readouterr().out)
    assert_same_lines("".join(lines), (GOLDEN / "families.g6").read_text())


def test_enumerate_files_match_golden(tmp_path):
    emit, checkpoint = tmp_path / "classes.g6", tmp_path / "frontier.json"
    argv = ["enumerate", "--n", "7", "--max-degree", "5", "--emit", str(emit), "--checkpoint", str(checkpoint)]
    assert main(argv) == 0
    assert emit.read_bytes() == (GOLDEN / "enumerate_7_5.g6").read_bytes()
    assert checkpoint.read_bytes() == (GOLDEN / "enumerate_7_5.checkpoint.json").read_bytes()


def test_level_lists_match_golden():
    # every level of EnumSpec(7, 5), one line each: the sorted canonical
    # forms of the children `_level_up` accepts, in the labels it built them in;
    # the last one whole, as a checkpoint holds it
    level = [(Graph.build(1, []), ([0], []))]
    levels = [level]
    for k in range(2, 8):
        level = [(g, found) for g, _, found in _level_up([(g.rows, found[1]) for g, found in level], 5, False)]
        levels.append(level)
    got = b"".join(b" ".join(sorted(canonical_form(g) for g, _ in level)) + b"\n" for level in levels)
    assert got == (GOLDEN / "levels_7_5.txt").read_bytes()
