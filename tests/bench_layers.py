"""Per-layer timings, one stdlib harness; pytest does not collect it.

It times one layer per run. `graph6` is the codec: `graphs.graph6_encode`,
`graphs._ordered_code` (the packer behind every canonical code, here given
a shuffled order) and `graphs.graph6_decode`, each on one seeded G(n, 1/2)
graph per order. `ordering` is `suites.check_family_ordering`, every exact
decision behind the order-n quotient tables, at n = 59, 300, 1000 and
5000. `signs` is `suites.run_verify_signs(59, m)` for m = 80, 500, 2000
and 20000, and `suites.family_table` (a correctly rounded root per named
quotient) at the same orders as `ordering`. `roots` is `family_table` at
those orders again, and `intpoly.max_real_root` over every closed form of
the n = 300 tables, one row at a time, as one call. `charpoly` is
`intpoly.char_poly` on the matrix of every named quotient (`_FORMS`) at
each delta the n = 300 tables list, as one call, and on the adjacency
matrices (symmetric, 0/1, zero diagonal) of 50 G(n, 1/2) of order 8 and
of order 12, seeded by the order, as one call per order. `canon` is
`graphs.canonical_form` and `graphs._refined_colors` on 50 G(8, 1/2), seeded
by the order, and on six symmetric graphs of order 12 (edgeless, K6,6, 6K2,
3K4, C12 and the icosahedron), each set as one call. `levelup` is one
`enumeration._level_up` step at (8, 6), from the 7-vertex classes to the
8-vertex ones, with `last` true (only the emitted classes) and false (every
class, as a checkpoint keeps them), and `enumeration.extremal_search` at
(7, 5). `perron` is `spectral.perron` on one connected G(n, 0.1), drawn
by `graphs.random_connected_graph` seeded by n, and on H1(n), at n = 100
and 300, one graph per call. A sample is `timeit`'s
autorange, at least 0.2 s of back-to-back calls, and each figure is the
median over k samples of the time per call, in microseconds. The record
names the machine: its platform, the cores this process may run on, and
the Python and numpy versions.

Run it from the repository root, on the tree whose `src` is on the path:

    PYTHONPATH=src python tests/bench_layers.py --layer graph6 --label change --out BENCH_graph6.json
    PYTHONPATH=src python tests/bench_layers.py --layer ordering --label change --out BENCH_ordering.json
    PYTHONPATH=src python tests/bench_layers.py --layer signs --label change --out BENCH_signs.json
    PYTHONPATH=src python tests/bench_layers.py --layer roots --label change --out BENCH_roots.json
    PYTHONPATH=src python tests/bench_layers.py --layer charpoly --label change --out BENCH_charpoly.json
    PYTHONPATH=src python tests/bench_layers.py --layer canon --label change --out BENCH_canon.json
    PYTHONPATH=src python tests/bench_layers.py --layer levelup --label change --out BENCH_levelup.json
    PYTHONPATH=src python tests/bench_layers.py --layer perron --label change --out BENCH_perron.json

The record is stored under its label, and the other labels in the file are
kept, so two trees can be timed into one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import timeit
from pathlib import Path

import specmax  # noqa: F401  one BLAS thread, as the CLI has, set before numpy loads
import numpy as np

from specmax.enumeration import EnumSpec, _level_up, _parents, extremal_search
from specmax.families import _FORMS, admissible_deltas, build_family, named_quotient
from specmax.graphs import Graph, _ordered_code, _refined_colors, canonical_form, graph6_decode, graph6_encode
from specmax.graphs import random_connected_graph
from specmax.intpoly import char_poly, max_real_root
from specmax.spectral import perron
from specmax.suites import check_family_ordering, family_table, run_verify_signs

ORDERS = (9, 17, 40, 120, 300, 1999)
TABLE_ORDERS = (59, 300, 1000, 5000)
SIGN_MAXES = (80, 500, 2000, 20000)
RANDOM_MATRIX_ORDERS = (8, 12)
PERRON_ORDERS = (100, 300)


def symmetric_12() -> list[Graph]:
    """Edgeless, K6,6, 6K2, 3K4, C12 and the icosahedron (two 5-cycles of an
    antiprism, each capped by a vertex), on 12 vertices each."""
    ring = [(v, (v + 1) % 5) for v in range(5)]
    icosahedron = ([(0, 1 + v) for v in range(5)] + [(1 + u, 1 + v) for u, v in ring]
                   + [(1 + v, 6 + v) for v in range(5)] + [(1 + v, 6 + (v + 1) % 5) for v in range(5)]
                   + [(6 + u, 6 + v) for u, v in ring] + [(6 + v, 11) for v in range(5)])
    edges = [
        [],
        [(u, v) for u in range(6) for v in range(6, 12)],
        [(2 * i, 2 * i + 1) for i in range(6)],
        [(u, v) for b in range(0, 12, 4) for u in range(b, b + 4) for v in range(u + 1, b + 4)],
        [(v, (v + 1) % 12) for v in range(12)],
        icosahedron,
    ]
    return [Graph.build(12, e) for e in edges]


def gnp_half(n: int, rng: random.Random | None = None) -> Graph:
    """G(n, 1/2) drawn from rng, by default one seeded by n."""
    rng = rng or random.Random(n)
    return Graph.build(n, [(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.5])


def per_call_us(call, k: int) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(k, number)) / number * 1e6


def graph6_calls():
    """(name, n, call) of the graph6 codec on G(n, 1/2)."""
    for n in ORDERS:
        g = gnp_half(n)
        order = random.Random(-n).sample(range(n), n)
        text = graph6_encode(g)
        yield "graph6_encode", n, lambda: graph6_encode(g)
        yield "_ordered_code", n, lambda: _ordered_code(g, order)
        yield "graph6_decode", n, lambda: graph6_decode(text)


def ordering_calls():
    """(name, n, call) of the family-ordering decisions of the order-n tables."""
    for n in TABLE_ORDERS:
        yield "check_family_ordering", n, lambda n=n: check_family_ordering(n)


def signs_calls():
    """(name, n, call) of the sign table up to each n and of the order-n family tables."""
    for m in SIGN_MAXES:
        yield "run_verify_signs", m, lambda m=m: run_verify_signs(59, m)
    for n in TABLE_ORDERS:
        yield "family_table", n, lambda n=n: family_table(n)


def roots_calls():
    """(name, n, call) of the order-n family tables, and of `max_real_root`
    on every closed form of the n = 300 tables (n2, and n3 with B1)."""
    for n in TABLE_ORDERS:
        yield "family_table", n, lambda n=n: family_table(n)
    names = ("A_delta", "B1", "B_n5", "B_delta", "B_dd", "B_d1")
    polys = [named_quotient(name, 300, d) for name in names for d in admissible_deltas(name, 300)]
    yield "max_real_root", 300, lambda: [max_real_root(p) for p in polys]


def charpoly_calls():
    """(name, n, call) of `char_poly` on every named quotient matrix of the
    n = 300 tables, and on the adjacency matrices of 50 G(n, 1/2) of each order."""
    matrices = [_FORMS[name](300, d)[0] for name in _FORMS for d in admissible_deltas(name, 300)]
    yield "char_poly_forms", 300, lambda: [char_poly(m) for m in matrices]
    for n in RANDOM_MATRIX_ORDERS:
        rng = random.Random(n)
        graphs = [gnp_half(n, rng) for _ in range(50)]
        batch = [[[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)] for g in graphs]
        yield "char_poly_random", n, lambda batch=batch: [char_poly(m) for m in batch]


def canon_calls():
    """(name, n, call) of `canonical_form` and `_refined_colors` on 50
    G(8, 1/2) and on the six symmetric graphs of order 12."""
    rng = random.Random(8)
    for kind, graphs in (("random", [gnp_half(8, rng) for _ in range(50)]), ("symmetric", symmetric_12())):
        n = graphs[0].n
        yield f"canonical_form_{kind}", n, lambda graphs=graphs: [canonical_form(g) for g in graphs]
        yield f"_refined_colors_{kind}", n, lambda graphs=graphs: [_refined_colors(g) for g in graphs]


def levelup_calls():
    """(name, n, call) of one `_level_up` step to the 8-vertex classes of
    max degree <= 6, and of `extremal_search` at (7, 5)."""
    parents = _parents(EnumSpec(8, 6))
    for last in (True, False):
        yield f"_level_up_last_{str(last).lower()}", 8, lambda last=last: list(_level_up(parents, 6, last))
    yield "extremal_search", 7, lambda: extremal_search(EnumSpec(7, 5))


def perron_calls():
    """(name, n, call) of `perron` on one connected G(n, 0.1) and on H1(n)."""
    for n in PERRON_ORDERS:
        for kind, g in (("gnp", random_connected_graph(random.Random(n), n, 0.1)), ("h1", build_family("h1", n))):
            yield f"perron_{kind}", n, lambda g=g: perron(g)


LAYERS = {
    "graph6": (graph6_calls, "G(n, 1/2), seeded by n"),
    "ordering": (ordering_calls, "the order-n quotient tables"),
    "signs": (signs_calls, "the sign table on 59..n and the order-n quotient tables"),
    "roots": (roots_calls, "the order-n quotient tables"),
    "charpoly": (charpoly_calls, "the n = 300 quotient matrices, and G(n, 1/2) seeded by n"),
    "canon": (canon_calls, "50 G(8, 1/2) seeded by 8, and six symmetric graphs of order 12"),
    "levelup": (levelup_calls, "the classes of order 7 and max degree <= 6, and EnumSpec(7, 5)"),
    "perron": (perron_calls, "one connected G(n, 0.1) seeded by n, and H1(n)"),
}


def measure(layer: str, k: int) -> dict:
    calls, inputs = LAYERS[layer]
    us: dict[str, dict[str, float]] = {}
    for name, n, call in calls():
        us.setdefault(name, {})[str(n)] = round(per_call_us(call, k), 2)
    machine = {
        "platform": platform.platform(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return {"k": k, "layer": layer, "input": inputs, "machine": machine, "median_us_per_call": us}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layer", required=True, choices=sorted(LAYERS))
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--k", type=int, default=9)
    args = ap.parse_args()
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = measure(args.layer, args.k)
    args.out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
