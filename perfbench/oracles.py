"""Checks against networkx's graph atlas, run once per run on what the
first pass of `exhaustive` wrote (the atlas holds every graph on up to 7
vertices, so it decides the class counts and the emitted class set)."""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import networkx as nx
import numpy as np

import reference as ref
from workloads import CLASSES, ENUM_N, LEVEL7, Checks


def _atlas(n: int) -> tuple[list, list]:
    """Connected graphs of order n with max degree <= n-2, and the nonregular
    ones among them whose max degree is exactly n-2."""
    level, classes = [], []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != n or not nx.is_connected(g):
            continue
        degs = [d for _, d in g.degree()]
        if max(degs) <= n - 2:
            level.append(g)
            if max(degs) == n - 2 and min(degs) < n - 2:
                classes.append(g)
    return level, classes


def _rho(g) -> float:
    return ref.rho(nx.to_numpy_array(g))


def exhaustive(c: Checks, work: Path, kept: dict) -> None:
    err = kept.get("theorem_n2", {}).get("err", "")
    reported = {
        int(m[1]): (int(m[2]), float(m[3]))
        for m in re.finditer(r"n=(\d+): \d+ maximizer\(s\) over (\d+) classes, rho=([-0-9.e]+)", err)
    }
    for n in range(5, ENUM_N + 1):
        level, classes = _atlas(n)
        top = max(_rho(g) for g in classes)
        c(f"atlas n={n}: class count", len(classes) == CLASSES[n] == reported.get(n, (None,))[0])
        c(f"atlas n={n}: max rho", abs(reported.get(n, (0, 0.0))[1] - top) < 1e-8)

    lines = (work / "enum7.g6").read_text().split()
    emitted = [nx.from_graph6_bytes(s.encode()) for s in lines]
    with warnings.catch_warnings():  # hashes are only compared within this run
        warnings.simplefilter("ignore", UserWarning)
        buckets: dict[str, list] = {}
        for g in classes:
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
        hashes = [nx.weisfeiler_lehman_graph_hash(g) for g in emitted]
    matched = 0
    for g, h in zip(emitted, hashes):
        bucket = buckets.get(h, [])
        hit = next((i for i, other in enumerate(bucket) if nx.is_isomorphic(g, other)), None)
        if hit is not None:
            bucket.pop(hit)
            matched += 1
    c("atlas n=7: emitted classes match one to one", matched == len(emitted) == CLASSES[ENUM_N])

    rhos = np.array([_rho(g) for g in emitted])
    best = emitted[int(rhos.argmax())]
    n, edges = ref.family_g(ENUM_N, ENUM_N - 3)
    c("atlas n=7: maximizer is G(7, 4)", nx.is_isomorphic(best, nx.Graph(edges)))

    state = json.loads((work / "enum7.ckpt.json").read_text())
    c("atlas n=7: checkpoint level size", len(state["codes"]) == len(level) == LEVEL7)

