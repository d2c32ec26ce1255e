"""Spans around the public functions of each specmax layer, taken from
outside the package.

`Tracer.install` replaces every binding of a listed function in every
loaded `specmax.*` module (its home module and each module that imported
it by name) with a wrapper that records a span: name, start, end and the
span it ran inside. Spans stay in memory; `write` saves them at the end of
the run. `Tracer.remove` puts the original functions back.

Self time of a span is its duration minus the durations of its direct
children. Work in a function that is not listed, such as `Graph` methods
or `cli` helpers, counts toward the nearest listed caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

# span name -> (module, functions). Each name is one row of the per-layer table.
SPANS = {
    "graphs.canonical_form": ("graphs", ["canonical_form"]),
    "graphs.graph6": ("graphs", ["graph6_encode", "graph6_decode"]),
    "enumeration.extremal_search": ("enumeration", ["extremal_search"]),
    "enumeration.enumerate_graphs": ("enumeration", ["enumerate_graphs"]),
    "spectral.perron": ("spectral", ["perron"]),
    "intpoly.count_roots": ("intpoly", ["count_roots"]),
    "intpoly.char_poly": ("intpoly", ["char_poly"]),
    "intpoly.compare_max_real_roots": ("intpoly", ["compare_max_real_roots"]),
    "intpoly.isolate_max_real_root": ("intpoly", ["isolate_max_real_root"]),
    "families.named_quotient": ("families", ["named_quotient"]),
    "families.build": (
        "families",
        ["build_g", "build_h1", "build_h2", "build_g2_1", "build_from_profile", "build_case2"],
    ),
    "partition.quotient": ("partition", ["quotient"]),
    "partition.loop_shift_check": ("partition", ["loop_shift_check"]),
    "switching.ls_certificate": ("switching", ["ls_certificate"]),
    "switching.apply": ("switching", ["apply"]),
    "switching.op_checks": ("switching", ["op1_sandwich_check", "op2_monotone_check"]),
    "cli": ("cli", ["main"]),
}
PERCENTILES = ("graphs.canonical_form", "spectral.perron", "intpoly.count_roots")
NO_CALLS = ("switching.op_checks",)

# Per-layer metrics: (name, unit, better). run.py prints them in this order.
METRICS = []
for _span in SPANS:
    if _span == "cli":
        continue
    if _span not in NO_CALLS:
        METRICS.append((f"{_span}.calls", "count", "lower"))
    METRICS.append((f"{_span}.self_s", "s", "lower"))
    if _span in PERCENTILES:
        METRICS += [(f"{_span}.p50_us", "us", "lower"), (f"{_span}.p99_us", "us", "lower")]
METRICS += [
    ("enumeration.classes", "count", "lower"),
    ("enumeration.dedup_yield", "ratio", "higher"),
    ("spectral.perron.iterations", "count", "lower"),
    ("intpoly.separator_hit_ratio", "ratio", "higher"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.passes: list[tuple[int, int, float]] = []  # span range and wall time
        self.counts: list[Counter] = []
        self.dropped: dict[str, str] = {}
        self._pass: Counter = Counter()
        self._forms: set = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, site: str):
        counts = self._pass
        tracer = self
        hook = self._hook(name, site)

        if inspect.isgeneratorfunction(fn):

            def gen_span(*args, **kwargs):
                counts[name] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        counts["enumeration.classes"] += 1
                        yield item
                finally:
                    it.close()

            return gen_span

        def span(*args, **kwargs):
            counts[name] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(result)
            return result

        return span

    def _hook(self, name: str, site: str):
        """Counters read from return values at the layer boundary."""
        counts = self._pass
        if name == "graphs.canonical_form":
            return self._forms.add
        if name == "spectral.perron":
            return lambda pair: counts.update({"spectral.perron.iterations": pair.iterations})
        # The suites in cli try each competitor against a separator first
        # (count_roots == 0 settles it) and fall back to a pairwise comparison.
        if site == "cli" and name == "intpoly.count_roots":
            return lambda k: counts.update({"separator.hits": k == 0})
        if site == "cli" and name == "intpoly.compare_max_real_roots":
            return lambda _: counts.update({"separator.fallbacks": 1})
        return None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for name, (module, funcs) in SPANS.items():
            try:
                mod = importlib.import_module(f"specmax.{module}")
            except ImportError:
                self.dropped[name] = f"specmax.{module} not found"
                continue
            for f in funcs:
                fn = getattr(mod, f, None)
                if callable(fn):
                    originals[id(fn)] = (name, fn)
                else:
                    self.dropped[name] = f"specmax.{module}.{f} not found"
        for modname, mod in list(sys.modules.items()):
            if modname != "specmax" and not modname.startswith("specmax."):
                continue
            site = modname.rpartition(".")[2]
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][1] is val:
                    name, fn = originals[id(val)]
                    setattr(mod, attr, self._wrap(name, fn, site))
                    self._patched.append((mod, attr, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def begin_pass(self) -> None:
        self._pass.clear()
        self._forms.clear()
        self._lo = len(self.start)

    def end_pass(self, wall: float) -> None:
        counts = Counter(self._pass)
        counts["graphs.distinct_forms"] = len(self._forms)
        self.counts.append(counts)
        self.passes.append((self._lo, len(self.start), wall))

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Save every span as [name, start, end, parent], plus pass ranges."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "passes": self.passes,
                    "spans": [
                        [n, s, e, p]
                        for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
                    ],
                },
                fh,
            )

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics (medians over traced passes) and self-time shares."""
        names = np.array(self.names, dtype=object)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child

        per_pass: dict[str, list[float]] = {}
        shares: dict[str, list[float]] = {}
        for (lo, hi, wall), counts in zip(self.passes, self.counts):
            sel = names[lo:hi]
            layer_self = Counter()
            for span in SPANS:
                mask = sel == span
                s = float(own[lo:hi][mask].sum())
                per_pass.setdefault(f"{span}.self_s", []).append(s)
                per_pass.setdefault(f"{span}.calls", []).append(counts[span])
                layer_self[span.split(".")[0]] += s
            for layer, s in layer_self.items():
                shares.setdefault(layer, []).append(s / wall)
            traced = float(dur[lo:hi][sel == "cli"].sum())
            shares.setdefault("benchmark checks", []).append((wall - traced) / wall)
            per_pass.setdefault("enumeration.classes", []).append(counts["enumeration.classes"])
            calls = counts["graphs.canonical_form"]
            per_pass.setdefault("enumeration.dedup_yield", []).append(
                counts["graphs.distinct_forms"] / calls if calls else 0.0
            )
            per_pass.setdefault("spectral.perron.iterations", []).append(
                counts["spectral.perron.iterations"]
            )
            tried = counts["separator.hits"] + counts["separator.fallbacks"]
            per_pass.setdefault("intpoly.separator_hit_ratio", []).append(
                counts["separator.hits"] / tried if tried else 0.0
            )
        out = {k: float(np.median(v)) for k, v in per_pass.items()}
        for span in PERCENTILES:
            d = np.sort(dur[names == span]) * 1e6
            out[f"{span}.p50_us"] = _rank(d, 0.50)
            out[f"{span}.p99_us"] = _rank(d, 0.99)
        return out, {k: float(np.median(v)) for k, v in shares.items()}


def _rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not len(sorted_values):
        return 0.0
    k = max(0, int(np.ceil(q * len(sorted_values))) - 1)
    return float(sorted_values[k])
