"""Source hygiene of the package, checked with the standard library's `ast`:
no module under `src/specmax` imports a name it never uses, and every
function, class, method and dataclass field it defines is read somewhere in
the package. The package root binds nothing but `os`. Every switching move
kind is built by some `SwitchMove` call in `suites.py`, so no rewrite stays
in `switching` without a verdict, no verdict function in `suites.py` makes
an eigensolve of its own, and every check name `suites.py` can report is
named in a test module.

Reads are matched by name alone, not by the object read from. So a
definition counts as read when any module reads an attribute of the same
name: an unread dataclass field `n` passes as long as `Graph.n` or
`EnumSpec.n` is read anywhere. A name shared with a read attribute
elsewhere is not checked at all."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

from specmax.switching import KINDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specmax"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_detects_an_unused_import():
    source = "import os\nimport sys\nfrom math import inf, nextafter\nprint(sys.argv, inf)\n"
    assert unused_imports(source) == ["nextafter (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def dead_names(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the given modules, and the
    non-dunder methods and properties of their top-level classes, that no
    module reads, as a name or an attribute, outside the definition itself,
    and the fields of their top-level dataclasses that no module reads as an
    attribute outside the field's own line; `sources` maps module names to
    source text."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                defs.append((f"{module}.{node.name}", node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{member.name}", member.name, member, False)
                    for member in node.body
                    if isinstance(member, FUNCTIONS) and not _is_dunder(member.name)
                ]
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                defs += [
                    (f"{module}.{node.name}.{member.target.id}", member.target.id, member, True)
                    for member in node.body
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                ]
    names, attributes = defaultdict(list), defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id].append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes[node.attr].append(node)
    dead = []
    for qualname, name, node, is_field in defs:
        own = {id(n) for n in ast.walk(node)}
        readers = attributes[name] if is_field else names[name] + attributes[name]
        if all(id(reader) in own for reader in readers):
            dead.append(f"{qualname} (line {node.lineno})")
    return dead


def test_detects_dead_names():
    defining = """
def called_elsewhere():
    return 1

def unused():
    return 2

def recursive(k):
    return recursive(k - 1) if k else 0

class Box:
    def read(self):
        return 0

    def unread(self):
        return self.read()

    def __len__(self):
        return 0

@dataclass(frozen=True)
class Pair:
    read: int
    unread: float = 0.0

    def total(self):
        return self.read
"""
    calling = "from a import Box, Pair, called_elsewhere\n\nprint(called_elsewhere(), Box().read(), Pair(1, 2.0).total())\n"
    assert dead_names({"a": defining, "b": calling}) == [
        "a.unused (line 5)",
        "a.recursive (line 8)",
        "a.Box.unread (line 15)",
        "a.Pair.unread (line 24)",
    ]


def test_no_dead_names():
    assert dead_names({path.stem: path.read_text() for path in MODULES}) == []


def bound_names(source: str) -> set[str]:
    """The names a module binds at its top level, by import, assignment or
    definition."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return bound


def test_detects_bound_names():
    source = """
import os.path
from .graphs import Graph as G

__version__ = "0"
a, b = 1, 2
c: int = 3

def f(x):
    y = x
"""
    assert bound_names(source) == {"os", "G", "__version__", "a", "b", "c", "f"}


def test_package_root_binds_only_os():
    # the root sets the BLAS thread defaults and exports nothing: every
    # caller imports from the module that defines the name
    assert bound_names((PACKAGE / "__init__.py").read_text()) == {"os"}


def unrun_move_kinds(source: str, kinds) -> list[str]:
    """The move kinds that are not the string first argument of any
    `SwitchMove(...)` call in the source: rewrites no verdict runs."""
    run = {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "SwitchMove"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    return [kind for kind in kinds if kind not in run]


def test_detects_unrun_move_kinds():
    source = """
def verdicts(g, move):
    return apply(g, SwitchMove("LS", move))

def other(g, kind):
    SwitchMove(kind, (0, 1, 2))
    Other("Op2", ())
    return "Op1"
"""
    assert unrun_move_kinds(source, ("LS", "Op1", "Op2")) == ["Op1", "Op2"]


def test_every_move_kind_has_a_verdict():
    assert unrun_move_kinds((PACKAGE / "suites.py").read_text(), KINDS) == []


# the eigensolve entry points of `specmax.spectral`
SOLVES = {"perron", "perron_all", "spectral_radius", "spectral_radii", "quotient_radii"}


def solving_verdict_functions(source: str) -> list[str]:
    """The functions named `*_verdicts` that call one of `SOLVES`, by name
    or as an attribute, or that call `.rho()`, the solve of one quotient:
    verdicts that solve instead of reading the Perron pairs and spectral
    radii they are handed."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS) and node.name.endswith("_verdicts"):
            called = {
                getattr(call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
            if called & SOLVES or "rho" in called:
                bad.append(node.name)
    return bad


def test_detects_a_solving_verdict_function():
    source = """
def handed_verdicts(g, pair):
    return [("a", pair.rho > 0, "")]

def solving_verdicts(g):
    return [("b", perron(g).rho > 0, "")]

def stacked_verdicts(graphs):
    return [("c", spectral.perron_all(graphs)[0].rho > 0, "")]

def sweep(g):
    return handed_verdicts(g, perron(g))

def switched_verdicts(g, move):
    return [("d", spectral_radii([apply(g, move)])[0] > 0, "")]

# local switching as it was when it solved the switched graph itself
def ls_verdicts(g: Graph, pair: PerronPair, s: int, t: int, v: int, u: int) -> list[tuple[str, bool, str]]:
    x = pair.vector
    if (x[s] - x[u]) * (x[v] - x[t]) < 0:
        return []
    rho_after = spectral_radius(apply(g, SwitchMove("LS", (s, t, v, u))))
    return [("ls_monotone", rho_after >= pair.rho - 1e-9, f"{graph6_encode(g)} {s},{t},{v},{u}")]
"""
    assert solving_verdict_functions(source) == [
        "solving_verdicts",
        "stacked_verdicts",
        "switched_verdicts",
        "ls_verdicts",
    ]


def test_detects_a_verdict_function_solving_a_quotient():
    source = """
# the two quotient verdicts as they were when each solved its own quotients
def quotient_bound_verdicts(g: Graph, cells, pair: PerronPair) -> list[tuple[str, bool, str]]:
    witness = f"{graph6_encode(g)} {cells}"
    spec = quotient(g, cells)
    rho_b = spec.rho()
    x = pair.vector
    verdicts = [("quotient_bound", pair.rho >= rho_b - 1e-9, witness)]
    if spec.equitable:
        verdicts.append(("quotient_equitable_equality", abs(pair.rho - rho_b) < 1e-9, witness))
    elif not all(max(x[v] for v in c) - min(x[v] for v in c) < 1e-7 for c in cells):
        verdicts.append(("quotient_bound_strict", pair.rho > rho_b, witness))
    return verdicts

def family_quotient_verdicts(
    g: Graph, cells, pair: PerronPair, looped_pair: PerronPair
) -> list[tuple[str, bool, str]]:
    witness = f"{graph6_encode(g)} {cells}"
    base = quotient(g, cells)
    shifted = quotient(g.add_loops(), cells)
    rho_g = pair.rho
    rho_b = base.rho()
    m = len(base.matrix)
    plus_2i = all(
        shifted.matrix[i][j] == base.matrix[i][j] + 2 * (i == j) for i in range(m) for j in range(m)
    )
    return [
        ("family_equitable", base.equitable, witness),
        ("family_quotient_rho", abs(rho_g - rho_b) < 1e-9, witness),
        (
            "loop_shift",
            shifted.equitable
            and plus_2i
            and abs(looped_pair.rho - (rho_g + 2)) < 1e-9
            and abs(shifted.rho() - (rho_b + 2)) < 1e-9,
            witness,
        ),
    ]

def handed_verdicts(g, cells, spec, pair, rho_b):
    return [("c", pair.rho >= rho_b - 1e-9 and spec.equitable, "")]

def stacked_cell_verdicts(g, cells, pair):
    return [("d", pair.rho >= quotient_radii([quotient(g, cells)])[0] - 1e-9, "")]
"""
    assert solving_verdict_functions(source) == [
        "quotient_bound_verdicts",
        "family_quotient_verdicts",
        "stacked_cell_verdicts",
    ]


def test_verdict_functions_do_not_solve():
    assert solving_verdict_functions((PACKAGE / "suites.py").read_text()) == []


def _verdict_names(node: ast.AST):
    """The string first element of each tuple under node that holds more
    than strings: `("check", holds, witness)`, not `("Op1", "Op2")`."""
    for t in ast.walk(node):
        if (
            isinstance(t, ast.Tuple)
            and t.elts
            and isinstance(t.elts[0], ast.Constant)
            and isinstance(t.elts[0].value, str)
            and not all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in t.elts)
        ):
            yield t.elts[0].value


def check_names(source: str) -> set[str]:
    """The check names a suites source can write into a failure record: the
    first element of each verdict tuple in a `*_verdicts` function or in a
    `failure_records(...)` call, and each string a list named `bad` appends
    (the violation names a `family_ordering` record carries). The sign
    table's rows are controlled by index, in `test_cli.py`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS) and node.name.endswith("_verdicts"):
            names.update(_verdict_names(node))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "failure_records":
            for arg in node.args:
                names.update(_verdict_names(arg))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "append"
            and getattr(node.func.value, "id", None) == "bad"
        ):
            names.update(a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return names


def uncontrolled_checks(source: str, tests: list[str]) -> list[str]:
    """The check names of `check_names(source)` that no string constant of
    the test sources equals; the literal parts of an f-string do not count."""
    named = set()
    for test in tests:
        nodes = list(ast.walk(ast.parse(test)))
        parts = {id(part) for node in nodes if isinstance(node, ast.JoinedStr) for part in node.values}
        named.update(
            node.value
            for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in parts
        )
    return sorted(check_names(source) - named)


def test_detects_an_uncontrolled_check():
    source = """
def move_verdicts(g, move):
    if move.kind not in ("Op1", "Op2"):
        raise ValueError(move.kind)
    return [(check, ok, "") for check, ok in (("tested", g.ok), ("untested", True))]

def run(g):
    failures = failure_records(g.n, [("run_tested", g.ok, ""), ("run_untested", g.ok, "")])
    bad = []
    if g.n > 5:
        bad.append("bad_untested")
    bad.append(f"bad:{g.n}")
    rows = [("not_a_verdict", g.n)]
    return failures + failure_records(g.n, [("ordering", not bad, bad)])
"""
    tests = ['assert records == ["tested", "run_tested"]\n', 'CHECK = "ordering"\nprint(f"untested{1}")\n']
    assert check_names(source) == {
        "tested", "untested", "run_tested", "run_untested", "bad_untested", "ordering"
    }
    assert uncontrolled_checks(source, tests) == ["bad_untested", "run_untested", "untested"]


def test_every_check_name_is_named_in_a_test():
    tests = [
        path.read_text()
        for path in sorted(PACKAGE.parent.parent.joinpath("tests").glob("test_*.py"))
        if path.name not in ("test_hygiene.py", "test_golden.py")
    ]
    assert uncontrolled_checks((PACKAGE / "suites.py").read_text(), tests) == []
