"""The randomized sweeps of `verify lemmas` draw their graphs in rounds of at
most `suites.ROUND` and solve each round together with `perron_all`. The
local-switching sweep solves the round's switched graphs with one
`spectral_radii` call, and the quotient-bound sweep the round's quotients with
one `quotient_radii` call. They must check the graphs, moves and partitions, with
the verdicts, that drawing and solving one graph at a time checks, and leave
the generator in the same state. And a wrong rho from the stacked solve must
fail the checks that read it, through the CLI."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

from specmax import suites
from specmax.cli import main
from specmax.graphs import graph6_encode, random_connected_graph
from specmax.spectral import PerronPair, perron, perron_all, quotient_radii, spectral_radii
from specmax.suites import component_bound_verdicts, ls_hypothesis, ls_verdicts, quotient_bound_verdicts
from specmax.switching import SwitchMove, apply

from quotient_inputs import solved_quotient


def serial_local_switching(rng, trials):
    checked = []
    done = graphs = 0
    while done < trials and graphs < 200 * trials:
        graphs += 1
        g = random_connected_graph(rng, rng.randint(5, 9), 0.45)
        move = suites._draw_switch(g, rng)
        if move is None:
            continue
        pair = perron(g)
        if ls_hypothesis(pair, move):
            # the switched graph, which may be disconnected, solved on its own
            rho_after = float(np.linalg.eigvalsh(apply(g, SwitchMove("LS", move)).to_numpy())[-1])
            done += 1
            checked.append((graph6_encode(g), (move, rho_after), ls_verdicts(g, pair, move, rho_after)))
    return checked


def serial_component_bound(rng, trials):
    checked = []
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(3, 10), 0.5)
        checked.append((graph6_encode(g), (), component_bound_verdicts(g, perron(g))))
    return checked


def serial_quotient_bound(rng, trials):
    checked = []
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.5)
        k = rng.randint(1, g.n - 1)
        cells = [[] for _ in range(k)]
        for v in range(g.n):
            cells[rng.randrange(k)].append(v)
        cells = [c for c in cells if c]
        spec, rho_b = solved_quotient(g, cells)
        verdicts = quotient_bound_verdicts(g, cells, spec, perron(g), rho_b)
        checked.append((graph6_encode(g), (cells, spec, rho_b), verdicts))
    return checked


SWEEPS = {
    "local_switching": (
        lambda rng, trials: suites.local_switching_failures(rng, trials),
        "ls_verdicts",
        serial_local_switching,
    ),
    "component_bound": (
        lambda rng, trials: suites.component_bound_failures(rng, trials, 3),
        "component_bound_verdicts",
        serial_component_bound,
    ),
    "quotient_bound": (
        lambda rng, trials: suites.quotient_bound_failures(rng, trials),
        "quotient_bound_verdicts",
        serial_quotient_bound,
    ),
}


def record_checks(monkeypatch, name):
    """Patch the verdict function `suites.<name>` to also record each call as
    (graph6, its arguments but the Perron pair, its verdicts)."""
    real = getattr(suites, name)
    checked = []

    def recorded(g, *args):
        verdicts = real(g, *args)
        rest = tuple(a for a in args if not isinstance(a, PerronPair))
        checked.append((graph6_encode(g), rest, verdicts))
        return verdicts

    monkeypatch.setattr(suites, name, recorded)
    return checked


def assert_same_as_serial(monkeypatch, sweep, trials):
    run, verdict_function, serial = SWEEPS[sweep]
    want_rng = random.Random(1800 + trials)
    want = serial(want_rng, trials)
    checked = record_checks(monkeypatch, verdict_function)
    rng = random.Random(1800 + trials)
    run(rng, trials)
    assert checked == want
    assert rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("trials", [0, 1, 7, 200, 2000])
@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_same_draws_and_verdicts_as_one_graph_at_a_time(monkeypatch, sweep, trials):
    assert_same_as_serial(monkeypatch, sweep, trials)


@pytest.mark.parametrize("trials", [7, 200])
@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_rounds_of_at_most_round_graphs(monkeypatch, sweep, trials):
    # with rounds of 3 graphs, every sweep here takes several rounds
    sizes, switched_sizes, quotient_sizes = [], [], []

    def counted(graphs, tol=1e-10):
        sizes.append(len(graphs))
        return perron_all(graphs, tol)

    def switched_counted(graphs):
        switched_sizes.append(len(graphs))
        return spectral_radii(graphs)

    def quotients_counted(specs):
        quotient_sizes.append(len(specs))
        return quotient_radii(specs)

    monkeypatch.setattr(suites, "ROUND", 3)
    monkeypatch.setattr(suites, "perron_all", counted)
    monkeypatch.setattr(suites, "spectral_radii", switched_counted)
    monkeypatch.setattr(suites, "quotient_radii", quotients_counted)
    assert_same_as_serial(monkeypatch, sweep, trials)
    assert len(sizes) > 1 and max(sizes) <= 3
    assert max(switched_sizes, default=0) <= 3
    assert (sum(switched_sizes) > 0) == (sweep == "local_switching")
    # one quotient solve per round, of that round's partitions
    assert quotient_sizes == (sizes if sweep == "quotient_bound" else [])


def test_local_switching_gives_up_after_200_graphs_per_trial(monkeypatch):
    drawn = []

    def counted(rng, n, p):
        drawn.append(n)
        return random_connected_graph(rng, n, p)

    monkeypatch.setattr(suites, "random_connected_graph", counted)
    monkeypatch.setattr(suites, "_draw_switch", lambda g, rng: None)
    rng, want = random.Random(2), random.Random(2)
    failures = suites.local_switching_failures(rng, 2)
    assert len(drawn) == 400
    for _ in range(400):
        random_connected_graph(want, want.randint(5, 9), 0.45)
    assert rng.getstate() == want.getstate()
    assert failures == [{"check": "ls_trials_completed", "n": None, "witness": "0/2"}]


# the checks that hold with equality: rho(G) = rho(B) on equitable partitions
# and family graphs, and (d_u - d_v) m = (lambda + 1)(x_u - x_v) on the
# pendant case-2 pair
EQUALITIES = {"quotient_bound", "quotient_equitable_equality", "family_quotient_rho", "case2_diff_gap"}


@pytest.mark.parametrize(
    "shift, checks",
    [
        (-1e-6, EQUALITIES),
        # the smallest strict gaps of the default sweep are below 0.1
        (-0.1, EQUALITIES | {"quotient_bound_strict"}),
        # the component bound has at least 0.4 of headroom on the default
        # sweep, and every switch then lowers rho
        (1.0, {"perron_component_bound", "ls_monotone", "quotient_equitable_equality", "family_quotient_rho"}),
    ],
)
def test_shifted_rho_fails_verify_lemmas(monkeypatch, capsys, shift, checks):
    def shifted(graphs, tol=1e-10):
        return [replace(pair, rho=pair.rho + shift) for pair in perron_all(graphs, tol)]

    monkeypatch.setattr(suites, "perron_all", shifted)
    assert main(["verify", "lemmas"]) == 1
    assert {record["check"] for record in json.loads(capsys.readouterr().out)["failures"]} == checks
