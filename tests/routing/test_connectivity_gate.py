"""The A* connectivity gate: refutes exactly the unroutable queries.

Before a scalar search, ``astar_search`` runs a bidirectional BFS
(``_connected``) and returns None at once when no routable source shares
a component with a routable target.  These tests pin that the gate never
changes a result (``astar_search`` == the ungated ``_astar_scalar``),
that it refutes exactly when an independent networkx connectivity
oracle finds no routable pair, and how refuted queries meet the compute
budget.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_pacor
from repro.designs import design_by_name
from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid, cell_point
from repro.observability import Metrics, use
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded
from repro.robustness.faults import FaultSpec, inject
from repro.routing.core import SearchSpace, astar_search
from repro.routing.core import engine
from repro.routing.core.engine import _astar_scalar, _connected


def _random_gate_scene(seed):
    """A random small grid with obstacle pockets, plus one query.

    Planar or two-layer (random via keep-outs and via cost), with walls
    of random rectangles closing off pockets, scattered obstacles, and
    1-3 sources and targets that may be blocked, off-chip or shared.
    """
    rng = random.Random(seed)
    w, h = rng.randrange(3, 12), rng.randrange(3, 12)
    layers = rng.choice([1, 2])
    grid = RoutingGrid(w, h, layers, via_cost=rng.choice([1, 2, 3]))
    if layers > 1:
        for _ in range(rng.randrange(0, w * h)):
            grid.set_via_blocked(Point(rng.randrange(w), rng.randrange(h)))
    for _ in range(rng.randrange(0, 3)):
        z = rng.randrange(layers)
        x0, x1 = sorted(rng.randrange(w) for _ in range(2))
        y0, y1 = sorted(rng.randrange(h) for _ in range(2))
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                if x in (x0, x1) or y in (y0, y1):
                    grid.set_obstacle(cell_point(x, y, z))
    for _ in range(rng.randrange(0, (w * h * layers) // 3)):
        grid.set_obstacle(
            cell_point(rng.randrange(w), rng.randrange(h), rng.randrange(layers))
        )

    def cell():
        x = rng.randrange(-1, w + 1)
        y = rng.randrange(-1, h + 1)
        z = rng.randrange(layers)
        return (x, y) if layers == 1 else (x, y, z)

    sources = [cell() for _ in range(rng.randrange(1, 4))]
    targets = [cell() for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.15:
        targets.append(rng.choice(sources))
    history = None
    if rng.random() < 0.6:
        history = [rng.choice([0.0, 0.0, 0.5, 1.1, 50.0]) for _ in range(grid.size)]
    max_expansions = rng.choice([None, None, 0, rng.randrange(1, 40)])
    return SearchSpace(grid), sources, targets, history, max_expansions


def _oracle_reachable(space, sources, targets):
    """networkx: does any routable source share a component with a target?"""
    grid = space.grid
    w, h, layers = space.width, space.height, space.layers
    via_ok = grid.via_mask()

    def cid(x, y, z):
        if 0 <= x < w and 0 <= y < h and 0 <= z < layers:
            c = z * w * h + y * w + x
            if not space.blocked[c]:
                return c
        return None

    graph = nx.Graph()
    for z in range(layers):
        for y in range(h):
            for x in range(w):
                c = cid(x, y, z)
                if c is None:
                    continue
                graph.add_node(c)
                moves = [(x + 1, y, z), (x, y + 1, z)]
                if via_ok[y * w + x]:
                    moves.append((x, y, z + 1))
                for m in moves:
                    d = cid(*m)
                    if d is not None:
                        graph.add_edge(c, d)

    def ids(cells):
        out = set()
        for c in cells:
            x, y, z = c if len(c) == 3 else (c[0], c[1], 0)
            i = cid(x, y, z)
            if i is not None:
                out.add(i)
        return out

    src, dst = ids(sources), ids(targets)
    return any(nx.has_path(graph, s, t) for s in src for t in dst)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_gate_is_exact_and_never_changes_a_result(seed):
    space, sources, targets, history, cap = _random_gate_scene(seed)
    reachable = _oracle_reachable(space, sources, targets)
    assert _connected(space, sources, targets) == reachable
    metrics = Metrics()
    with use(metrics=metrics):
        got = astar_search(
            space,
            iter(sources),
            iter(targets),
            history=history,
            max_expansions=cap,
        )
    want = _astar_scalar(space, sources, set(targets), history, cap, None)
    assert got == want
    if want is not None:
        assert reachable
    elif cap is None:
        assert not reachable
    # Only scalar-engine queries are gated; the wave engine has no gate.
    scalar = history is not None or (
        space.layers > 1 and space.grid.via_cost != 1
    )
    refuted = metrics.counter("astar.refuted").value
    assert refuted == (1 if scalar and not reachable else 0)
    if refuted:
        assert metrics.counter("astar.expansions").value == 0
        assert metrics.counter("astar.heap_pushes").value == 0


def _pocket_query():
    """A 7x7 grid whose target (5, 5) is walled off from source (0, 0)."""
    grid = RoutingGrid(7, 7)
    for x in range(4, 7):
        grid.set_obstacle(Point(x, 4))
    for y in range(5, 7):
        grid.set_obstacle(Point(4, y))
    space = SearchSpace(grid)
    history = [0.0] * grid.size  # any history selects the scalar engine
    return space, [(0, 0)], [(5, 5)], history


def test_gate_refutes_a_walled_off_target_from_the_small_side():
    space, sources, targets, history = _pocket_query()
    metrics = Metrics()
    with use(metrics=metrics):
        assert astar_search(space, sources, targets, history=history) is None
    assert metrics.counter("astar.refuted").value == 1
    # The pocket is four cells; the target side runs dry after marking
    # it, having grown the source side by at most as many cells.
    assert metrics.counter("astar.refute_cells").value <= 4 + 8
    assert metrics.counter("astar.expansions").value == 0


def test_refuted_query_charges_no_budget():
    space, sources, targets, history = _pocket_query()
    budget = Budget(astar_expansions=5)
    assert (
        astar_search(space, sources, targets, history=history, budget=budget)
        is None
    )
    assert budget.expansions_used == 0
    # The ungated reference settles the source component and exhausts.
    with pytest.raises(BudgetExceeded):
        _astar_scalar(space, sources, set(targets), history, None, budget)


def test_budget_exhaustion_fault_fires_before_the_gate():
    space, sources, targets, history = _pocket_query()
    budget = Budget(astar_expansions=5)
    metrics = Metrics()
    with use(metrics=metrics), inject(FaultSpec("astar_budget_exhaustion")):
        with pytest.raises(BudgetExceeded):
            astar_search(
                space, sources, targets, history=history, budget=budget
            )
    assert metrics.counter("astar.refuted").value == 0
    assert budget.expansions_used == 0


def _s2_document(metrics):
    with use(metrics=metrics):
        doc = run_pacor(design_by_name("S2")).to_json()
    doc["summary"].pop("runtime_s")
    return doc


def test_s2_pacor_refutes_nine_searches_without_changing_the_result(
    monkeypatch,
):
    gated = Metrics()
    doc = _s2_document(gated)
    assert gated.counter("astar.refuted").value == 9
    monkeypatch.setattr(engine, "_connected", lambda space, s, t: True)
    ungated = Metrics()
    assert _s2_document(ungated) == doc
    assert ungated.counter("astar.refuted").value == 0
    assert (
        ungated.counter("astar.expansions").value
        > gated.counter("astar.expansions").value
    )
