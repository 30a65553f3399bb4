"""Tests for the flat cell-id kernel core (`repro.routing.core`).

The property tests pin the tentpole invariant of the refactor: the fused
:class:`SearchSpace` blocked-mask must agree cell-for-cell with the
legacy per-cell composition the kernels used before — ``grid.is_free``
AND ``occupancy.is_routable`` AND not-an-extra-obstacle — including the
own-net-routable case.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import design_by_name
from repro.geometry.point import Point
from repro.grid.grid import RoutingGrid
from repro.grid.occupancy import FREE, Occupancy
from repro.observability import Metrics, use
from repro.routing.astar import astar_route
from repro.routing.core import (
    SearchSpace,
    astar_search,
    bfs_search,
    query_space,
)
from repro.routing.core.engine import _astar_scalar, _bfs_scalar


def _random_scene(seed):
    """Build a seeded grid + occupancy + extra obstacles."""
    rng = random.Random(seed)
    w, h = rng.randrange(4, 14), rng.randrange(4, 14)
    grid = RoutingGrid(w, h)
    for _ in range(rng.randrange(0, (w * h) // 3)):
        grid.set_obstacle(Point(rng.randrange(w), rng.randrange(h)))
    occupancy = Occupancy(grid)
    for net in (1, 2, 3):
        cells = {
            Point(rng.randrange(w), rng.randrange(h))
            for _ in range(rng.randrange(0, 8))
        }
        occupancy.occupy(
            sorted(p for p in cells if occupancy.owner(p) == FREE), net
        )
    extra = {
        Point(rng.randrange(w), rng.randrange(h))
        for _ in range(rng.randrange(0, 6))
    }
    return grid, occupancy, extra


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_searchspace_matches_legacy_routability_composition(seed):
    grid, occupancy, extra = _random_scene(seed)
    for net in (FREE, 1, 2):  # net 1/2 exercise own-net-routable cells
        space = SearchSpace(
            grid, net=net, occupancy=occupancy, extra_obstacles=extra
        )
        for y in range(grid.height):
            for x in range(grid.width):
                p = Point(x, y)
                legacy = (
                    grid.is_free(p)
                    and occupancy.is_routable(p, net)
                    and p not in extra
                )
                assert space.routable(p) == legacy, (net, p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_extra_obstacle_ids_equal_extra_obstacle_points(seed):
    grid, occupancy, extra = _random_scene(seed)
    by_point = SearchSpace(
        grid, net=1, occupancy=occupancy, extra_obstacles=extra
    )
    by_id = SearchSpace(
        grid,
        net=1,
        occupancy=occupancy,
        extra_obstacle_ids={grid.index(p) for p in extra},
    )
    assert bytes(by_point.blocked) == bytes(by_id.blocked)


def test_searchspace_tolerates_off_chip_extra_obstacles():
    grid = RoutingGrid(5, 5)
    space = SearchSpace(grid, extra_obstacles={Point(-1, 0), Point(4, 17)})
    assert space.routable(Point(0, 0))
    assert not space.routable(Point(-1, 0))  # out of bounds is unroutable
    assert not space.routable(Point(4, 17))


def test_materialize_round_trips_ids():
    grid = RoutingGrid(7, 3)
    space = SearchSpace(grid)
    cells = [Point(2, 1), Point(3, 1), Point(3, 2)]
    ids = [space.index(p) for p in cells]
    assert list(space.materialize(ids)) == cells
    assert [space.point(i) for i in ids] == cells


def test_engines_agree_on_path_length():
    grid = RoutingGrid(12, 12)
    for y in range(1, 12):
        grid.set_obstacle(Point(6, y))
    space = SearchSpace(grid)
    a = astar_search(space, [Point(0, 11)], [Point(11, 11)])
    b = bfs_search(space, [Point(0, 11)], [Point(11, 11)])
    assert a is not None and b is not None
    assert len(a) == len(b)


# --------------------------------------------------------------------------
# Counter semantics: source seeds are not heap pushes


def test_heap_pushes_exclude_source_seeds():
    """Seeding a source is not a push; only real frontier pushes count."""
    grid = RoutingGrid(8, 8)
    registry = Metrics()
    with use(metrics=registry):
        path = astar_route(grid, [Point(0, 0)], [Point(1, 0)])
    assert path is not None and path.length == 1
    # Expanding the single settled cell (0,0) pushes exactly its East and
    # South neighbours; the pre-engine kernel also counted the seed (2+1).
    assert registry.counter("astar.expansions").value == 1
    assert registry.counter("astar.heap_pushes").value == 2


def test_heap_pushes_exclude_every_source_of_a_multi_source_query():
    grid = RoutingGrid(8, 8)
    registry = Metrics()
    with use(metrics=registry):
        path = astar_route(
            grid, [Point(0, 0), Point(7, 7), Point(0, 7)], [Point(1, 0)]
        )
    assert path is not None and path.length == 1
    # Three seeds enter the heap unbilled; the one expansion ((0,0), the
    # nearest seed) pushes its two in-bounds free neighbours.
    assert registry.counter("astar.heap_pushes").value == 2


# --------------------------------------------------------------------------
# SpaceCache: incrementally patched checkouts == freshly fused snapshots


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_spacecache_incremental_matches_rebuilt(seed):
    """An incrementally invalidated checkout is bit-identical to a rebuild.

    Randomized interleavings of every Occupancy mutator with cache
    checkouts (varying net and query-local extras, so each checkout must
    also undo the previous one's patches).
    """
    rng = random.Random(seed)
    w, h = rng.randrange(4, 12), rng.randrange(4, 12)
    grid = RoutingGrid(w, h)
    for _ in range(rng.randrange(0, (w * h) // 4)):
        grid.set_obstacle(Point(rng.randrange(w), rng.randrange(h)))
    occupancy = Occupancy(grid)
    size = w * h

    def random_ids(n):
        return [rng.randrange(size) for _ in range(rng.randrange(0, n))]

    for _ in range(rng.randrange(2, 12)):
        op = rng.randrange(5)
        if op == 0:
            net = rng.randrange(1, 4)
            free = [
                cid
                for cid in random_ids(8)
                if occupancy.owner_id(cid) in (FREE, net)
            ]
            occupancy.occupy_ids(free, net)
        elif op == 1:
            occupancy.release_ids(rng.randrange(1, 4))
        elif op == 2:
            occupancy.release_cell_ids(random_ids(6))
        elif op == 3:
            cells = [
                Point(cid % w, cid // w)
                for cid in random_ids(6)
                if occupancy.owner_id(cid) == FREE
            ]
            occupancy.occupy(cells, rng.randrange(1, 4))
        # op == 4: no mutation — consecutive checkouts must also agree.

        net = rng.choice([FREE, 1, 2, 3])
        extra = set(random_ids(4)) or None
        cached = query_space(
            grid, net=net, occupancy=occupancy, extra_obstacle_ids=extra
        )
        fresh = SearchSpace(
            grid, net=net, occupancy=occupancy, extra_obstacle_ids=extra
        )
        assert bytes(cached.blocked) == bytes(fresh.blocked), (net, extra)


# --------------------------------------------------------------------------
# Vectorised engines == scalar reference engines, over the S1-S5 designs


def _design_scene(name, seed):
    """The design's grid plus a seeded occupancy over its valve cells.

    A ``"x2"`` suffix lifts the design onto two layers (unit via cost);
    its queries then draw ``(x, y, z)`` cells from both layers.
    """
    base, _, lifted = name.partition("x")
    design = design_by_name(base)
    if lifted:
        design = design.with_layers(int(lifted), via_cost=1)
    grid = design.grid
    rng = random.Random(seed)
    occupancy = Occupancy(grid)
    for valve in design.valves:
        occupancy.occupy([valve.position], 1 + (valve.id % 3))
    if lifted:
        cells = [
            (x, y, z)
            for z in range(grid.layers)
            for y in range(grid.height)
            for x in range(grid.width)
        ]
    else:
        cells = [
            Point(x, y) for y in range(grid.height) for x in range(grid.width)
        ]
    queries = []
    for _ in range(6):
        srcs = [rng.choice(cells) for _ in range(rng.randrange(1, 3))]
        tgts = [rng.choice(cells) for _ in range(rng.randrange(1, 3))]
        queries.append((rng.choice([FREE, 1, 2, 3]), srcs, tgts))
    return grid, occupancy, queries


@pytest.mark.parametrize(
    "name", ["S1", "S2", "S3", "S4", "S5", "S4x2", "S5x2"]
)
def test_wave_astar_paths_identical_to_scalar(name):
    """The whole-frontier wave A* returns the scalar engine's exact path."""
    grid, occupancy, queries = _design_scene(name, seed=sum(name.encode()))
    for net, srcs, tgts in queries:
        space = SearchSpace(grid, net=net, occupancy=occupancy)
        wave = astar_search(space, srcs, tgts)  # history=None -> wave
        scalar = _astar_scalar(space, srcs, set(tgts), None, None, None)
        assert wave == scalar, (net, srcs, tgts)


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
def test_wave_bfs_paths_identical_to_scalar(name):
    """The whole-frontier Lee wave returns the scalar engine's exact path."""
    grid, occupancy, queries = _design_scene(
        name, seed=1 + sum(name.encode())
    )
    for net, srcs, tgts in queries:
        space = SearchSpace(grid, net=net, occupancy=occupancy)
        assert bfs_search(space, srcs, tgts) == _bfs_scalar(
            space, srcs, tgts
        ), (net, srcs, tgts)
