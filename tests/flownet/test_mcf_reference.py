"""Bit-identity of the min-cost-flow solver against a reference copy.

``_reference_solve`` is the successive-shortest-paths solver as it stood
before the numpy distance sweep and shortest-path replay: one full
Dial-bucket Dijkstra per augmentation, float potentials (its binary-heap
branch for fractional costs is left out; such costs are now rejected).
Every solve here must match it exactly: the flow on every arc,
``(flow, cost)`` and the number of augmenting paths.  Each case runs
twice, once with the solver choosing its search per augmentation and
once with the sweep forced on every augmentation, so small networks
check the sweep too.
"""

import heapq
import random
from contextlib import contextmanager
from typing import List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import run_method
from repro.designs.suite import design_by_name
from repro.escape import EscapeSource, solve_escape
from repro.flownet import MinCostFlow, mincostflow
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.observability import context as obs
from repro.observability.metrics import Metrics
from tests.property.test_flow_props import escape_instances

_INF = float("inf")

MODES = ("auto", "sweep")


def _reference_solve(
    net: MinCostFlow, source: int, sink: int, max_flow: Optional[int] = None
) -> Tuple[int, float, int]:
    """Solve ``net`` in place; return ``(flow, cost, augmentations)``."""
    n = net.n
    m = net._m
    order, indptr = net._adjacency()
    indptr_l = indptr.tolist()
    cto = net._to[:m][order].tolist()
    ccost = net._cost[:m][order].tolist()
    ccap = net._cap[:m][order].tolist()
    inv = np.empty(m, dtype=np.int64)
    inv[order] = np.arange(m, dtype=np.int64)
    cpair = inv[order ^ 1].tolist()
    arcs_of = list(map(range, indptr_l[:-1], indptr_l[1:]))

    potential: List[float] = [0.0] * n
    flow_value = 0
    total_cost = 0.0
    limit = max_flow if max_flow is not None else _INF
    augmentations = 0
    while flow_value < limit:
        dist = [_INF] * n
        parent = [-1] * n
        settled = bytearray(n)
        dist[source] = 0.0
        buckets: dict = {0: [source]}
        key_heap = [0]
        while key_heap:
            kb = key_heap[0]
            bucket = buckets[kb]
            heapq.heapify(bucket)
            sink_hit = False
            while bucket:
                u = heapq.heappop(bucket)
                if settled[u]:
                    continue
                settled[u] = 1
                if u == sink:
                    sink_hit = True
                    break
                d = dist[u]
                pot_u = potential[u]
                for j in arcs_of[u]:
                    if ccap[j] <= 0:
                        continue
                    v = cto[j]
                    if settled[v]:
                        continue
                    nd = d + ccost[j] + pot_u - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = j
                        key = int(nd)
                        other = buckets.get(key)
                        if other is None:
                            buckets[key] = [v]
                            heapq.heappush(key_heap, key)
                        elif other is bucket:
                            heapq.heappush(bucket, v)
                        else:
                            other.append(v)
            if sink_hit:
                break
            del buckets[kb]
            heapq.heappop(key_heap)
        if not settled[sink]:
            break
        augmentations += 1
        d_sink = dist[sink]
        pot_np = np.asarray(potential, dtype=np.float64)
        pot_np += np.minimum(np.asarray(dist, dtype=np.float64), d_sink)
        potential = pot_np.tolist()

        bottleneck = limit - flow_value
        v = sink
        while v != source:
            j = parent[v]
            bottleneck = min(bottleneck, ccap[j])
            v = cto[cpair[j]]
        v = sink
        while v != source:
            j = parent[v]
            ccap[j] -= bottleneck
            ccap[cpair[j]] += bottleneck
            total_cost += bottleneck * ccost[j]
            v = cto[cpair[j]]
        flow_value += int(bottleneck)
    net._cap[:m][order] = ccap
    return flow_value, total_cost, augmentations


def _unsolved_copy(net: MinCostFlow) -> MinCostFlow:
    twin = MinCostFlow(net.n)
    m = net._m
    twin.add_arcs(net._tail[:m:2], net._to[:m:2], net._cap[:m:2], net._cost[:m:2])
    return twin


@contextmanager
def _checked_solves(mode: str):
    """Record every solve in the block beside the reference's answer.

    Yields a list of ``(solver answer, reference answer)`` pairs, each
    ``(flow, cost, augmentations, solved capacities)``.  They are
    compared after the block: the flow stages catch exceptions raised
    inside a solve.
    """
    real = MinCostFlow.max_flow_min_cost
    pairs: List[Tuple[tuple, tuple]] = []

    def checked(self, source, sink, max_flow=None):
        twin = _unsolved_copy(self)
        metrics = Metrics()
        with obs.use(metrics=metrics):
            flow, cost = real(self, source, sink, max_flow)
        augs = metrics.snapshot().get("mcf.augmenting_paths", 0)
        ref = _reference_solve(twin, source, sink, max_flow)
        pairs.append(
            ((flow, cost, augs, self._cap[: self._m].copy()),
             ref + (twin._cap[: twin._m].copy(),))
        )
        return flow, cost

    sweep_from = 0 if mode == "sweep" else mincostflow._SWEEP_MIN_BALL
    with mock.patch.object(MinCostFlow, "max_flow_min_cost", checked), \
            mock.patch.object(mincostflow, "_SWEEP_MIN_BALL", sweep_from):
        yield pairs


def _assert_identical(pairs) -> None:
    assert pairs
    for got, want in pairs:
        assert got[:3] == want[:3]
        assert np.array_equal(got[3], want[3])


def _random_network(rng: random.Random, n: int, draws: int) -> MinCostFlow:
    """The networkx comparison's recipe: caps 1-4, antiparallel arcs."""
    net = MinCostFlow(n)
    used = set()
    for _ in range(draws):
        u, v = rng.sample(range(n), 2)
        if (u, v) in used:
            continue
        used.add((u, v))
        net.add_arc(u, v, rng.randint(1, 4), rng.randint(0, 9))
    return net


@pytest.mark.parametrize("mode", MODES)
def test_random_networks_match_reference(mode):
    rng = random.Random(42)
    with _checked_solves(mode) as pairs:
        for trial in range(40):
            n = rng.randint(4, 30)
            net = _random_network(rng, n, 4 * n)
            net.max_flow_min_cost(0, n - 1, None if trial % 3 else 2)
    _assert_identical(pairs)


@pytest.mark.parametrize("mode", MODES)
def test_late_zero_cost_branch_at_the_sinks_level(mode):
    # All costs 0, so the sink's level is 0.  The breadth-first closure
    # of that level meets the sink on its third hop, via a, but the Dial
    # loop pops w (id 1) before a (id 5) and takes w -> x.  The sweep
    # must finish the level, or w is never marked and the replay takes
    # a -> x instead.
    s, w, b1, b2, b3, a, x, t = range(8)
    net = MinCostFlow(8)
    arcs = [(s, a), (s, b1), (b1, b2), (b2, b3), (b3, w), (w, x), (a, x), (x, t)]
    for u, v in arcs:
        net.add_arc(u, v, 1, 0)
    with _checked_solves(mode) as pairs:
        net.max_flow_min_cost(s, t)
    _assert_identical(pairs)
    assert net.flow_on(10) == 1  # w -> x, the sixth arc


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("design", ["S1", "S2", "S3", "S4"])
def test_table2_escape_networks_match_reference(design, mode):
    with _checked_solves(mode) as pairs:
        for method in ("w/o Sel", "Detour First", "PACOR"):
            run_method(design_by_name(design), method)
    _assert_identical(pairs)


@given(escape_instances())
@settings(max_examples=25, deadline=None)
def test_escape_instances_match_reference(instance):
    grid, sources, pins = instance
    for mode in MODES:
        with _checked_solves(mode) as pairs:
            solve_escape(grid, sources, pins)
        _assert_identical(pairs)


def test_large_grid_takes_the_sweep_and_matches_reference():
    grid = RoutingGrid(72, 72)
    for x in range(20, 52, 2):
        grid.set_obstacle(Point(x, 30))
    sources = [
        EscapeSource(i, (Point(26 + 4 * i, 36 + i % 3),)) for i in range(6)
    ]
    pins = [Point(x, 0) for x in range(3, 72, 5)]
    with mock.patch.object(
        mincostflow, "_sweep", wraps=mincostflow._sweep
    ) as sweep, _checked_solves("auto") as pairs:
        result = solve_escape(grid, sources, pins)
    assert sweep.called
    assert result.flow_value == len(sources)
    _assert_identical(pairs)
