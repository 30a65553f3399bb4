"""Memory of the min-cost-flow solver: working state and arc storage."""

import tracemalloc
from unittest import mock

from repro.core import run_method
from repro.designs.suite import design_by_name
from repro.escape import EscapeSource, solve_escape
from repro.flownet import MinCostFlow
from repro.geometry import Point
from repro.grid import RoutingGrid

# Bytes a solve may allocate per arc slot on top of the network itself.
# On the network below a solve takes about 65: the CSR-ordered arc
# copies, the adjacency and per-node search state.  A solve that mirrors
# the arcs in Python lists takes over 180.
_PEAK_BYTES_PER_ARC_SLOT = 100


def test_solve_peak_per_arc_slot():
    # The sweep-side network of test_mcf_reference: 10k nodes, 51k arc
    # slots, large enough that the numpy sweep runs.
    grid = RoutingGrid(72, 72)
    for x in range(20, 52, 2):
        grid.set_obstacle(Point(x, 30))
    sources = [
        EscapeSource(i, (Point(26 + 4 * i, 36 + i % 3),)) for i in range(6)
    ]
    pins = [Point(x, 0) for x in range(3, 72, 5)]
    peaks = []
    real = MinCostFlow.max_flow_min_cost

    def measured(self, source, sink, max_flow=None):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return real(self, source, sink, max_flow)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - start, self._m))
            if not tracing:
                tracemalloc.stop()

    with mock.patch.object(MinCostFlow, "max_flow_min_cost", measured):
        result = solve_escape(grid, sources, pins)
    assert result.flow_value == len(sources)
    (peak, m), = peaks
    assert m > 50_000
    assert peak / m < _PEAK_BYTES_PER_ARC_SLOT


def test_escape_network_arrays_are_exactly_sized():
    sizes = []
    real = MinCostFlow.max_flow_min_cost

    def recorded(self, source, sink, max_flow=None):
        sizes.append(
            (self._m, self._to.size, self._tail.size, self._cap.size, self._cost.size)
        )
        return real(self, source, sink, max_flow)

    with mock.patch.object(MinCostFlow, "max_flow_min_cost", recorded):
        run_method(design_by_name("S5"), "PACOR")
    assert sizes
    for m, *arrays in sizes:
        assert arrays == [m] * 4


def test_single_arcs_grow_by_doubling():
    net = MinCostFlow(2)
    for _ in range(33):
        net.add_arc(0, 1, 1, 0)
    assert net._m == 66
    assert net._to.size == 128
    net.add_arcs([0] * 10, [1] * 10, [1] * 10, [0] * 10)
    assert net._to.size == 128  # the batch fits the reserve
    net.add_arcs([0] * 40, [1] * 40, [1] * 40, [0] * 40)
    assert net._to.size == net._m == 166
