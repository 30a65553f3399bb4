"""Per-layer self time, measured from outside the program.

:class:`LayerClock` wraps the public entry points of each layer of the
PACOR flow *in the module that looks them up* (``repro.core.pacor``
resolves ``solve_exact`` from its own globals, the negotiation router
resolves ``astar_search`` from ``repro.routing.negotiation``, and so
on).  Every wrapped call pushes a frame on one stack; when it returns,
its duration minus the time of the wrapped calls nested inside it is
added to its layer's *self time*.  Because the whole flow runs under a
root frame (``core``), the self times of all layers sum to the flow's
wall time.

Nothing inside ``src/`` is changed: :meth:`LayerClock.installed`
patches the attributes for the duration of a ``with`` block and puts
the originals back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

ROOT_LAYER = "core"

# (module or class path, attribute, layer).  A class path ends with the
# class name; its attribute is a method, so the wrapper gets ``self``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.pacor", "cluster_valves", "valves.clustering"),
    ("repro.core.pacor", "generate_candidates", "dme"),
    ("repro.core.pacor", "solve_exact", "selection"),
    ("repro.core.pacor", "route_cluster_mst", "routing.mst"),
    ("repro.core.pacor", "solve_escape", "escape"),
    ("repro.core.pacor", "solve_escape_sequential", "escape"),
    ("repro.core.pacor", "find_blocking_nets", "escape.ripup"),
    ("repro.core.pacor", "detour_cluster", "detour"),
    ("repro.routing.negotiation:NegotiationRouter", "route", "routing.negotiation"),
    ("repro.flownet.mincostflow:MinCostFlow", "max_flow_min_cost", "flownet.mcf"),
    ("repro.routing.negotiation", "astar_search", "routing.core.astar"),
    ("repro.routing.astar", "astar_search", "routing.core.astar"),
    ("repro.escape.sequential", "astar_search", "routing.core.astar"),
    ("repro.routing.bounded", "bounded_search", "routing.core.bounded"),
)

def _resolve(path: str) -> object:
    module_name, _, class_name = path.partition(":")
    owner: object = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


class LayerClock:
    """Accumulates self time, call counts and call-result tallies per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # Effort read off call arguments and results (see _observe).
        self.tally: Dict[str, int] = defaultdict(int)
        self._children: List[float] = []

    def timed(self, layer: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so its calls are charged to ``layer``."""
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - started
                inner = children.pop()
                self.self_s[layer] += total - inner
                self.calls[layer] += 1
                if children:
                    children[-1] += total
            self._observe(layer, args, result)
            return result

        return wrapper

    def _observe(self, layer: str, args: tuple, result: object) -> None:
        if layer == "selection":
            self.tally["selection.nodes"] += int(result.nodes_explored)
            self.tally["selection.optimal"] += int(bool(result.optimal))
        elif layer == "flownet.mcf":
            network = args[0]
            self.tally["mcf.nodes"] += int(network.n)
            # Each arc is stored with its residual twin.
            self.tally["mcf.arcs"] += int(network._m) // 2

    def run_root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as the root frame, charging its own time to ``core``."""
        return self.timed(ROOT_LAYER, fn)(*args, **kwargs)

    @contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        """Patch every target with a timed wrapper; restore on exit."""
        saved: List[Tuple[object, str, object]] = []
        try:
            for path, attr, layer in TARGETS:
                owner = _resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.timed(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def stage_seconds(spans: List[object]) -> Dict[str, float]:
    """Sum the program's own ``stage`` span durations by stage name."""
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.category == "stage" and span.duration_s is not None:
            out[span.name] += span.duration_s
    return out
