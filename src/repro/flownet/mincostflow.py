"""Min-cost max-flow via successive shortest paths with potentials.

Designed for the escape-routing networks PACOR builds: sparse, unit-ish
capacities, non-negative integer arc costs.  Node potentials keep every
reduced cost non-negative across augmentations, so each augmentation
follows a shortest path found by a Dijkstra that stops at the sink.

Arcs live in flat numpy arrays (paired forward/residual entries, like a
classic arc-list MCMF) and per-node adjacency is a CSR view built lazily
at solve time: a stable argsort of the arc tail array groups each node's
arcs in insertion order, which fixes relaxation order — and therefore
tie-breaking and the solved flow.  Batches added with ``add_arcs`` size
the arrays exactly; single ``add_arc`` calls grow them by doubling.

A solve works on one CSR-ordered copy of the arc arrays.  The numpy
passes read the arrays; the pure-Python Dial loop and the augmentation
read and write the same buffers through ``memoryview``s, which index as
plain Python ints.  No per-solve Python list mirrors the arcs, and each
residual capacity and potential lives in exactly one buffer.

The Dijkstra is a Dial bucket queue over integer distances
(:func:`_dial`).  On a large network its pure-Python pops dominate, so
once the previous augmentation found at least ``_SWEEP_MIN_BALL`` nodes
within the sink's distance, an augmentation instead

1. sweeps exact reduced distances up to the sink's, level by level, in
   numpy (:func:`_sweep`);
2. marks the nodes on some shortest source-sink path with a numpy BFS
   back from the sink over tight arcs (:func:`_shortest_path_nodes`);
3. replays :func:`_dial` entering only marked nodes.

The replay picks the same parents as the full loop.  The marked set
holds every tight predecessor of its members, and an unmarked node never
pushes a marked one at its final distance, so the marked nodes pop in
the same relative order and take the same first tight arc.  The path,
and so the solved flow, is the same bit for bit; only the number of
Python pops shrinks.

Potentials move by ``min(dist, d_sink) - d_sink``: the standard
early-exit update shifted by the constant ``-d_sink``, which changes no
reduced cost.  Nodes left unsettled have true distance at least
``d_sink``, so the full loop's tentative distances and the sweep's
exact ones give the same update.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability import context as obs

_INF = float("inf")

# Distance of a node the sweep did not finalise; far above any real one.
_FAR = 1 << 62

# Ball size (nodes the previous augmentation found within the sink's
# distance) from which an augmentation takes the numpy sweep.  The
# sweep pays a fixed cost per array step (one per distance level and
# per zero-cost hop, 30-700 steps per augmentation on the escape
# networks), the Dial loop a few microseconds per popped node.  Timed
# side by side on every augmentation of the S1-S5, Chip1 and Chip2
# escape solves, the sweep is 1.5-5x slower below 3k nodes, even at
# 4k-12k, and takes a third to a half of the loop's time above 16k.
_SWEEP_MIN_BALL = 4096


class MinCostFlow:
    """A directed flow network with integer capacities and costs.

    Costs must be non-negative integers (floats with an integral value
    are accepted); anything else raises ``ValueError``.  Arcs are stored
    as paired forward/residual entries; ``add_arc`` returns the forward
    arc id whose flow can be queried after solving.  ``add_arcs``
    appends a whole batch in one shot — network builders with hundreds
    of thousands of arcs should prefer it.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("network needs at least one node")
        self.n = n_nodes
        self._m = 0
        cap0 = 64
        self._to = np.empty(cap0, dtype=np.int64)
        self._tail = np.empty(cap0, dtype=np.int64)
        self._cap = np.empty(cap0, dtype=np.int64)
        self._cost = np.empty(cap0, dtype=np.int64)
        # CSR adjacency, rebuilt on demand when arcs were added.
        self._order: Optional[np.ndarray] = None
        self._indptr: Optional[np.ndarray] = None

    def _reserve(self, extra: int, exact: bool = False) -> None:
        """Make room for ``extra`` more arc slots.

        Single arcs grow the arrays by doubling (amortised O(1) each); a
        batch (``exact``) grows them to just the size it needs, so a
        network built from batches carries no spare slots.
        """
        need = self._m + extra
        if need <= self._to.size:
            return
        new_size = need if exact else max(need, 2 * self._to.size)
        for name in ("_to", "_tail", "_cap", "_cost"):
            old = getattr(self, name)
            grown = np.empty(new_size, dtype=old.dtype)
            grown[: self._m] = old[: self._m]
            setattr(self, name, grown)

    def add_node(self) -> int:
        """Append a node and return its id."""
        self.n += 1
        self._order = None
        return self.n - 1

    def add_arc(self, u: int, v: int, cap: int, cost: float) -> int:
        """Add arc ``u -> v`` and return its id (even ids are forward arcs)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"arc endpoints ({u},{v}) out of range")
        if cap < 0:
            raise ValueError("arc capacity must be non-negative")
        if not float(cost).is_integer():
            raise ValueError("arc costs must be integers")
        if cost < 0:
            raise ValueError(
                "negative arc costs are not supported by the Dijkstra solver"
            )
        cost = int(cost)
        self._reserve(2)
        m = self._m
        self._to[m] = v
        self._tail[m] = u
        self._cap[m] = cap
        self._cost[m] = cost
        # Residual arc.
        self._to[m + 1] = u
        self._tail[m + 1] = v
        self._cap[m + 1] = 0
        self._cost[m + 1] = -cost
        self._m = m + 2
        self._order = None
        return m

    def add_arcs(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        caps: Sequence[int],
        costs: Sequence[float],
    ) -> np.ndarray:
        """Add a batch of arcs ``us[i] -> vs[i]``; return their forward ids.

        Equivalent to calling :meth:`add_arc` element-wise in order, at
        array speed, except that the arrays grow to exactly the size the
        batch needs.  All four sequences must share one length.
        """
        us = np.ascontiguousarray(us, dtype=np.int64)
        vs = np.ascontiguousarray(vs, dtype=np.int64)
        caps = np.ascontiguousarray(caps, dtype=np.int64)
        costs = np.asarray(costs)
        if costs.dtype.kind not in "iu":
            costs = np.asarray(costs, dtype=np.float64)
            if not (np.isfinite(costs) & (costs == np.trunc(costs))).all():
                raise ValueError("arc costs must be integers")
        costs = np.ascontiguousarray(costs, dtype=np.int64)
        k = us.size
        if not (vs.size == caps.size == costs.size == k):
            raise ValueError("add_arcs sequences must share one length")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        for ends in (us, vs):
            if int(ends.min()) < 0 or int(ends.max()) >= self.n:
                raise ValueError("arc endpoints out of range")
        if int(caps.min()) < 0:
            raise ValueError("arc capacity must be non-negative")
        if int(costs.min()) < 0:
            raise ValueError(
                "negative arc costs are not supported by the Dijkstra solver"
            )
        self._reserve(2 * k, exact=True)
        m = self._m
        fwd = slice(m, m + 2 * k, 2)
        rev = slice(m + 1, m + 2 * k, 2)
        self._to[fwd] = vs
        self._to[rev] = us
        self._tail[fwd] = us
        self._tail[rev] = vs
        self._cap[fwd] = caps
        self._cap[rev] = 0
        self._cost[fwd] = costs
        np.negative(costs, out=self._cost[rev])
        self._m = m + 2 * k
        self._order = None
        return np.arange(m, m + 2 * k, 2, dtype=np.int64)

    def flow_on(self, arc_id: int) -> int:
        """Return the flow routed on forward arc ``arc_id``."""
        if not 0 <= arc_id < self._m:
            raise ValueError(f"arc id {arc_id} out of range")
        if arc_id % 2 != 0:
            raise ValueError("flow_on expects a forward arc id")
        return int(self._cap[arc_id ^ 1])

    def _adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency: ``order[indptr[u]:indptr[u+1]]`` = arcs out of u.

        The stable sort keeps each node's arcs in insertion (arc-id)
        order, matching the relaxation order of per-node append lists.
        """
        if self._order is None or self._indptr is None:
            tails = self._tail[: self._m]
            self._order = np.argsort(tails, kind="stable").astype(np.int64)
            counts = np.bincount(tails, minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._indptr = indptr
        return self._order, self._indptr

    def max_flow_min_cost(
        self, source: int, sink: int, max_flow: Optional[int] = None
    ) -> Tuple[int, float]:
        """Send up to ``max_flow`` units from ``source`` to ``sink``.

        Maximises the flow value first and, among maximum flows, minimises
        total cost (each augmentation follows a currently-cheapest path,
        which yields a min-cost flow for every intermediate flow value).

        Returns ``(flow_value, total_cost)``.  Raises ``ValueError`` when
        ``source`` or ``sink`` is not a node or the two coincide.
        """
        n = self.n
        m = self._m
        if not (0 <= source < n and 0 <= sink < n):
            raise ValueError(f"source/sink ({source},{sink}) out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        order, indptr = self._adjacency()
        # CSR-ordered arc arrays.  ``cpair[j]`` is the CSR slot of arc
        # j's residual partner, so ``cto[cpair[j]]`` is arc j's tail.  The
        # sweep reads the arrays; the Dial loop and the augmentation read
        # and write the same buffers through memoryviews, which index as
        # Python ints, so each residual capacity is stored once.
        inv = np.empty(m, dtype=np.int64)
        inv[order] = np.arange(m, dtype=np.int64)
        cpair_a = inv[order ^ 1]
        del inv  # before the copies below, to keep the solve's peak low
        cto_a = self._to[:m][order]
        ccost_a = self._cost[:m][order]
        ccap_a = self._cap[:m][order]
        ip = memoryview(indptr)
        cto = memoryview(cto_a)
        ccost = memoryview(ccost_a)
        ccap = memoryview(ccap_a)
        cpair = memoryview(cpair_a)

        # Updated in place only, so ``potential`` always views it.
        pot = np.zeros(n, dtype=np.int64)
        potential = memoryview(pot)
        flow_value = 0
        total_cost = 0
        augmentations = 0
        nodes_settled = 0
        ball = 0  # nodes within the sink's distance, last augmentation

        while max_flow is None or flow_value < max_flow:
            if ball < _SWEEP_MIN_BALL:
                dist, parent, popped = _dial(
                    source, sink, ip, cto, ccost, ccap, potential, bytearray(n)
                )
                nodes_settled += len(popped)
                d_sink = dist[sink]
                if d_sink == _INF:
                    break
                ball = len(popped)
                near = np.array(popped, dtype=np.int64)
                pot[near] += np.array([dist[u] for u in popped]) - d_sink
            else:
                ds = _sweep(indptr, cto_a, ccost_a, ccap_a, pot, source, sink)
                if ds is None:
                    break
                d_sink = int(ds[sink])
                on_path = _shortest_path_nodes(
                    indptr, cto_a, cpair_a, ccost_a, ccap_a, pot, ds, sink
                )
                # Off-path nodes start out settled, so the replay never
                # enters them and reads only on-path potentials.
                dist, parent, popped = _dial(
                    source, sink, ip, cto, ccost, ccap, potential,
                    bytearray(np.logical_not(on_path).tobytes()),
                )
                nodes_settled += len(popped)
                ball = int(np.count_nonzero(ds <= d_sink))
                pot += np.minimum(ds, d_sink) - d_sink
            augmentations += 1

            path = []
            v = sink
            while v != source:
                j = parent[v]
                path.append(j)
                v = cto[cpair[j]]
            bottleneck = min([ccap[j] for j in path])
            if max_flow is not None and max_flow - flow_value < bottleneck:
                bottleneck = max_flow - flow_value
            for j in path:
                ccap[j] -= bottleneck
                ccap[cpair[j]] += bottleneck
                total_cost += bottleneck * ccost[j]
            flow_value += bottleneck

        # Flow lives in the residual capacities: fold the CSR working
        # copy back into arc-id order so flow_on sees the solved flow.
        self._cap[:m][order] = ccap_a
        if augmentations:
            obs.counter("mcf.augmenting_paths").inc(augmentations)
        if nodes_settled:
            obs.counter("mcf.nodes_settled").inc(nodes_settled)
        return flow_value, float(total_cost)


def _dial(
    source: int,
    sink: int,
    ip: memoryview,
    cto: memoryview,
    ccost: memoryview,
    ccap: memoryview,
    potential: memoryview,
    settled: bytearray,
) -> Tuple[List[float], List[int], List[int]]:
    """Dijkstra over reduced costs with a Dial bucket queue, stopping at the sink.

    Pop order is ascending integer distance, ties broken by ascending
    node id — exactly the ``(distance, node)`` tuple-heap order, at
    int-heap cost.  Non-negative reduced costs mean inserts only ever
    target the current or later buckets.  A node's parent is the first
    arc (in pop order, then CSR order) to reach its final distance.
    Nodes already marked in ``settled`` are never entered, and their
    potentials are never read.  The arc arrays, the CSR row pointers
    ``ip`` and ``potential`` are memoryviews of the solver's int64
    arrays; a node's arcs are the slots ``range(ip[u], ip[u + 1])``.

    Returns ``(dist, parent, popped)``: ``parent[v]`` is the CSR slot of
    the arc into ``v``, ``popped`` lists the settled nodes in pop order.
    """
    dist: List[float] = [_INF] * len(settled)
    parent = [-1] * len(settled)
    popped: List[int] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    dist[source] = 0
    buckets: Dict[int, List[int]] = {0: [source]}
    key_heap = [0]
    while key_heap:
        kb = key_heap[0]
        bucket = buckets[kb]
        heapq.heapify(bucket)
        sink_hit = False
        while bucket:
            u = heappop(bucket)
            if settled[u]:
                continue
            settled[u] = 1
            popped.append(u)
            if u == sink:
                sink_hit = True
                break
            d = dist[u]
            pot_u = potential[u]
            for j in range(ip[u], ip[u + 1]):
                if ccap[j] <= 0:
                    continue
                v = cto[j]
                if settled[v]:
                    continue
                nd = d + ccost[j] + pot_u - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = j
                    other = buckets.get(nd)
                    if other is None:
                        buckets[nd] = [v]
                        heappush(key_heap, nd)
                    elif other is bucket:
                        heappush(bucket, v)
                    else:
                        other.append(v)
        if sink_hit:
            break
        del buckets[kb]
        heappop(key_heap)
    return dist, parent, popped


def _arcs_out(indptr: np.ndarray, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR slots of every arc out of ``nodes``, and each slot's tail."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    slots = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    slots += np.repeat(starts - ends + counts, counts)
    return slots, np.repeat(nodes, counts)


def _distinct(nodes: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """``nodes`` without repeats, in no fixed order (``mark`` is scratch).

    Each node's slot in ``mark`` ends up holding the index of one of its
    occurrences, whichever the scatter wrote last, so exactly one
    occurrence per node passes the test.
    """
    idx = np.arange(nodes.size)
    mark[nodes] = idx
    return nodes[mark[nodes] == idx]


def _sweep(
    indptr: np.ndarray,
    cto: np.ndarray,
    ccost: np.ndarray,
    ccap: np.ndarray,
    pot: np.ndarray,
    source: int,
    sink: int,
) -> Optional[np.ndarray]:
    """Exact reduced distances from ``source``, level by level.

    Each level (one integer distance) is closed breadth-first over
    zero-reduced-cost arcs, then the next level is the least tentative
    distance.  The sweep stops after the sink's level, so every node at
    most as far as the sink gets its exact distance and every other node
    ``_FAR``.  The sink is never expanded, as in :func:`_dial`.  Returns
    None when the sink is unreachable.
    """
    n = pot.size
    dist = np.full(n, _FAR, dtype=np.int64)
    tent = np.full(n, _FAR, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    mark = np.empty(n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    level = 0
    pending: List[np.ndarray] = []
    while True:
        while frontier.size:
            done[frontier] = True
            dist[frontier] = level
            slots, tails = _arcs_out(indptr, frontier[frontier != sink])
            heads = cto[slots]
            keep = (ccap[slots] > 0) & ~done[heads]
            slots, tails, heads = slots[keep], tails[keep], heads[keep]
            nd = level + ccost[slots] + pot[tails] - pot[heads]
            same = nd == level
            frontier = _distinct(heads[same], mark)
            later = ~same
            heads = heads[later]
            np.minimum.at(tent, heads, nd[later])
            pending.append(heads)
        if done[sink]:
            return dist
        cand = np.concatenate(pending)
        cand = cand[~done[cand]]
        if not cand.size:
            return None
        keys = tent[cand]
        level = int(keys.min())
        at = keys == level
        frontier = _distinct(cand[at], mark)
        pending = [cand[~at]]


def _shortest_path_nodes(
    indptr: np.ndarray,
    cto: np.ndarray,
    cpair: np.ndarray,
    ccost: np.ndarray,
    ccap: np.ndarray,
    pot: np.ndarray,
    dist: np.ndarray,
    sink: int,
) -> np.ndarray:
    """Mask of the nodes that reach ``sink`` over tight residual arcs.

    An arc ``u -> v`` is tight when ``dist[u] + reduced cost == dist[v]``;
    the mask is exactly the nodes on some shortest source–sink path.  A
    node's incoming arcs are the residual partners of its outgoing CSR
    slots, so the BFS walks backwards without a reverse CSR.
    """
    on = np.zeros(pot.size, dtype=bool)
    on[sink] = True
    mark = np.empty(pot.size, dtype=np.int64)
    front = np.array([sink], dtype=np.int64)
    while front.size:
        slots, heads = _arcs_out(indptr, front)
        tails = cto[slots]
        into = cpair[slots]
        keep = (ccap[into] > 0) & ~on[tails]
        tails, heads, into = tails[keep], heads[keep], into[keep]
        tight = dist[tails] + ccost[into] + pot[tails] - pot[heads] == dist[heads]
        front = _distinct(tails[tight], mark)
        on[front] = True
    return on
