"""First-order pressure-propagation delay model.

The length-matching constraint exists because pressure propagates slowly
through PDMS control channels (Section 1 of the paper, citing Lim et
al.); valves sharing a pin actuate when the pressure front arrives, so
channel-length mismatch translates directly into *switching skew*.

This module provides a first-order delay model to quantify that skew on
routed solutions.  Channel pressurisation behaves like charging a
distributed fluidic RC line: for a uniform channel the fill time grows
super-linearly with length.  We model

    delay(L) = tau0 * L ** alpha

with ``alpha = 2`` (diffusive RC limit) by default and ``alpha = 1``
available as the lumped/wave limit.  The absolute constant ``tau0``
only scales results; the *skew ratios* between matched and unmatched
clusters are what the model is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.verify import network_lengths
from repro.core.result import PacorResult
from repro.designs.design import Design


@dataclass(frozen=True)
class DelayModel:
    """Pressure-front arrival-time model for control channels.

    Attributes:
        tau0: seconds per (grid unit)**alpha; default 1e-4 s (0.1 ms per
            unit in the linear limit) — representative of mm-scale PDMS
            channels, but only ratios are meaningful.
        alpha: length exponent; 2.0 = diffusive RC line, 1.0 = lumped.
    """

    tau0: float = 1e-4
    alpha: float = 2.0

    def delay(self, length: int) -> float:
        """Return the front arrival time over ``length`` grid units."""
        if length < 0:
            raise ValueError("channel length must be non-negative")
        return self.tau0 * (length ** self.alpha)


@dataclass
class ClusterSkew:
    """Switching-skew report for one multi-valve net.

    Attributes:
        net_id: the net.
        arrival: per valve id, the modelled pressure arrival time (s).
        skew: max-min arrival spread (s) — the synchronisation error.
        matched: the router's matched flag for the net.
    """

    net_id: int
    arrival: Dict[int, float]
    skew: float
    matched: Optional[bool]


def cluster_skews(
    design: Design,
    result: PacorResult,
    model: Optional[DelayModel] = None,
) -> List[ClusterSkew]:
    """Return the modelled switching skew of every routed multi-valve net.

    Channel lengths are measured as network distance through the drawn
    segments (the verifier's physical metric), then mapped through the
    delay model.
    """
    model = model or DelayModel()
    by_id = design.valve_by_id()
    out: List[ClusterSkew] = []
    for net in result.nets:
        if not net.routed or net.pin is None or len(net.valve_ids) < 2:
            continue
        valves = [by_id[v] for v in net.valve_ids]
        lengths = network_lengths(
            net.segments,
            net.pin,
            [v.position for v in valves],
            via_length=design.grid.via_length,
        )
        arrival = {}
        for valve in valves:
            distance = lengths[valve.position]
            if distance is None:
                continue
            arrival[valve.id] = model.delay(distance)
        if len(arrival) < 2:
            continue
        values = list(arrival.values())
        out.append(
            ClusterSkew(
                net_id=net.net_id,
                arrival=arrival,
                skew=max(values) - min(values),
                matched=net.matched,
            )
        )
    return out


def worst_skew(
    design: Design,
    result: PacorResult,
    model: Optional[DelayModel] = None,
    *,
    matched_only: bool = False,
) -> float:
    """Return the worst modelled switching skew over the result's nets."""
    skews = cluster_skews(design, result, model)
    if matched_only:
        skews = [s for s in skews if s.matched]
    return max((s.skew for s in skews), default=0.0)
