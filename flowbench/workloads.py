"""The benchmark's workloads: which flows one pass runs, built from a seed.

A *flow* is one ``run_method(design, method)``; a *pass* is every flow
of a workload once.  A pass routes the published layouts (variant
``v == 0``) and then ``perturbed`` seed-specific copies of the designs
named in ``perturb``: copy ``i`` (1-based) of seed ``s`` has
``v = s * perturbed + i`` and applies ``jitter_valves(seed=v)`` then
``add_obstacle_noise(n_cells=8, seed=v)`` (the recipe of
``repro.designs.perturbation_family``).  No two seeds share a perturbed
copy.

One perturbation can move a flow's run time by a third, so a pass that
held only seed-specific designs would cost very different amounts on
different seeds.  The published layouts are the same on every seed and
the perturbed copies average each other out, which keeps a pass's cost
steady from seed to seed while every seed still routes inputs of its
own.  ``table2-small`` perturbs only S1-S4: S5 is 95% of its pass, and
one perturbed S5 moves the pass's cost by a third.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

TABLE2_METHODS = ("w/o Sel", "Detour First", "PACOR")


@dataclass(frozen=True)
class Workload:
    name: str
    designs: Tuple[str, ...]
    methods: Tuple[str, ...]
    perturb: Tuple[str, ...]
    perturbed: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chip1-pacor",
            ("Chip1",),
            ("PACOR",),
            (),
            0,
            "Chip1 x PACOR, the headline run: selection, negotiation and "
            "escape min-cost flow all heavy (published layout only)",
        ),
        Workload(
            "chip2-pacor",
            ("Chip2",),
            ("PACOR",),
            ("Chip2",),
            3,
            "Chip2 x PACOR: one large escape min-cost flow dominates; no "
            "selection and almost no negotiation",
        ),
        Workload(
            "table2-small",
            ("S1", "S2", "S3", "S4", "S5"),
            TABLE2_METHODS,
            ("S1", "S2", "S3", "S4"),
            4,
            "S1-S5 x all three methods, perturbed S1-S4: many short flows, "
            "the only detour and bounded-search work, rip-up-heavy escape "
            "on S5",
        ),
        Workload(
            "fpva16-2layer",
            ("fpva16-2layer",),
            ("PACOR",),
            ("fpva16-2layer",),
            1,
            "16x16 two-layer valve array x PACOR: escape rip-up probes and "
            "the layered search engines",
        ),
    )
}


def _factory(design: str) -> Callable:
    if design == "fpva16-2layer":
        from repro.designs.generator import generate_fpva

        return lambda: generate_fpva(16, 16, layers=2)
    from repro.designs.suite import design_by_name

    return lambda: design_by_name(design)


def perturb_design(design, v: int):
    """Return ``design`` itself for ``v == 0``, else its perturbed copy."""
    if v == 0:
        return design
    from repro.designs.perturb import add_obstacle_noise, jitter_valves

    out = jitter_valves(design, seed=v)
    out = add_obstacle_noise(out, n_cells=8, seed=v)
    out.name = f"{design.name}~v{v}"
    return out


def build_flows(workload: Workload, seed: int) -> List[Tuple[object, str, int]]:
    """Return one pass's flows as ``(design, method, variant seed)``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    count = workload.perturbed
    flows = []
    for v in [0] + [seed * count + i for i in range(1, count + 1)]:
        for name in workload.designs if v == 0 else workload.perturb:
            design = perturb_design(_factory(name)(), v)
            for method in workload.methods:
                flows.append((design, method, v))
    return flows
