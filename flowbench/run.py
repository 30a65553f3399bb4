"""Flow-level benchmark of the PACOR reproduction.

Usage (from the repository root)::

    python3 flowbench/run.py --workload chip2-pacor --seed 1 --seconds 40 --trace 0
    python3 flowbench/run.py --workload all --seed 0 --seconds 40
    python3 flowbench/run.py --write-spec      # regenerate BENCHMARK.json

One run builds the workload's designs from ``--seed``, then routes
whole passes (every flow of the workload once) with tracing off until
``--seconds`` are used, but at least ``MIN_PASSES``, verifying every
flow.  With ``--trace 1`` it then makes one more pass with the layer
clock (see ``layers.py``) and the program's own ``Tracer``/``Metrics``
installed, for the per-layer table.  The last line of standard output
is one JSON object: with ``--trace 0`` its metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones.  See ``README.md`` in this
directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from layers import LayerClock, stage_seconds  # noqa: E402
from workloads import WORKLOADS, Workload, build_flows  # noqa: E402

GATED = ("chip2-pacor", "table2-small")
"""Workloads listed in BENCHMARK.json; the other two run on request."""

RUN_SECONDS = 40
SETUP_PROBES = 9

# Passes every run routes whatever ``--seconds`` says: the check that
# passes agree exactly needs two, and a median of three resists one
# disturbed pass.  A gated pass takes a quarter to a half of RUN_SECONDS,
# so a run on a slow host overruns ``--seconds`` to route its third.
MIN_PASSES = 3

# (name, unit, better, bound): the bound is the share of the parent's
# median by which the metric may worsen before a change is refused.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("route_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("matched_clusters", "count", "higher", 0.02),
    ("total_length", "cells", "lower", 0.02),
    ("completion", "ratio", "higher", 0.02),
    ("pass_rate", "ratio", "higher", 0.02),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("selection.s", "s", "lower"),
    ("selection.calls", "count", "lower"),
    ("selection.nodes", "count", "lower"),
    ("selection.optimal_ratio", "ratio", "higher"),
    ("routing.negotiation.s", "s", "lower"),
    ("negotiation.rounds", "count", "lower"),
    ("routing.core.astar.s", "s", "lower"),
    ("astar.calls", "count", "lower"),
    ("astar.expansions", "count", "lower"),
    ("astar.heap_pushes", "count", "lower"),
    ("astar.exp_per_s", "1/s", "higher"),
    ("flownet.mcf.s", "s", "lower"),
    ("mcf.calls", "count", "lower"),
    ("mcf.augmenting_paths", "count", "lower"),
    ("mcf.nodes", "count", "lower"),
    ("mcf.arcs", "count", "lower"),
    ("escape.s", "s", "lower"),
    ("escape.ripup.s", "s", "lower"),
    ("escape.ripup.probes", "count", "lower"),
    ("escape.rip_rounds", "count", "lower"),
    ("escape.mcf_solves", "count", "lower"),
    ("detour.s", "s", "lower"),
    ("detour.rounds", "count", "lower"),
    ("detour.edges", "count", "lower"),
    ("routing.core.bounded.s", "s", "lower"),
    ("bounded.states", "count", "lower"),
    ("dme.s", "s", "lower"),
    ("dme.calls", "count", "lower"),
    ("valves.clustering.s", "s", "lower"),
    ("routing.mst.s", "s", "lower"),
    ("space.reuse_ratio", "ratio", "higher"),
    ("space.patched_cells", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("stage.clustering.s", "s", "lower"),
    ("stage.lm-routing.s", "s", "lower"),
    ("stage.mst-routing.s", "s", "lower"),
    ("stage.escape.s", "s", "lower"),
    ("stage.detour.s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("analysis.verify.s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

FAILING_INCIDENTS = ("stage-failure", "budget-exceeded")
TABLE2_COLUMNS = (
    "n_clusters",
    "matched_clusters",
    "total_matched_length",
    "total_length",
    "completion",
)


class SetupError(RuntimeError):
    """The program could not be imported or the designs not built."""


def benchmark_spec() -> Dict[str, object]:
    """Return the BENCHMARK.json document for this benchmark."""
    return {
        "command": ["python3", "flowbench/run.py"],
        "paths": ["flowbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in GATED],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SetupError(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError(f"repro imported from {repro.__file__}, not {SRC}")


# -- one flow -----------------------------------------------------------------


def _outcome(design, method: str, v: int, result, error: Optional[str]) -> Dict:
    from repro.analysis.verify import VerificationError, verify_result

    row: Dict[str, object] = {"design": design.name, "method": method, "v": v}
    verify_s = 0.0
    if result is not None:
        nets = result.nets
        row.update(
            n_clusters=result.n_lm_clusters,
            matched_clusters=result.matched_clusters,
            total_matched_length=result.total_matched_length,
            total_length=result.total_length,
            completion=result.completion_rate,
            nets=len(nets),
            routed_nets=sum(1 for n in nets if n.routed),
        )
        bad = [i.kind for i in result.incidents if i.kind in FAILING_INCIDENTS]
        if bad:
            error = f"incident {bad[0]}"
        started = time.perf_counter()
        try:
            verify_result(design, result)
        except VerificationError as exc:
            error = error or f"verify_result: {exc}"
        verify_s = time.perf_counter() - started
    row["failure"] = error
    row["verify_s"] = verify_s
    return row


def _call(fn, *args, **kwargs):
    """Run one flow; return ``(result, error)``, never raising."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # a raising flow is a failed flow, not a crash
        return None, f"raised {type(exc).__name__}: {exc}"


def quality_key(rows: Sequence[Dict]) -> List[Tuple]:
    """The exact per-flow outputs two passes must agree on."""
    keys = ("n_clusters", "matched_clusters", "total_length", "routed_nets")
    return [
        (r["design"], r["method"], tuple(r.get(k) for k in keys), r["failure"])
        for r in rows
    ]


# -- passes -------------------------------------------------------------------


def untraced_pass(flows) -> Tuple[float, List[Dict]]:
    """Route every flow with tracing off; return route seconds and rows.

    Verification runs after the timed routing, so it is outside
    ``route_s``.
    """
    from repro.core.pipeline import run_method

    route_s = 0.0
    done = []
    for design, method, v in flows:
        started = time.perf_counter()
        result, error = _call(run_method, design, method)
        route_s += time.perf_counter() - started
        done.append((design, method, v, result, error))
    return route_s, [_outcome(*item) for item in done]


def traced_pass(flows) -> Dict[str, object]:
    """Route every flow under the layer clock and the program's tracer."""
    from repro.core.pipeline import run_method
    from repro.observability.metrics import Metrics
    from repro.observability.tracing import Tracer

    clock = LayerClock()
    counters: Dict[str, int] = defaultdict(int)
    spans: List[object] = []
    done = []
    with clock.installed():
        started = time.perf_counter()
        for design, method, v in flows:
            tracer, metrics = Tracer(), Metrics()
            result, error = _call(
                clock.run_root,
                run_method,
                design,
                method,
                tracer=tracer,
                metrics=metrics,
            )
            done.append((design, method, v, result, error))
            spans.extend(tracer.spans)
            for name, value in metrics.counter_values().items():
                counters[name] += value
        wall_s = time.perf_counter() - started
    rows = [_outcome(*item) for item in done]
    return {
        "wall_s": wall_s,
        "clock": clock,
        "counters": dict(counters),
        "stages": stage_seconds(spans),
        "verify_s": sum(r["verify_s"] for r in rows),
        "rows": rows,
    }


# -- metrics ------------------------------------------------------------------


def quality_metrics(rows: Sequence[Dict]) -> Dict[str, float]:
    """Quality of one pass.

    ``matched_clusters`` and ``total_length`` sum the published-layout
    flows only, the Table-2 rows, which are the same on every seed.
    Summed over the perturbed copies too, they move from seed to seed,
    and a gate over medians of different seeds could then not hold them
    to a tight bound.  ``completion`` and ``pass_rate`` count every flow.
    """
    nets = sum(r.get("nets", 0) for r in rows)
    published = [r for r in rows if r["v"] == 0]
    return {
        "matched_clusters": sum(r.get("matched_clusters", 0) for r in published),
        "total_length": sum(r.get("total_length", 0) for r in published),
        "completion": sum(r.get("routed_nets", 0) for r in rows) / nets
        if nets
        else 0.0,
        "pass_rate": sum(1 for r in rows if r["failure"] is None) / len(rows),
    }


def layer_metrics(traced: Dict[str, object], route_s: float) -> Dict[str, float]:
    """Turn one traced pass into the per-layer metrics."""
    clock: LayerClock = traced["clock"]
    c = traced["counters"]
    s = clock.self_s
    calls = clock.calls
    tally = clock.tally
    stages = traced["stages"]

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    reuses = c.get("space.reuses", 0)
    out = {
        "selection.s": s["selection"],
        "selection.calls": calls["selection"],
        "selection.nodes": tally["selection.nodes"],
        "selection.optimal_ratio": share(
            tally["selection.optimal"], calls["selection"]
        ),
        "routing.negotiation.s": s["routing.negotiation"],
        "negotiation.rounds": c.get("negotiation.rounds", 0),
        "routing.core.astar.s": s["routing.core.astar"],
        "astar.calls": calls["routing.core.astar"],
        "astar.expansions": c.get("astar.expansions", 0),
        "astar.heap_pushes": c.get("astar.heap_pushes", 0),
        "astar.exp_per_s": share(
            c.get("astar.expansions", 0), s["routing.core.astar"]
        ),
        "flownet.mcf.s": s["flownet.mcf"],
        "mcf.calls": calls["flownet.mcf"],
        "mcf.augmenting_paths": c.get("mcf.augmenting_paths", 0),
        "mcf.nodes": tally["mcf.nodes"],
        "mcf.arcs": tally["mcf.arcs"],
        "escape.s": s["escape"],
        "escape.ripup.s": s["escape.ripup"],
        "escape.ripup.probes": calls["escape.ripup"],
        "escape.rip_rounds": c.get("escape.rip_rounds", 0),
        "escape.mcf_solves": c.get("escape.mcf_solves", 0),
        "detour.s": s["detour"],
        "detour.rounds": c.get("detour.rounds", 0),
        "detour.edges": c.get("detour.edges", 0),
        "routing.core.bounded.s": s["routing.core.bounded"],
        "bounded.states": c.get("bounded.states", 0),
        "dme.s": s["dme"],
        "dme.calls": calls["dme"],
        "valves.clustering.s": s["valves.clustering"],
        "routing.mst.s": s["routing.mst"],
        "space.reuse_ratio": share(reuses, reuses + c.get("space.rebuilds", 0)),
        "space.patched_cells": c.get("space.patched_cells", 0),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "core.self_s": s["core"],
        "analysis.verify.s": traced["verify_s"],
        "trace.overhead": share(traced["wall_s"], route_s) - 1.0,
    }
    for stage in ("clustering", "lm-routing", "mst-routing", "escape", "detour"):
        out[f"stage.{stage}.s"] = stages.get(stage, 0.0)
    return {name: out[name] for name, _, _ in PER_LAYER}


def table2_report(rows: Sequence[Dict]) -> Tuple[List[str], int]:
    """One line per published-layout flow beside its results_table2.json row."""
    path = os.path.join(ROOT, "results_table2.json")
    try:
        with open(path, encoding="utf-8") as handle:
            reference = {(r["design"], r["method"]): r for r in json.load(handle)}
    except (OSError, ValueError) as exc:
        return [f"  (no Table-2 reference: {exc})"], 0
    lines = [f"  {'design / method':<24}" + "".join(f"{c:>22}" for c in TABLE2_COLUMNS)]
    flagged = 0
    for row in rows:
        if row["v"] != 0 or "n_clusters" not in row:
            continue
        label = f"{row['design']} / {row['method']}"
        ref = reference.get((row["design"], row["method"]))
        if ref is None:
            lines.append(f"  {label:<24} (no results_table2.json row)")
            continue
        differs = any(row[c] != ref[c] for c in TABLE2_COLUMNS)
        flagged += differs
        cells = "".join(f"{f'{row[c]}/{ref[c]}':>22}" for c in TABLE2_COLUMNS)
        lines.append(f"  {label:<24}{cells}" + ("  <-- differs" if differs else ""))
    return lines, flagged


# -- set-up -------------------------------------------------------------------


def _now() -> float:
    """A clock that parent and child processes read alike."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(workload: str, seed: int) -> List[float]:
    """Time fresh processes until they have imported repro and built the designs.

    Each probe prints the clock when its designs are ready, so the time
    runs from the spawn to that moment and leaves out the interpreter's
    teardown.
    """
    times = []
    for _ in range(SETUP_PROBES):
        started = _now()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            raise SetupError(f"set-up probe failed: {last[0]}")
        times.append(float(proc.stdout.split()[-1]) - started)
    return times


# -- one workload ---------------------------------------------------------------


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> Dict[str, object]:
    setup = measure_setup(workload.name, seed)
    import_repro()
    flows = build_flows(workload, seed)

    samples: List[float] = []
    rows: List[Dict] = []
    nondeterministic = False
    started = time.perf_counter()
    while True:
        route_s, pass_rows = untraced_pass(flows)
        samples.append(route_s)
        if rows and quality_key(pass_rows) != quality_key(rows[: len(pass_rows)]):
            nondeterministic = True
        rows.extend(pass_rows)
        elapsed = time.perf_counter() - started
        if len(samples) >= MIN_PASSES and elapsed + max(samples) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = rows[: len(flows)]
    e2e = {
        "route_s": statistics.median(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        **quality_metrics(first),
    }
    out: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "flows": first,
        "samples": samples,
        "setup_samples": setup,
        "e2e": e2e,
        "attempted": len(rows),
        "failed": sum(1 for r in rows if r["failure"] is not None),
        "nondeterministic": nondeterministic,
        "traced_mismatch": False,
    }
    if trace:
        traced = traced_pass(flows)
        out["traced"] = traced
        out["layers"] = layer_metrics(traced, e2e["route_s"])
        out["attempted"] += len(traced["rows"])
        out["failed"] += sum(1 for r in traced["rows"] if r["failure"] is not None)
        out["traced_mismatch"] = quality_key(traced["rows"]) != quality_key(first)
    out["correct"] = (
        out["failed"] == 0 and not nondeterministic and not out["traced_mismatch"]
    )
    return out


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4f}"


def report(out: Dict[str, object], seconds: float) -> List[str]:
    """Human-readable lines for one workload run."""
    flows = out["flows"]
    samples = out["samples"]
    lines = [
        f"# workload={out['workload']} seed={out['seed']} "
        f"flows/pass={len(flows)} passes={len(samples)} seconds={seconds:g}",
        "end-to-end (tracing off):",
    ]
    units = {n: u for n, u, _, _ in END_TO_END}
    for name, value in out["e2e"].items():
        note = ""
        if name == "route_s":
            note = (
                f"  median of {len(samples)} passes "
                f"[{min(samples):.3f} .. {max(samples):.3f}]; no high "
                "percentile (needs >= 10 samples beyond it)"
            )
        elif name == "setup_s":
            note = (
                f"  median of {len(out['setup_samples'])} fresh processes "
                f"[{min(out['setup_samples']):.3f} .. "
                f"{max(out['setup_samples']):.3f}]"
            )
        elif name in ("matched_clusters", "total_length"):
            every = sum(r.get(name, 0) for r in flows)
            note = f"  published-layout flows; {every} over every flow"
        lines.append(f"  {name:<18} {_fmt(value):>12} {units[name]:<6}{note}")
    fail_rate = out["failed"] / out["attempted"]
    lines.append(
        f"  {'fail_rate':<18} {_fmt(fail_rate):>12} {'ratio':<6}  "
        f"{out['failed']} of {out['attempted']} flows failed"
    )
    reasons = sorted({r["failure"] for r in flows if r["failure"]})
    for reason in reasons[:5]:
        lines.append(f"    failure: {reason[:160]}")
    if out["nondeterministic"]:
        lines.append("  ERROR: passes disagree on quality (nondeterministic)")
    if out["traced_mismatch"]:
        lines.append("  ERROR: traced pass quality differs from untraced")
    table, flagged = table2_report(flows)
    lines.append(
        "published layouts, this run/results_table2.json "
        f"({flagged} rows differ):"
    )
    lines.extend(table)
    if "layers" in out:
        traced = out["traced"]
        total = traced["clock"].total_self_s()
        lines.append(
            f"per-layer (one traced pass, {traced['wall_s']:.3f} s wall, "
            f"self times sum to {total:.3f} s):"
        )
        layer_units = {n: u for n, u, _ in PER_LAYER}
        for name, value in out["layers"].items():
            lines.append(f"  {name:<24} {_fmt(value):>14} {layer_units[name]}")
    return lines


def result_line(out: Dict[str, object], trace: bool) -> str:
    if trace:
        units = {n: u for n, u, _ in PER_LAYER}
        values = out["layers"]
    else:
        units = {n: u for n, u, _, _ in END_TO_END}
        values = out["e2e"]
    return json.dumps(
        {
            "correct": bool(out["correct"]),
            "attempted": int(out["attempted"]),
            "failed": int(out["failed"]),
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]}
                for name in units
            },
        }
    )


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process, each with a traced pass."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-spec", action="store_true", help="rewrite BENCHMARK.json"
    )
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as f:
            json.dump(benchmark_spec(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            import_repro()
            build_flows(workload, args.seed)
            print(repr(_now()))
            return 0
        out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(out, args.seconds)), flush=True)
    print(result_line(out, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
