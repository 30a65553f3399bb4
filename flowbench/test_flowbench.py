"""Self-checks of the flow-level benchmark.

Run from the repository root with ``python3 -m pytest flowbench -q``.
The pass-level checks route the published layouts of ``table2-small``
(S1-S5 x all three methods) three times, about half a minute in all.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

import run
from layers import TARGETS, LayerClock, _resolve
from workloads import WORKLOADS, build_flows

# Seconds of the traced pass's wall time the layer self times may leave
# unexplained: the loop between flows, outside every root frame.
_WALL_SLACK_S = 0.05

_TIMES = {"trace.overhead", "astar.exp_per_s"}

# Checkpoints embed the budget's wall-clock reading, whose printed
# length varies by a few bytes from run to run.
_NEAR_EXACT = {"checkpoint.bytes"}


def _effort(layers):
    """The per-layer metrics that count work, not time."""
    return {
        name: value
        for name, value in layers.items()
        if not name.endswith((".s", "_s")) and name not in _TIMES | _NEAR_EXACT
    }


@pytest.fixture(scope="module")
def passes():
    run.import_repro()
    flows = build_flows(
        dataclasses.replace(WORKLOADS["table2-small"], perturbed=0), seed=0
    )
    route_s, rows = run.untraced_pass(flows)
    first = run.traced_pass(flows)
    second = run.traced_pass(flows)
    return route_s, rows, first, second


def test_spec_matches_committed_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == run.benchmark_spec()


def test_every_metric_name_is_unique():
    names = [m[0] for m in run.END_TO_END] + [m[0] for m in run.PER_LAYER]
    assert len(names) == len(set(names))


def test_layer_clock_charges_self_time_to_the_innermost_layer():
    clock = LayerClock()

    def leaf():
        time.sleep(0.02)

    inner = clock.timed("inner", leaf)

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    started = time.perf_counter()
    clock.run_root(clock.timed("outer", outer))
    wall = time.perf_counter() - started
    assert clock.calls == {"core": 1, "outer": 1, "inner": 2}
    assert clock.self_s["inner"] >= 0.04
    assert 0.01 <= clock.self_s["outer"] < 0.02
    assert clock.total_self_s() == pytest.approx(wall, abs=1e-3)


def test_installed_restores_every_target():
    run.import_repro()
    before = [_resolve(path).__dict__[attr] for path, attr, _ in TARGETS]
    with LayerClock().installed():
        during = [_resolve(path).__dict__[attr] for path, attr, _ in TARGETS]
    after = [_resolve(path).__dict__[attr] for path, attr, _ in TARGETS]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


def test_two_traced_passes_repeat_exactly(passes):
    _, _, first, second = passes
    assert run.quality_key(first["rows"]) == run.quality_key(second["rows"])
    a, b = first["counters"], second["counters"]
    assert {k: v for k, v in a.items() if k not in _NEAR_EXACT} == {
        k: v for k, v in b.items() if k not in _NEAR_EXACT
    }
    for name in _NEAR_EXACT:
        assert a[name] == pytest.approx(b[name], rel=1e-3)
    a = _effort(run.layer_metrics(first, 1.0))
    b = _effort(run.layer_metrics(second, 1.0))
    assert a == b
    assert a["astar.expansions"] > 0 and a["mcf.calls"] > 0


def test_traced_pass_reports_the_untraced_quality(passes):
    _, rows, first, _ = passes
    assert run.quality_key(first["rows"]) == run.quality_key(rows)
    assert run.quality_metrics(first["rows"]) == run.quality_metrics(rows)
    assert all(r["failure"] is None for r in rows)


def test_self_times_account_for_the_traced_wall_time(passes):
    route_s, _, first, _ = passes
    layers = run.layer_metrics(first, route_s)
    self_times = [
        value for name, value in layers.items()
        if name.endswith(".s") and not name.startswith(("stage.", "analysis."))
    ]
    assert all(value >= 0 for value in self_times)
    explained = sum(self_times) + layers["core.self_s"]
    assert explained == pytest.approx(first["clock"].total_self_s(), rel=1e-9)
    assert explained <= first["wall_s"]
    assert first["wall_s"] - explained < _WALL_SLACK_S
