"""The benchmark's own tests, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS, _Span, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def outcomes():
    cache = {}

    def get(workload: str, trace: bool) -> workloads.Outcome:
        if (workload, trace) not in cache:
            cache[workload, trace] = workloads.WORKLOADS[workload](
                3, 0.1, trace, workloads.TINY
            )
        return cache[workload, trace]

    return get


def test_benchmark_json_lists_every_workload_and_layer_metric():
    assert NAMES == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == LAYER_METRICS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_with_its_unit(outcomes, workload, trace):
    outcome = outcomes(workload, trace)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert outcome.failures == [] and outcome.failed == 0
    assert outcome.attempted >= 1
    if not trace:
        assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_output_is_byte_identical(outcomes, workload):
    plain = outcomes(workload, False).reports
    traced = outcomes(workload, True).reports
    if workload == "serve-mixed":
        # The request sequence is the same; the traced run may stop
        # after fewer passes.
        plain = plain[: len(traced)]
    else:
        plain = plain[:1]
        traced = traced[:1]
    assert traced and traced == plain


@pytest.mark.parametrize("workload", NAMES)
def test_layer_self_times_cover_the_traced_wall_time(outcomes, workload):
    value, unit = outcomes(workload, True).metrics["trace.coverage"]
    assert 0.9 <= value <= 1.0


def test_node_sweep_engines_agree():
    from repro.scenarios.spec import ScenarioSpec

    reports = []
    for engine in ("vectorized", "interpreted"):
        data = workloads.node_sweep_spec(workloads.TINY)
        data["execution"]["engine"] = engine
        spec = ScenarioSpec.from_dict(data)
        code, report = workloads._run_captured(spec, spec.execution.resolve())
        assert code == 0
        reports.append(report)
    assert reports[0] == reports[1]


def test_scaled_divides_by_the_probes_on_either_side():
    ref = workloads.PROBE_REF_S
    gaps = [[ref], [ref], [2.0 * ref, 4.0 * ref, 6.0 * ref]]
    times = workloads.scaled([1.0, 3.0], gaps)
    assert times == pytest.approx([1.0, 1.0])


def test_self_time_subtracts_overlapping_children_once():
    def span(sid, parent, start, end):
        s = _Span(sid, parent, "m", "timed")
        s.start, s.end = start, end
        return s

    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),  # overlaps span 2 (another thread)
        span(4, 2, 1.5, 2.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)
