"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from foliavg import scenarios  # noqa: E402
from tracer import Tracer, layer_metric_names  # noqa: E402
from workloads import ALL_CHECKS, WORKLOADS, expected_verdicts, rot  # noqa: E402


def _verdicts(doc: dict) -> dict:
    report = scenarios.run_checks(scenarios.scenario_from_dict(doc))
    return {(c.stage, c.check): c.passed for c in report.checks}


def test_small_rot_passes_all_23_checks():
    doc = rot(3, 2, 1, seed=0)
    verdicts = _verdicts(doc)
    assert list(verdicts) == list(ALL_CHECKS)
    assert all(verdicts.values())
    assert verdicts == expected_verdicts(doc["name"])


def test_two_seeds_give_different_scenarios_that_both_pass():
    a, b = rot(3, 2, 1, seed=1), rot(3, 2, 1, seed=2)
    assert a != b
    assert a == rot(3, 2, 1, seed=1)
    assert all(_verdicts(a).values()) and all(_verdicts(b).values())


def test_manifest_names_every_workload_and_layer_metric():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: why for name, (why, _) in WORKLOADS.items()
    }
    assert [m["name"] for m in manifest["per_layer"]] == layer_metric_names()


def test_tracer_counts_calls_through_every_binding_and_restores():
    original = scenarios.run_checks
    s = scenarios.load_scenario("triv")
    tracer = Tracer()
    tracer.install()
    try:
        scenarios.run_checks(s)
    finally:
        tracer.uninstall()
    assert scenarios.run_checks is original
    assert tracer.calls["scenarios.run_checks"] == 1
    # hannay_berry is reached through its bindings in action and hamcurv.
    assert tracer.calls["action.hannay_berry"] == 5
    assert tracer.calls["foliation.Connection.projection"] > 0
    assert tracer.total_ns["scenarios.stage.dirac"] > 0
    for name, self_ns in tracer.self_ns.items():
        assert 0 <= self_ns <= tracer.total_ns[name], name
