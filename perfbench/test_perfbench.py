"""Self-test of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload, shortened to a few steps, is traced twice with one seed: the
counters and the final states must repeat exactly.  A second seed must
change the problem, so the seed reaches the SplitMix64 generators.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tracing import measure_traced
from workloads import WORKLOADS, final_arrays, measure

SEED = 20240
SHORT_STEPS = 4
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Per-layer counters each workload exists to exercise.
EXERCISED = {
    "lr-krylov-n400": ("krylov.bases_built", "densecore.compress.calls"),
    "all-schemes-nonsym-n100": (
        "densecore.solve_sylvester.calls",
        "phifun.phi_action_quadrature.calls",
        "densecore.expm_actions.fallback_calls",
    ),
    "all-schemes-sym-n64": (
        "sylvop.phi_action_augmented.calls",
        "densecore.expm_actions.chain_calls",
        "densecore.expm.calls.n256",
    ),
}


def counters(result):
    """Every per-layer metric that is not a time."""
    return {name: value for name, (value, unit) in result.metrics.items() if unit != "s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_exactly(name):
    workload = WORKLOADS[name]
    t_end = SHORT_STEPS * workload.h
    first = measure_traced(workload, SEED, t_end=t_end)
    second = measure_traced(workload, SEED, t_end=t_end)

    assert first.mismatched == 0 and second.mismatched == 0
    assert counters(first) == counters(second)
    assert all(first.metrics[metric][0] > 0 for metric in EXERCISED[name])
    for a, b in zip(first.runs, second.runs):
        assert all(np.array_equal(x, y) for x, y in zip(final_arrays(a), final_arrays(b)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_problem(name):
    workload = WORKLOADS[name]
    first, second = workload.problem(SEED), workload.problem(SEED + 1)
    assert np.array_equal(first.A, second.A)
    for generator in ("B", "C", "L0"):
        assert not np.array_equal(getattr(first, generator), getattr(second, generator))


def test_metric_names_match_benchmark_json():
    workload = WORKLOADS["all-schemes-sym-n64"]
    t_end = SHORT_STEPS * workload.h
    timed = measure(workload, SEED, seconds=0, t_end=t_end)
    traced = measure_traced(workload, SEED, t_end=t_end)

    def declared(kind):
        return {m["name"]: m["unit"] for m in BENCHMARK[kind]}

    assert {k: unit for k, (_, unit) in timed.metrics.items()} == declared("end_to_end")
    assert {k: unit for k, (_, unit) in traced.metrics.items()} == declared("per_layer")
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
