"""Smoke test of the benchmark at a tiny problem size.

    python3 -m pytest perfbench/test_smoke.py -q

Shrinks the grids and step counts, computes the refined references for
those tiny inputs here, and checks that every metric BENCHMARK.json
declares is emitted with its unit, that counts repeat between passes, and
that a perturbed reference is counted as a failure.
"""

import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = dict(gapped_grid=(1.0, 17, 2, 1e-5), gapped_steps=512,
            defect_grid=(1.0, 20, 2, 2.0 ** -20),
            series_grid=(1.0, 8, 4, 2.0 ** -8),
            sweep_overrides=(("nodes_per_panel", 4),))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    inputs = replace(workloads.make_inputs(0), **TINY)
    out_dir = str(tmp_path_factory.mktemp("reference"))
    refs = {key: workloads.WORKLOADS[key].reference(inputs, out_dir)
            for key in ("threshold_sweep", "gapped_probe", "verification_suite")}
    return inputs, refs


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(tiny, traced, name="gapped_probe", refs=None):
    inputs, tiny_refs = tiny
    return bench.run(name, 0, 0.01, traced, 1, inputs=inputs,
                     refs=refs or tiny_refs)


@pytest.mark.parametrize("traced,section", [(False, "end_to_end"),
                                            (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, declared,
                                                        traced, section):
    result = _run(tiny, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared[section]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_between_passes(tiny, tmp_path, name):
    inputs, refs = tiny
    tracer = spans.Tracer()
    runner = bench.Runner(name, inputs, refs, str(tmp_path), tracer)
    counts = []
    for pass_id in (0, 1):
        assert runner.one_pass(pass_id, traced=True) is not None
        metrics = spans.pass_metrics(
            [s for s in tracer.spans if s.pass_id == pass_id])
        # sweep.emit_bytes is left out: manifest.json holds measured times
        counts.append({k: v for k, v in metrics.items()
                       if spans.unit(k) == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["propagate.steps"] + counts[0]["propagate.wave_steps"] > 0
    assert runner.failures == []


def test_perturbed_reference_is_counted_as_failure(tiny):
    _, refs = tiny
    perturbed = dict(refs)
    perturbed["gapped_probe"] = {k: v * 1.01
                                 for k, v in refs["gapped_probe"].items()}
    result = _run(tiny, traced=True, refs=perturbed)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["bench.failed_ratio"]["value"] > 0.0
