"""Guards on what code outside the package reads of it.

perfbench's tracer (`perfbench/spans.py`) wraps the package's functions
from outside and takes its step counts from names and shapes it pins:
`sweep._calibrate_steps`, `evolve_true`'s `n_window_steps` and
`unitarity_drift`, and `evolve_wave_operator`'s third argument and
`result[2]`. A name it cannot find is skipped, so a refactor there zeroes
a count without failing a benchmark run: one traced pass of each workload,
at full size and seed 0, must still see them.
"""

import importlib
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from friedrichs.propagate import WaveBlock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

#: the counts of one pass. threshold_sweep: calibration runs every tau at
#: 2048 steps and the two end taus at 1024, and production reuses the
#: 2048-step records, so 2048 + 1024. verification_suite: four defects
#: at 1024 steps. gapped_probe: its taus in one batch at 2048 steps
PINNED = {
    "threshold_sweep": {"propagate.steps": 3072, "sweep.calibration_steps": 3072},
    "verification_suite": {"propagate.wave_steps": 4096},
    "gapped_probe": {"propagate.steps": 2048},
}


@pytest.fixture(scope="module")
def seed0():
    inputs = workloads.make_inputs(0)
    return inputs, workloads.load_references(inputs)


def test_tracer_finds_every_name_it_wraps():
    assert [(module, attr) for module, attr, _ in spans.WRAPPED
            if not hasattr(importlib.import_module(module), attr)] == []


@pytest.mark.parametrize("name", PINNED)
def test_traced_pass_checks_and_counts(name, seed0, tmp_path):
    inputs, refs = seed0
    workload = workloads.WORKLOADS[name]
    state = workload.setup(inputs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = workload.run(state, str(tmp_path))
    finally:
        tracer.uninstall()
    _, ref_checks = workloads.compare(result.values, refs[workload.ref_key],
                                      workload.rtol)
    assert [check for check, ok in {**result.checks, **ref_checks}.items()
            if not ok] == []
    metrics = spans.pass_metrics(tracer.spans)
    assert {key: metrics[key] for key in PINNED[name]} == PINNED[name]
    # the drift read off result[2] or unitarity_drift is a unitarity drift
    assert 0.0 < metrics["propagate.drift_max"] <= 1e-9
    if name == "verification_suite":
        assert metrics["volterra.defect_s"] > 0.0


def test_volterra_reads_no_waveblock_core_field():
    # volterra reaches a block's cores only through WaveBlock's methods, so
    # a new step or core layout changes WaveBlock alone; start, omega and
    # offsets are the fields it may read
    cores = {f.name for f in fields(WaveBlock)} - {"start", "omega", "offsets"}
    read = re.compile(rf"\.({'|'.join(sorted(cores))})\b")
    source = (ROOT / "src" / "friedrichs" / "volterra.py").read_text(encoding="utf-8")
    assert [line for line in source.splitlines() if read.search(line)] == []


def test_committed_bench_files_hold_the_declared_runs():
    # each BENCH_*.json is one perfbench/run.py run per declared workload,
    # keyed by workload, with its environment and result; two such files
    # compare only if each holds every workload of BENCHMARK.json, correct,
    # with exactly its end-to-end metric names
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(w["name"] for w in declared["workloads"])
    metrics = sorted(m["name"] for m in declared["end_to_end"])
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        runs = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(runs) == names, path.name
        for name, run in runs.items():
            assert "environment" in run, f"{path.name}: {name}"
            assert run["result"]["correct"] is True, f"{path.name}: {name}"
            assert sorted(run["result"]["metrics"]) == metrics, f"{path.name}: {name}"
