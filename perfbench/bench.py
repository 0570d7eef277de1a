"""One benchmark run: set-up, warm-up, timed passes, checks and metrics.

Passes run closed-loop from this process. With tracing off they give the
end-to-end metrics. Set-up time is the median over fresh processes
started between passes and spread evenly over the timed window, so that
they meet the same mix of slow and fast stretches of a shared host as the
passes do.
With tracing on, untraced and traced passes alternate, the traced ones
give the per-layer metrics, and the difference of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import spans
import workloads
from friedrichs.errors import FriedrichsError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 4          # at least two traced passes in a traced run
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "result_rel_err": "1"}


def host_probe() -> float:
    """Median seconds of a fixed numpy job; it shows a slow host, ungated."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    x = rng.standard_normal(200_000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        b = a
        for _ in range(8):
            b = b @ a
            b /= np.linalg.norm(b)
        for _ in range(4):
            np.exp(1j * x).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _git_revision() -> str | None:
    """HEAD of a .git directory at the root, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "friedrichs")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": blas_threads,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_revision": _git_revision(),
            "source_sha256": _source_sha256()}


def _cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_once(workload: str, seed: int) -> float:
    """Set-up time of the workload in one fresh process (see setup_probe.py)."""
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    out = subprocess.run([sys.executable, probe, workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _children_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class Runner:
    """Runs and checks passes of one workload, counting every check."""

    def __init__(self, name: str, inputs, refs: dict, out_dir: str,
                 tracer=None):
        self.wl = workloads.WORKLOADS[name]
        self.refs = refs[self.wl.ref_key]
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.serial_csv = None
        with self._traced("setup", tracer is not None):
            self.state = self.wl.setup(inputs)

    @contextlib.contextmanager
    def _traced(self, pass_id, on: bool):
        if not on:
            yield
            return
        self.tracer.pass_id = pass_id
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def _count(self, checks: dict[str, bool]):
        self.attempted += len(checks)
        self.failures += [name for name, ok in checks.items() if not ok]

    def one_pass(self, pass_id, traced=False, serial=False):
        """(wall s, cpu s, result_rel_err) of one checked pass; None if it raised.

        The first pass to emit a CSV (the serial warm-up) fixes the bytes
        that every later CSV must match.
        """
        t0, c0 = time.perf_counter(), _cpu_seconds()
        try:
            with self._traced(pass_id, traced):
                res = self.wl.run(self.state, self.out_dir, serial=serial)
        except FriedrichsError as exc:
            self._count({f"pass {pass_id} raised {type(exc).__name__}": False})
            return None
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        rel_err, ref_checks = workloads.compare(res.values, self.refs,
                                                self.wl.rtol)
        checks = {**res.checks, **ref_checks}
        if res.csv is not None:
            if self.serial_csv is None:
                self.serial_csv = res.csv
            checks["csv byte-identical to the serial warm-up"] = \
                res.csv == self.serial_csv
        self._count(checks)
        return wall, cpu, rel_err


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(name: str, seed: int, seconds: float, traced: bool, blas_threads: int,
        inputs=None, refs=None) -> dict:
    """Run, print and return the result; `inputs` and `refs` default to
    the seed's shipped variant (the smoke test passes tiny ones)."""
    env = environment(blas_threads)
    env["host_probe_start_s"] = host_probe()
    if inputs is None:
        inputs = workloads.make_inputs(seed)
        refs = workloads.load_references(inputs)
    env["variant"] = inputs.variant
    tracer = spans.Tracer() if traced else None
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = os.path.join(OUT_ROOT, f"{name}-{os.getpid()}")
    untraced, traced_walls, layer_runs, setups = [], [], [], []
    n_setups = 0 if traced else SETUP_PROBES
    # the children's peak before the first set-up process: pool workers
    # only, since set-up processes are not the workload's memory
    children_kb = None
    try:
        runner = Runner(name, inputs, refs, out_dir, tracer)
        runner.one_pass("warmup", serial=True)
        start = time.perf_counter()
        deadline = start + seconds
        n = 0
        while n < MIN_PASSES or time.perf_counter() < deadline:
            due = start + (len(setups) + 1) * seconds / (n_setups + 1)
            if n and len(setups) < n_setups and time.perf_counter() >= due:
                if children_kb is None:
                    children_kb = _children_peak_kb()
                setups.append(setup_once(name, seed))
                continue
            this_traced = traced and n % 2 == 1
            got = runner.one_pass(n, traced=this_traced)
            if this_traced:
                if got is not None:
                    traced_walls.append(got[0])
                layer_runs.append(spans.pass_metrics(
                    [s for s in tracer.spans if s.pass_id == n]))
            elif got is not None:
                untraced.append(got)
            n += 1
        if children_kb is None:
            children_kb = _children_peak_kb()
        while len(setups) < n_setups:   # a run too short to spread them
            setups.append(setup_once(name, seed))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(runner.failures)
    if traced:
        setup_spans = [s for s in tracer.spans if s.pass_id == "setup"]
        metrics = {key: _metric(statistics.median(r[key] for r in layer_runs),
                                spans.unit(key))
                   for key in layer_runs[0]}
        metrics["model.setup_build_s"] = _metric(
            spans.pass_metrics(setup_spans)["model.build_s"], "s")
        metrics["bench.failed_ratio"] = _metric(failed / runner.attempted, "1")
        overhead = (statistics.median(traced_walls)
                    - statistics.median(u[0] for u in untraced)
                    if traced_walls and untraced else 0.0)
        metrics["bench.trace_overhead_s"] = _metric(overhead, "s")
    else:
        metrics = {
            "wall_s": statistics.median(u[0] for u in untraced),
            "cpu_s": statistics.median(u[1] for u in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024.0,
            "result_rel_err": max(u[2] for u in untraced),
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    env["host_probe_end_s"] = host_probe()
    env["passes"] = n
    walls = sorted(u[0] for u in untraced)
    env["untraced_wall_s_quartiles"] = (statistics.quantiles(walls, n=4)
                                        if len(walls) > 1 else walls)
    env["failed_checks"] = sorted(set(runner.failures))

    if traced:
        path = os.path.join(OUT_ROOT, f"trace-{name}-seed{seed}.json")
        tracer.write(path, env)
        env["trace_file"] = os.path.relpath(path, ROOT)
        print(spans.layer_table(layer_runs))
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return result
