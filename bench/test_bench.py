"""Tests of the benchmark itself: tracing changes no output, counts repeat,
the package is restored, and the runner refuses to run without sources.

    python3 -m pytest bench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

from wdesign import cli  # noqa: E402

SEED = 3


def bindings() -> dict:
    """Every attribute of the loaded wdesign modules, plus each class's own ``__init__``."""
    out = {}
    for module in tracing.package_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type):
                out[(module.__name__, attr, "__init__")] = value.__dict__.get("__init__")
    return out


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request, tmp_path_factory):
    """One untraced and two traced jobs of a workload, with the bindings around them."""
    workload = request.param
    directory = tmp_path_factory.mktemp(workload)
    problem = workloads.write_problem(workload, SEED, directory)
    report = directory / "report.json"
    argv = workloads.command(workload, SEED, problem, report)
    before = bindings()
    plain = run.run_job(cli, workload, argv, report)
    traced = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.job_id = 0
        job = run.run_job(cli, workload, argv, report, tracer)
        traced.append((job, run.layer_metrics(tracer, [job], [plain])))
    return workload, plain, traced, before, bindings()


def test_tracing_leaves_stdout_unchanged(runs):
    _, plain, traced, _, _ = runs
    assert plain.verdict.ok, plain.verdict.reason
    for job, _ in traced:
        assert job.verdict.ok, job.verdict.reason
        assert job.stdout_digest == plain.stdout_digest


def test_counts_repeat_exactly(runs):
    workload, _, traced, _, _ = runs
    (_, first), (_, second) = traced
    for key in ("search.evals", "search.infeasible", "linalg.eig_sym.calls"):
        assert first[key] == second[key], key
    if workload == "enum-blocks":
        assert first["search.evals"][0] == 4**8
        assert first["search.ties"][0] == workloads.ENUM_TIES


def test_self_times_account_for_the_job(runs):
    _, _, traced, _, _ = runs
    for job, metrics in traced:
        unattributed = metrics["trace.unattributed_s"][0]
        assert 0.0 <= unattributed < 0.01 * job.wall_s


def test_package_restored_after_tracing(runs):
    _, _, _, before, after = runs
    assert before.keys() == after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


def test_self_times_subtract_child_coverage():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    own = tracing.self_times(parent, end - start)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)
    name = np.array([0, 1, 2, 3])
    assert tracing.descends_from(name, parent, 1).tolist() == [False, False, True, False]


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_stdout_compared_per_input():
    ok = workloads.Verdict(True, 1.0)
    jobs = [run.Job(1.0, 1.0, "a", ok, 0), run.Job(1.0, 1.0, "b", ok, 1),
            run.Job(1.0, 1.0, "a", ok, 0), run.Job(1.0, 1.0, "c", ok, 1)]
    assert run.failures(jobs) == ["job 3: stdout differs from the first job's of input 1"]


def test_input_seeds_distinct_across_runs():
    for workload in workloads.WORKLOADS:
        seeds = [s for seed in range(20) for s in workloads.input_seeds(workload, seed)]
        assert len(set(seeds)) == len(seeds) == 20 * workloads.INPUTS[workload]
