"""End-to-end and per-layer benchmark of the ``wdesign`` command line.

    python3 bench/run.py --workload enum-blocks --seed 0 --seconds 40 --trace 0

One process runs the workload's command through ``wdesign.cli.main`` in a
closed loop: the next job starts when the previous one has finished and been
checked, and only if it is expected to end within ``--seconds``; at least one
job runs.  Untraced runs cycle through the workload's inputs
(``workloads.INPUTS``, seeded from ``--seed``); traced runs use the first.  The runner starts no threads; the BLAS thread count is reported
as found.  Set-up (importing NumPy and wdesign, then ``cli.load_problem``) is
timed in fresh interpreter processes before the first job.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced jobs and half on jobs traced by ``tracer.Tracer``, writes
the spans to ``bench/.work/`` and reports the per-layer metrics, including
the tracing overhead.  Every job's output is checked (see ``workloads``);
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` next to
this directory; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

#: Fresh processes timed for set-up; the median is reported.
SETUP_REPEATS = 7

SETUP_SNIPPET = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
from wdesign import cli
cli.load_problem(sys.argv[2])
print(repr(time.perf_counter() - started))
"""


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    stdout_digest: str
    verdict: workloads.Verdict
    input: int = 0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, or None when not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(problem: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(problem)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_job(cli, workload: str, argv: list[str], report: Path,
            tracer: tracing.Tracer | None = None) -> Job:
    """One command, timed; checked after the clock stops."""
    report.unlink(missing_ok=True)
    buffer = io.StringIO()
    code = None
    gc.collect()  # so that no job pays for its predecessor's garbage
    if tracer is not None:
        tracer.install()
    try:
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            with redirect_stdout(buffer):
                code = cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    if code is None:
        verdict = workloads.Verdict(False, 0.0, "raised")
    else:
        try:
            results = json.loads(report.read_text())["results"]
            verdict = workloads.check(workload, code, results)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            verdict = workloads.Verdict(False, 0.0, f"unreadable report: {exc!r}")
    return Job(wall, cpu, digest, verdict)


def closed_loop(cli, workload, inputs, seconds, tracer=None) -> list[Job]:
    """Jobs one after another while the next, as long as the last, ends within ``seconds``.

    ``inputs`` holds (argv, report) pairs; job ``j`` runs input ``j % len(inputs)``.
    """
    jobs = []
    started = time.perf_counter()
    while not jobs or time.perf_counter() - started + jobs[-1].wall_s <= seconds:
        if tracer is not None:
            tracer.job_id = len(jobs)
        index = len(jobs) % len(inputs)
        argv, report = inputs[index]
        job = run_job(cli, workload, argv, report, tracer)
        job.input = index
        jobs.append(job)
    return jobs


def failures(jobs: list[Job]) -> list[str]:
    """Reasons of failed jobs; stdout must be byte-identical across jobs of one input."""
    out = []
    first = {}
    for index, job in enumerate(jobs):
        digest = first.setdefault(job.input, job.stdout_digest)
        if not job.verdict.ok:
            out.append(f"job {index}: {job.verdict.reason}")
        elif job.stdout_digest != digest:
            out.append(f"job {index}: stdout differs from the first job's of input {job.input}")
    return out


def end_to_end(jobs: list[Job], setups: list[float]) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = {}
    for job in jobs:
        best.setdefault(job.input, job.verdict.best_value)
    return {
        "job_s": (statistics.median(j.wall_s for j in jobs), "s"),
        "cpu_s": (statistics.median(j.cpu_s for j in jobs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        "best_value": (statistics.median(best.values()), "criterion"),
    }


#: Per-call layer metrics: metric prefix -> span name.  ``.calls`` is the
#: count per job, ``.us`` the mean self time per call.
CALL_METRICS = {
    "linalg.eig_sym": "linalg.eig_sym",
    "linalg.pinv": "linalg.pinv",
    "linalg.symmatrix": "linalg.SymMatrix",
    "linalg.symmetrized": "linalg.symmetrized",
    "model.information_matrix": "model.information_matrix",
    "model.infeasible_columns": "model.infeasible_columns",
    "estimable.info_matrix_for_system": "estimable.info_matrix_for_system",
    "weighting.weighted_info_matrix": "weighting.weighted_info_matrix",
    "weighting.weighted_variance": "weighting.weighted_variance",
    "weighting.make_weight_matrix": "weighting.make_weight_matrix",
}


def layer_metrics(tracer: tracing.Tracer, traced: list[Job], untraced: list[Job]) -> dict:
    """Per-layer metrics of the traced jobs; counts are per job."""
    spans = tracer.spans()
    name, parent, job = spans["name"], spans["parent"], spans["job"]
    duration = spans["end"] - spans["start"]
    own = tracing.self_times(parent, duration)
    jobs = len(traced)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(*span_names):
        return np.isin(name, [ids[n] for n in span_names if n in ids])

    def per_job(*span_names):
        return int(np.count_nonzero(mask(*span_names))) / jobs

    def mean(values, *span_names):
        m = mask(*span_names)
        return float(np.mean(values[m])) if m.any() else 0.0

    def total(values, *span_names):
        return float(np.sum(values[mask(*span_names)])) / jobs

    def tally(key):
        return sum(tracer.tally.get((j, key), 0.0) for j in range(jobs)) / jobs

    evals = per_job(tracing.EVALUATE)
    infeasible = tally("search.infeasible")
    drawing = tracing.descends_from(name, parent, ids.get("instances.random_instance", -1))
    draws = int(np.count_nonzero(drawing & mask("model.information_matrix")))
    walls = [j.wall_s for j in traced]
    own_by_job = np.bincount(job, weights=own, minlength=jobs)
    m = {
        "cli.load_problem_ms": (1e3 * mean(duration, "cli.load_problem"), "ms"),
        "cli.report_ms": (1e3 * total(own, "cli.cmd_search", "cli.cmd_certify"), "ms"),
        "search.evals": (evals, "count"),
        "search.infeasible": (infeasible, "count"),
        "search.feasible_ratio": ((evals - infeasible) / evals if evals else 0.0, "ratio"),
        "search.eval_us": (1e6 * mean(duration, tracing.EVALUATE), "us"),
        "search.eval_self_us": (1e6 * mean(own, tracing.EVALUATE), "us"),
        "search.loop_self_s": (total(own, "search.enumerate_optimal",
                                     "search.exchange_search"), "s"),
        "search.ties": (tally("search.ties"), "count"),
        "search.prepare_ms": (1e3 * total(duration, "search.SearchProblem",
                                          "search.label_symmetric",
                                          "search.make_evaluator"), "ms"),
    }
    for metric, span in CALL_METRICS.items():
        m[f"{metric}.calls"] = (per_job(span), "count")
        m[f"{metric}.us"] = (1e6 * mean(own, span), "us")
    m["linalg.projector.calls"] = (per_job("linalg.projector"), "count")
    for kind, fn in tracing.CERTIFICATIONS.items():
        m[f"criteria.certify.{kind}.ms"] = (1e3 * mean(duration, f"criteria.{fn}"), "ms")
    for kind in tracing.CERTIFICATIONS:
        m[f"criteria.max_deviation.{kind}"] = (tally(f"criteria.max_deviation.{kind}"), "rel")
    returned = tally("instances.returned") * jobs
    m["instances.random_instance.ms"] = (1e3 * mean(duration, "instances.random_instance"),
                                         "ms")
    m["instances.accept_ratio"] = (returned / draws if draws else 0.0, "ratio")
    m["trace.overhead_s"] = (statistics.median(walls)
                             - statistics.median(j.wall_s for j in untraced), "s")
    m["trace.unattributed_s"] = (
        statistics.median(w - own_by_job[i] for i, w in enumerate(walls)), "s")
    m["trace.spans"] = (name.size / jobs, "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wdesign" / "cli.py").is_file():
        print(f"error: no wdesign sources at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    seeds = workloads.input_seeds(args.workload, args.seed)
    if args.trace:
        seeds = seeds[:1]
    problems, inputs = [], []
    for seed in seeds:
        problems.append(workloads.write_problem(args.workload, seed, WORK))
        report = WORK / f"{args.workload}-{seed}-report.json"
        inputs.append((workloads.command(args.workload, seed, problems[-1], report), report))

    setups = [] if args.trace else [measure_setup(problems[0]) for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    from wdesign import cli

    if args.trace:
        untraced = closed_loop(cli, args.workload, inputs, args.seconds / 2)
        tracer = tracing.Tracer()
        traced = closed_loop(cli, args.workload, inputs, args.seconds / 2, tracer)
        tracer.save(WORK / f"spans-{args.workload}-{args.seed}.npz")
        jobs = untraced + traced
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        jobs = closed_loop(cli, args.workload, inputs, args.seconds)
        metrics = end_to_end(jobs, setups)
    failed = failures(jobs)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs on {len(inputs)} inputs, closed loop, one process; Python {platform.python_version()}, "
          f"NumPy {np.__version__}, BLAS threads {blas_threads()}, CPUs {os.cpu_count()}")
    if not args.trace:
        print(f"  job_s and cpu_s are medians of {len(jobs)} jobs, best_value of "
              f"{len({j.input for j in jobs})} inputs' best "
              f"(job_s min {min(j.wall_s for j in jobs):.4f}, "
              f"max {max(j.wall_s for j in jobs):.4f}); "
              f"setup_s is the median of {SETUP_REPEATS} fresh processes")
    for key, (value, unit) in metrics.items():
        print(f"  {key:38s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':38s} {len(failed)}/{len(jobs)} = {len(failed) / len(jobs):.6g} ratio")
    for reason in failed:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
