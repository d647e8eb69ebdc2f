"""Command-line surface: problem files in, human and machine reports out.

Problem files are JSON documents with ``model``, ``estimation_space``,
``system`` / ``weight_matrix``, ``criterion`` and ``search`` sections; see
the README for the full schema.  All numeric output is rendered to 12
significant digits, so reports are diff-stable across runs for a fixed file
and seed.  Exit status: 0 success/pass, 1 certification failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import criteria, search
from .errors import DomainError, ParseError, SpaceError, WdesignError
from .estimable import EstimableSystem, system_from_weight_matrix_sqrt
from .instances import random_instance
from .linalg import DERIVED_RANK_RTOL, SymMatrix, eig_sym, max_abs, typed
from .model import (
    DesignSpec,
    EstimationSpace,
    _information,
    estimation_space,
    infeasible_columns,
)
from .weighting import (
    check_weight_dominance,
    make_weight_matrix,
    secondary_weights,
    weight_matrix_from_system,
)

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_INPUT = 2

CERT_KINDS = tuple(criteria.STACKED_CERTIFICATIONS)

#: Largest ``v`` and ``n`` a problem file may give.  The routes form square
#: float arrays of these orders (``C`` is ``v x v``, ``I - P_L`` is
#: ``n x n``); one of order 4,096 takes 128 MiB.
SIZE_LIMIT = 4096


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_vector(vec) -> str:
    return "[" + ", ".join(_fmt(x) for x in np.asarray(vec).ravel()) + "]"


def _fmt_matrix(mat) -> str:
    rows = np.atleast_2d(np.asarray(mat, dtype=float))
    return "\n".join("  " + _fmt_vector(row) for row in rows)


def _round12(obj):
    """Recursively render numerics to 12 significant digits for reports."""
    if type(obj) is int:  # the common leaf; a bool is not one
        return obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    return obj


# ---------------------------------------------------------------------------
# problem files


@dataclass(eq=False)
class Problem:
    """In-memory form of a problem file."""

    spec: DesignSpec
    space: EstimationSpace
    system: EstimableSystem | None = None
    weight_raw: SymMatrix | None = None
    weight: object | None = None  # WeightMatrix when the raw W sits inside E
    criterion: str | None = None
    search: dict | None = None


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ParseError(f"missing required field '{key}' in section '{where}'")
    return section[key]


def _section(data: dict, key: str) -> dict | None:
    """The object under ``key``, or None when the key is absent or null."""
    section = data.get(key)
    if section is not None and not isinstance(section, dict):
        raise ParseError(f"section '{key}' must be an object")
    return section


def _number(convert, value, where: str):
    """``convert(value)``, ``convert`` being int or float.  A value it
    rejects, a boolean, and a count with a fractional part are input errors;
    an integral float such as ``3.0`` is a count."""
    try:
        if isinstance(value, bool) or (
                convert is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "an integer" if convert is int else "a number"
        raise ParseError(f"'{where}' must be {kind}, got {value!r}") from exc


def _numbers(convert, values, where: str) -> list:
    if not isinstance(values, list):
        raise ParseError(f"'{where}' must be a list of numbers")
    return [_number(convert, value, where) for value in values]


def _matrix_from(rows, where: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"'{where}' must be a row-major rectangular array") from exc
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ParseError(f"'{where}' must be a row-major rectangular array")
    return arr


def _parse_model(data: dict) -> DesignSpec:
    model = _section(data, "model")
    if model is None:
        raise ParseError("missing required section 'model'")
    v = _number(int, _require(model, "v", "model"), "model.v")
    nuisance = model.get("nuisance", "intercept")
    if isinstance(nuisance, str):
        kind, sizes, ell = nuisance, None, None
    elif isinstance(nuisance, dict):
        kind = _require(nuisance, "kind", "model.nuisance")
        sizes = (tuple(_numbers(int, nuisance["sizes"], "model.nuisance.sizes"))
                 if "sizes" in nuisance else None)
        ell = _matrix_from(nuisance["L"], "model.nuisance.L") if "L" in nuisance else None
    else:
        raise ParseError("'nuisance' must be a string or an object with a 'kind'")
    if "assignment" in model:
        assignment = _numbers(int, model["assignment"], "model.assignment")
        n = len(assignment)
    elif "replications" in model:
        replications = _numbers(int, model["replications"], "model.replications")
        n = sum(replications)
    else:
        raise ParseError("section 'model' needs 'assignment' or 'replications'")
    # n is checked before any design is built: a huge replication count
    # would otherwise build its assignment first
    if "n" in model and _number(int, model["n"], "model.n") != n:
        raise ParseError(f"model says n={model['n']} but the assignment lists {n} units")
    if sizes is not None and sum(sizes) != n:
        raise ParseError(f"invalid model: block sizes sum to {sum(sizes)}, expected n={n}")
    if ell is not None and ell.shape[0] != n:
        raise ParseError(f"invalid model: L has {ell.shape[0]} rows, expected n={n}")
    if max(v, n) > SIZE_LIMIT:
        raise ParseError(f"model has v={v} and n={n}; neither may exceed {SIZE_LIMIT}")
    try:
        if "assignment" in model:
            return DesignSpec(v, tuple(assignment), kind, sizes, ell)
        return DesignSpec.from_replications(v, replications, kind, sizes, ell)
    except ValueError as exc:
        raise ParseError(f"invalid model: {exc}") from exc


def _parse_space(data: dict, spec: DesignSpec) -> EstimationSpace:
    section = _section(data, "estimation_space")
    if section is None:
        kind = "contrasts" if spec.nuisance_kind in ("intercept", "blocks") else "full"
        return estimation_space(kind, spec.v)
    kind = _require(section, "kind", "estimation_space")
    basis = None
    if kind == "explicit":
        basis = _matrix_from(_require(section, "basis", "estimation_space"),
                             "estimation_space.basis")
    try:
        return estimation_space(kind, spec.v, basis)
    except ValueError as exc:
        raise ParseError(f"invalid estimation space: {exc}") from exc


def _pair_columns(v: int, pairs) -> np.ndarray:
    """One column ``(e_j - e_i) / sqrt(2)`` per pair ``(i, j)``."""
    q = np.zeros((v, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        q[i, col], q[j, col] = -1.0, 1.0
    return q / np.sqrt(2.0)


def _parse_system(data: dict, spec: DesignSpec) -> EstimableSystem | None:
    section = _section(data, "system")
    if section is None:
        return None
    if "generator" in section:
        gen = section["generator"]
        if gen == "pairwise":
            q = _pair_columns(spec.v, list(itertools.combinations(range(spec.v), 2)))
        elif gen == "vs_control":
            k = _number(int, section.get("k", spec.v - 1), "system.k")
            if k < 1 or k > spec.v - 1:
                raise ParseError(f"vs_control needs 1 <= k <= v-1, got k={k}")
            q = _pair_columns(spec.v, [(0, t) for t in range(1, k + 1)])
        elif gen == "single":
            q = _matrix_from(_require(section, "q", "system"), "system.q")
        else:
            raise ParseError(f"unknown system generator {gen!r}")
    else:
        q = _matrix_from(_require(section, "Q", "system"), "system.Q")
    if q.shape[0] != spec.v:
        raise ParseError(f"system matrix must have v={spec.v} rows, got {q.shape[0]}")
    normalize = section.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ParseError(f"system.normalize must be true or false, got {normalize!r}")
    if normalize:
        norms = np.linalg.norm(q, axis=0)
        if np.any(norms == 0.0):
            raise ParseError("cannot normalize a zero column")
        q = q / norms
    b = _numbers(float, section["b"], "system.b") if "b" in section else None
    try:
        return EstimableSystem(q, b)
    except ValueError as exc:
        raise ParseError(f"invalid system: {exc}") from exc


def _parse_weight(data: dict, spec: DesignSpec, space: EstimationSpace):
    section = _section(data, "weight_matrix")
    if section is None:
        return None, None
    w = _matrix_from(_require(section, "W", "weight_matrix"), "weight_matrix.W")
    if w.shape != (spec.v, spec.v):
        raise ParseError(f"W must be {spec.v} x {spec.v}, got {w.shape}")
    try:
        raw = typed(w)
    except ValueError as exc:
        raise ParseError(f"invalid weight matrix: {exc}") from exc
    try:
        return raw, make_weight_matrix(raw, space)
    except DomainError as exc:
        raise ParseError(f"invalid weight matrix: {exc}") from exc
    except SpaceError:
        # Kept raw: a positive definite W outside E still certifies theorem2.
        return raw, None


def parse_problem(data: dict) -> Problem:
    if not isinstance(data, dict):
        raise ParseError("problem file must hold a JSON object")
    spec = _parse_model(data)
    space = _parse_space(data, spec)
    system = _parse_system(data, spec)
    weight_raw, weight = _parse_weight(data, spec, space)
    criterion = None
    section = _section(data, "criterion")
    if section is not None:
        criterion = str(_require(section, "name", "criterion")).upper()
        if criterion not in criteria.POSITIVE_SPECTRUM_CRITERIA:
            raise ParseError(f"unknown criterion {criterion!r}")
    search_section = _section(data, "search")
    if search_section is not None:
        search_section = {key: _number(int, search_section[key], f"search.{key}")
                          for key in ("seed", "restarts", "max_passes")
                          if key in search_section}
    return Problem(spec, space, system, weight_raw, weight, criterion, search_section)


def load_problem(path: str) -> tuple[Problem, str]:
    """Parse a problem file; returns the problem and the input digest."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(blob).hexdigest()
    try:
        data = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_problem(data), digest


# ---------------------------------------------------------------------------
# commands
#
# Each ``cmd_*`` takes the problem and the parsed arguments and returns
# ``(results, lines, passed)``; ``passed`` is None unless it checked something.


def _target_of(problem: Problem):
    """The unique target of a command that needs one."""
    if problem.system is not None and problem.weight_raw is not None:
        raise ParseError("give exactly one of 'system' and 'weight_matrix', not both")
    if problem.system is not None:
        return problem.system
    if problem.weight_raw is not None:
        if problem.weight is None:
            raise ParseError(
                "the weight matrix does not sit inside the estimation space; "
                "only 'certify --which theorem2' can use it"
            )
        return problem.weight
    raise ParseError("this command needs a 'system' or a 'weight_matrix' section")


def cmd_info(problem: Problem, args) -> tuple[dict, list, bool | None]:
    c = _information(problem.spec)
    s = eig_sym(c)
    results = {
        "v": problem.spec.v,
        "n": problem.spec.n,
        "replications": problem.spec.replications().tolist(),
        "information_matrix": c.entries,
        "spectrum": s.eigenvalues.copy(),
        "rank": s.numeric_rank,
        "estimation_space": {"kind": problem.space.kind, "dim": problem.space.dim},
    }
    lines = [
        f"model: v={problem.spec.v}, n={problem.spec.n}, "
        f"nuisance={problem.spec.nuisance_kind}",
        "information matrix C:",
        _fmt_matrix(c.entries),
        f"spectrum: {_fmt_vector(s.eigenvalues)}",
        f"rank: {s.numeric_rank}",
        f"estimation space: {problem.space.kind} (dim {problem.space.dim})",
    ]
    if problem.system is not None:
        bad = infeasible_columns(c, problem.system.Q * np.sqrt(problem.system.b))
        results["system"] = {
            "s": problem.system.s,
            "rank": problem.system.r,
            "normalized": problem.system.normalized,
            "feasible": not bad,
            "infeasible_columns": list(bad),
            "in_estimation_space": problem.space.contains(problem.system.Q),
        }
        lines.append(
            f"system: s={problem.system.s}, rank={problem.system.r}, "
            f"normalized={problem.system.normalized}, feasible={not bad}"
        )
        if bad:
            lines.append(f"  infeasible columns: {list(bad)}")
    if problem.weight_raw is not None:
        bad = infeasible_columns(c, problem.weight_raw.entries)
        results["weight_matrix"] = {
            "rank": eig_sym(problem.weight_raw).numeric_rank,
            "in_estimation_space": problem.weight is not None,
            "feasible": not bad,
        }
        lines.append(
            f"weight matrix: rank={results['weight_matrix']['rank']}, "
            f"in_estimation_space={problem.weight is not None}, feasible={not bad}"
        )
    return results, lines, None


def _criterion_block(value) -> dict:
    return {
        "value": value.value,
        "positive_value": value.positive_value,
        "spectrum": value.spectrum_used,
        "rank": value.rank_used,
        "dim": value.dim,
        "singular": value.rank_used < value.dim,
    }


def cmd_criterion(problem: Problem, args) -> tuple[dict, list, bool | None]:
    if problem.criterion is None:
        raise ParseError("this command needs a 'criterion' section")
    target = _target_of(problem)
    name = problem.criterion
    c = _information(problem.spec)
    if isinstance(target, EstimableSystem):
        system, weight = target, weight_matrix_from_system(target, problem.space)
    else:
        system, weight = system_from_weight_matrix_sqrt(target), target
    system_value = criteria.phi_for_system(c, system, name)
    weighted_value = criteria.phi_weighted(c, weight, name)
    deviation = criteria.spectral_deviation([system_value.positive_value],
                                            [weighted_value.positive_value])
    results = {
        "criterion": name,
        "route_system": _criterion_block(system_value),
        "route_weighted": _criterion_block(weighted_value),
        "deviation": deviation,
    }
    lines = [f"criterion {name} (larger is better)"]
    for label, cv in (("system route (N_Q)", system_value),
                      ("weighted route (C_W)", weighted_value)):
        note = ""
        if cv.rank_used < cv.dim:
            note = (f"  [singular: rank {cv.rank_used} of {cv.dim}; "
                    f"positive-spectrum value {_fmt(cv.positive_value)}]")
        lines.append(f"  {label}: {_fmt(cv.value)}{note}")
    lines.append(f"  deviation of the two routes: {_fmt(deviation)}")
    return results, lines, None


def cmd_weights(problem: Problem, args) -> tuple[dict, list, bool | None]:
    if problem.system is None:
        raise ParseError("the weights command needs a 'system' section")
    vectors = [_parse_query(q, problem.spec.v) for q in args.query]
    report = secondary_weights(problem.system, vectors)
    strict = check_weight_dominance(problem.system)
    w = report.weight_matrix
    records = []
    lines = [
        f"system: s={problem.system.s}, rank={problem.system.r}, "
        f"normalized={problem.system.normalized}",
        "scaled weight matrix W = Q~ Q~':",
        _fmt_matrix(w.matrix.entries),
        "element reading: diagonal (i,i) = weight carried by parameter i; "
        "off-diagonal (i,j) < 0 flags interest in the comparison of i and j, "
        "> 0 in their combined effect",
        "functions:",
    ]
    for idx, rec in enumerate(report.records):
        entry = {
            "q": rec.q,
            "primary": rec.primary,
            "secondary": rec.secondary,
            "in_span": rec.in_span,
        }
        if idx < problem.system.s:
            entry["dominance_strict"] = strict[idx]
            lines.append(
                f"  column {idx + 1}: primary={_fmt(rec.primary)} "
                f"secondary={_fmt(rec.secondary)}"
                + ("  (strictly above primary)" if strict[idx] else "")
            )
        else:
            shown = "outside span (zero weight)" if rec.secondary is None else _fmt(rec.secondary)
            lines.append(f"  query {_fmt_vector(rec.q)}: secondary={shown}")
        records.append(entry)
    # entries below the formation roundoff of Q~ Q~' are structural zeros
    floor = DERIVED_RANK_RTOL * max_abs(w.matrix.entries)
    annotations = {
        "diagonal": w.matrix.entries.diagonal(),
        "comparisons": [
            {"i": i + 1, "j": j + 1, "value": float(w.matrix.entries[i, j])}
            for i in range(w.v)
            for j in range(i + 1, w.v)
            if abs(w.matrix.entries[i, j]) > floor
        ],
    }
    results = {
        "weight_matrix": w.matrix.entries,
        "rank": w.d,
        "records": records,
        "annotations": annotations,
        "in_estimation_space": problem.space.contains(problem.system.Q),
    }
    return results, lines, None


def _parse_query(text: str, v: int) -> np.ndarray:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ParseError(f"cannot parse query vector {text!r}: {exc}") from exc
    if vec.shape != (v,):
        raise ParseError(f"query vector needs {v} entries, got {vec.size}")
    return vec


#: The kinds a file instance can run, in the order it runs them.
FILE_ORDER = ("theorem1", "theorem3", "theorem2", "theorem4", "aopt", "eopt")


def _file_target(problem: Problem, kind: str, weight):
    """``(target, None)`` for the file's instance of ``kind``, or ``(None,
    reason)`` when the file has none: theorem1 takes a system of rank
    dim(E), theorem3 any system, theorem2 a positive definite weight matrix,
    and theorem4, aopt and eopt ``weight``: the file's weight matrix inside
    E or, under ``all``, the ``W = Q~Q~'`` of a system inside E."""
    system = problem.system
    if kind in ("theorem1", "theorem3"):
        if system is None:
            return None, f"{kind} certification needs a 'system' section"
        if kind == "theorem1" and system.r != problem.space.dim:
            return None, (f"theorem1 needs a system of rank dim(E)={problem.space.dim}; "
                          f"this one has rank {system.r} (certify theorem3 instead)")
        return system, None
    if kind == "theorem2":
        w = problem.weight_raw
        if w is None:
            return None, "theorem2 certification needs a 'weight_matrix' section"
        if eig_sym(w).numeric_rank != w.dim:
            return None, ("theorem2 needs a positive definite weight matrix; this one is "
                          "singular (certify theorem4 instead)")
        return w, None
    if weight is None:
        return None, f"{kind} certification needs a weight matrix inside the estimation space"
    return weight, None


def _random_certifications(kind: str, sequence: np.random.SeedSequence, trials: int):
    """Reports of ``trials`` random instances of ``kind``, in trial order.

    Trial ``i`` draws its instance (and, for ``aopt``, the seed of its
    rotations right after it) from child ``i`` of ``sequence``.  Every trial
    is drawn before any is certified, in stacks (``certify_in_stacks``), so
    a draw error comes before the certification error of an earlier trial.
    """
    seeded = kind == "aopt"
    instances = []
    for child in sequence.spawn(trials):
        rng = np.random.default_rng(child)
        spec, space, target = random_instance(rng, kind)
        instances.append((spec, space, target, int(rng.integers(0, 2**31)) if seeded else 0))
    return criteria.certify_in_stacks(kind, instances)


def cmd_certify(problem: Problem, args) -> tuple[dict, list, bool | None]:
    which, trials, seed = args.which, args.trials, args.seed
    if trials < 0:
        raise ParseError(f"--trials must be nonnegative, got {trials}")
    kinds = CERT_KINDS if which == "all" else (which,)
    lines = []
    summary = {}
    all_passed = True

    # every target is resolved before any runs, so the first error is a
    # selection error
    file_runs = []
    weight = problem.weight
    if (weight is None and which == "all" and problem.system is not None
            and problem.space.contains(problem.system.Q)):
        weight = weight_matrix_from_system(problem.system, problem.space)
    for name in FILE_ORDER:
        if which in (name, "all"):
            target, reason = _file_target(problem, name, weight)
            if target is not None:
                file_runs.append((name, target))
            elif which != "all":
                raise ParseError(reason)
    for name, target in file_runs:
        [report] = criteria.STACKED_CERTIFICATIONS[name](
            [problem.spec], [problem.space], [target], [0])
        all_passed &= report.passed
        summary[f"file_{name}"] = {
            "passed": report.passed,
            "deviation": report.deviation,
            "tolerance": report.tolerance,
        }
        lines.append(
            f"{name} on the file instance: "
            f"{'pass' if report.passed else 'FAIL'} (deviation {_fmt(report.deviation)})"
        )

    root = np.random.SeedSequence(seed)
    kind_sequences = dict(zip(CERT_KINDS, root.spawn(len(CERT_KINDS))))
    for kind in kinds:
        failures = []
        worst = 0.0
        reports = _random_certifications(kind, kind_sequences[kind], trials)
        for index, report in enumerate(reports):
            worst = max(worst, report.deviation)
            if not report.passed:
                failures.append({"trial": index, "seed": [seed, kind, index],
                                 "deviation": report.deviation})
        passed = not failures
        all_passed &= passed
        summary[kind] = {
            "trials": trials,
            "passed": passed,
            "max_deviation": worst,
            "failures": failures,
        }
        lines.append(
            f"{kind}: {trials} randomized instances, "
            f"{'pass' if passed else f'{len(failures)} FAILURES'} "
            f"(max deviation {_fmt(worst)})"
        )
        for failure in failures:
            lines.append(f"  trial {failure['trial']} (seed {failure['seed']}): "
                         f"deviation {_fmt(failure['deviation'])}")
    return {"which": which, "seed": seed, **summary}, lines, all_passed


def cmd_search(problem: Problem, args) -> tuple[dict, list, bool | None]:
    if problem.search is None:
        raise ParseError("the search command needs a 'search' section")
    if problem.criterion is None:
        raise ParseError("the search command needs a 'criterion' section")
    target = _target_of(problem)
    sp = search.SearchProblem(
        v=problem.spec.v,
        n=problem.spec.n,
        criterion=problem.criterion,
        target=target,
        space=problem.space,
        nuisance_kind=problem.spec.nuisance_kind,
        block_sizes=problem.spec.block_sizes,
        L=problem.spec.L,
        **problem.search,
    )
    enumerable = search.enumeration_size(sp) <= search.ENUMERATION_LIMIT
    if args.both_routes and not enumerable:
        raise ParseError("--both-routes needs an enumerable instance")
    result = search.enumerate_optimal(sp) if enumerable else search.exchange_search(sp)
    best = result.best_design
    results = {
        "criterion": problem.criterion,
        "method": "enumeration" if result.enumerated else "exchange",
        "best_assignment": list(best.assignment),
        "best_replications": best.replications().tolist(),
        "best_value": result.best_value.value,
        "spectrum": result.best_value.spectrum_used,
        "trace": list(result.trace),
    }
    lines = [
        f"search: {results['method']} over v={sp.v}, n={sp.n}, "
        f"criterion {problem.criterion}",
        f"best assignment: {list(best.assignment)}",
        f"best replications: {best.replications().tolist()}",
        f"best value: {_fmt(result.best_value.value)}",
        f"trace: {_fmt_vector(result.trace)}",
    ]
    if result.enumerated:
        results["optimal_assignments"] = [list(a) for a in result.optimal_assignments]
        lines.append(f"tied optima: {len(result.optimal_assignments)}")
    else:
        results["restarts"] = [asdict(stats) for stats in result.restarts]
    passed = None
    if args.both_routes:
        check = search.argmax_equivalence_check(sp)
        passed = check.passed
        results["argmax_equivalence"] = {
            "passed": check.passed,
            "value_system_route": check.value_system_route,
            "value_weighted_route": check.value_weighted_route,
            "optima_system_route": [list(a) for a in check.optima_system_route],
            "optima_weighted_route": [list(a) for a in check.optima_weighted_route],
        }
        lines.append(
            "argmax equivalence of the two routes: "
            f"{'pass' if check.passed else 'FAIL'} "
            f"({_fmt(check.value_system_route)} vs {_fmt(check.value_weighted_route)}, "
            f"{len(check.optima_system_route)} vs {len(check.optima_weighted_route)} optima)"
        )
    return results, lines, passed


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdesign",
        description="Information matrices, weighted optimality criteria, "
                    "weight analysis and optimal exact design search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--file", required=True, help="problem file (JSON)")
        p.add_argument("--out", help="write the machine-readable report here")

    common(sub.add_parser("info", help="model, information matrix, feasibility"))
    common(sub.add_parser("criterion", help="criterion value via both routes"))
    p = sub.add_parser("weights", help="primary/secondary weight report")
    common(p)
    p.add_argument("--query", action="append", default=[],
                   help="extra coefficient vector, comma separated (repeatable)")
    p = sub.add_parser("certify", help="spectral-equivalence certifications")
    common(p)
    p.add_argument("--which", default="all", choices=CERT_KINDS + ("all",))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("search", help="optimal exact design search")
    common(p)
    p.add_argument("--both-routes", action="store_true",
                   help="also enumerate via the weighted route and compare argmaxes")
    return parser


def main(argv=None) -> int:
    """Run one command: print its lines, write its ``--out`` report, and exit
    1 exactly when it checked something that failed."""
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebinding of a ``cmd_*`` attribute takes effect
    commands = {"info": cmd_info, "criterion": cmd_criterion, "weights": cmd_weights,
                "certify": cmd_certify, "search": cmd_search}
    started = time.perf_counter()
    try:
        problem, digest = load_problem(args.file)
        results, lines, passed = commands[args.command](problem, args)
    except (WdesignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print("\n".join(lines))
    if args.out:
        report = {
            "command": args.command,
            "input_digest": digest,
            "results": _round12(results),
            "pass": passed,
            "wall_time_s": float(f"{time.perf_counter() - started:.6f}"),
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_CERT_FAIL if passed is False else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
