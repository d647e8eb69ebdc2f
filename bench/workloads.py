"""Problem files, command lines and independent output checks per workload.

Each workload is one ``wdesign`` command on one generated problem file.  The
seed reaches the program only through the file (``search.seed``) or the
``--seed`` argument; the checks re-derive every reported number through a
route other than the one the command used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("enum-blocks", "exchange-trend", "certify-all")

#: Distinct inputs a run cycles through.  The work of a search or certify
#: job depends on its seed by a few per cent, so a run times several seeds
#: and its median does not hang on one; enumeration work does not.
INPUTS = {"enum-blocks": 1, "exchange-trend": 8, "certify-all": 8}

#: Known optimum of enum-blocks: pairwise contrasts, A, v=4 in blocks (3,3,3).
ENUM_BEST = 20.0 / 21.0
ENUM_TIES = 1296

#: Relative slack for re-scored values; reports carry 12 significant digits.
VALUE_RTOL = 1e-9

CERT_KINDS = ("theorem1", "theorem2", "theorem3", "theorem4", "aopt", "eopt")

#: Certifications ``certify --which all`` runs on the vs-control file instance.
FILE_KINDS = ("theorem1", "theorem3", "theorem4", "aopt", "eopt")


def trend_nuisance(n: int) -> np.ndarray:
    """``[1, t, t^2 - mean(t^2)]`` over the run order centred and scaled to [-1, 1]."""
    t = np.arange(n) - (n - 1) / 2.0
    t = t / np.max(np.abs(t))
    return np.column_stack([np.ones(n), t, t**2 - np.mean(t**2)])


def vs_control_weight(v: int) -> np.ndarray:
    """``W = K K'`` with columns ``K_k = sqrt(k) (e_{k+1} - e_1) / sqrt(2)``."""
    k = np.zeros((v, v - 1))
    for j in range(1, v):
        k[0, j - 1] = -1.0
        k[j, j - 1] = 1.0
        k[:, j - 1] *= np.sqrt(j) / np.sqrt(2.0)
    return k @ k.T


def pairwise_system(v: int) -> np.ndarray:
    cols = []
    for i in range(v):
        for j in range(i + 1, v):
            q = np.zeros(v)
            q[i], q[j] = -1.0, 1.0
            cols.append(q / np.sqrt(2.0))
    return np.column_stack(cols)


def problem_document(workload: str, seed: int) -> dict:
    """The problem file of a workload, as a JSON document."""
    if workload == "enum-blocks":
        return {
            "model": {"v": 4, "replications": [3, 2, 2, 2],
                      "nuisance": {"kind": "blocks", "sizes": [3, 3, 3]}},
            "system": {"generator": "pairwise"},
            "criterion": {"name": "A"},
            "search": {"seed": seed},
        }
    if workload == "exchange-trend":
        return {
            "model": {"v": 6, "replications": [4] * 6,
                      "nuisance": {"kind": "explicit", "L": trend_nuisance(24).tolist()}},
            "estimation_space": {"kind": "contrasts"},
            "weight_matrix": {"W": vs_control_weight(6).tolist()},
            "criterion": {"name": "D"},
            "search": {"seed": seed, "restarts": 20, "max_passes": 100},
        }
    if workload == "certify-all":
        return {
            "model": {"v": 3, "n": 6, "replications": [2, 2, 2], "nuisance": "intercept"},
            "estimation_space": {"kind": "contrasts"},
            "system": {"generator": "vs_control", "k": 2},
            "criterion": {"name": "A"},
        }
    raise ValueError(f"unknown workload {workload!r}")


def input_seeds(workload: str, seed: int) -> list[int]:
    """Seeds of the inputs of a run with workload seed ``seed``; distinct across seeds."""
    k = INPUTS[workload]
    return [seed * k + i for i in range(k)]


def command(workload: str, seed: int, problem: Path, report: Path) -> list[str]:
    """``wdesign`` arguments of one job."""
    if workload == "certify-all":
        return ["certify", "--file", str(problem), "--which", "all", "--trials", "100",
                "--seed", str(seed), "--out", str(report)]
    return ["search", "--file", str(problem), "--out", str(report)]


def write_problem(workload: str, seed: int, directory: Path) -> Path:
    path = directory / f"{workload}-{seed}.json"
    path.write_text(json.dumps(problem_document(workload, seed), indent=1) + "\n")
    return path


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one job's output; ``best_value`` feeds the metric."""

    ok: bool
    best_value: float
    reason: str = ""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(a), abs(b))


def check(workload: str, exit_code: int, results: dict) -> Verdict:
    """Check a finished job against values derived independently of the command."""
    if exit_code != 0:
        return Verdict(False, 0.0, f"exit code {exit_code}")
    if workload == "enum-blocks":
        return _check_enum(results)
    if workload == "exchange-trend":
        return _check_exchange(results)
    return _check_certify(results)


def _check_enum(results: dict) -> Verdict:
    from wdesign.criteria import criterion_value
    from wdesign.estimable import EstimableSystem, info_matrix_for_system
    from wdesign.model import DesignSpec, information_matrix

    best = float(results["best_value"])
    optima = {tuple(a) for a in results["optimal_assignments"]}
    assignment = tuple(results["best_assignment"])
    spec = DesignSpec(4, assignment, "blocks", (3, 3, 3))
    c = information_matrix(spec)
    rescored = criterion_value(
        info_matrix_for_system(c, EstimableSystem(pairwise_system(4))), "A").value
    if results["method"] != "enumeration":
        return Verdict(False, best, f"method {results['method']}")
    if not (_close(best, ENUM_BEST) and _close(rescored, ENUM_BEST)):
        return Verdict(False, best, f"best {best!r}, re-scored {rescored!r}")
    if len(optima) != ENUM_TIES or len(results["optimal_assignments"]) != ENUM_TIES:
        return Verdict(False, best, f"{len(optima)} tied optima")
    if assignment not in optima:
        return Verdict(False, best, "best assignment missing from the optima")
    return Verdict(True, best)


def _weighted_d(assignment, L, w) -> float | None:
    from wdesign.criteria import criterion_value
    from wdesign.errors import FeasibilityError
    from wdesign.model import DesignSpec, information_matrix
    from wdesign.weighting import weighted_info_matrix

    c = information_matrix(DesignSpec(6, tuple(assignment), "explicit", None, L))
    try:
        return criterion_value(weighted_info_matrix(c, w), "D").value
    except FeasibilityError:
        return None


def _check_exchange(results: dict) -> Verdict:
    from wdesign.model import estimation_space
    from wdesign.weighting import make_weight_matrix

    best = float(results["best_value"])
    if results["method"] != "exchange":
        return Verdict(False, best, f"method {results['method']}")
    L = trend_nuisance(24)
    w = make_weight_matrix(vs_control_weight(6), estimation_space("contrasts", 6))
    assignment = list(results["best_assignment"])
    rescored = _weighted_d(assignment, L, w)
    if rescored is None or not _close(best, rescored):
        return Verdict(False, best, f"best {best!r}, C_W route {rescored!r}")
    for unit in range(len(assignment)):
        for treatment in range(1, 7):
            if treatment == assignment[unit]:
                continue
            moved = assignment[:unit] + [treatment] + assignment[unit + 1:]
            value = _weighted_d(moved, L, w)
            if value is not None and value > rescored and not _close(value, rescored):
                return Verdict(False, best, f"unit {unit} -> {treatment} improves to {value!r}")
    return Verdict(True, best)


def fixture_value() -> float:
    """A value of the vs-control fixture design via ``N_Q``; certify-all's ``best_value``."""
    from wdesign.criteria import criterion_value
    from wdesign.estimable import EstimableSystem, info_matrix_for_system
    from wdesign.model import DesignSpec, information_matrix

    c = information_matrix(DesignSpec.from_replications(3, [2, 2, 2]))
    q = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0)
    return criterion_value(info_matrix_for_system(c, EstimableSystem(q)), "A").value


def _check_certify(results: dict) -> Verdict:
    value = fixture_value()
    missing = [k for k in CERT_KINDS
               if not (results.get(k, {}).get("passed") and results[k]["trials"] == 100)]
    missing += [f"file_{k}" for k in FILE_KINDS
                if not results.get(f"file_{k}", {}).get("passed")]
    if missing:
        return Verdict(False, value, f"not passed: {missing}")
    return Verdict(True, value)
