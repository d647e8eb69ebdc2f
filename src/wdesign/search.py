"""Optimal exact design search: exhaustive enumeration and exchange ascent.

The objective is an eigenvalue-based criterion of either the information
matrix for a system of interest or the weighted information matrix of a
weight matrix; both routes score assignments through their positive
spectra, which the spectral-equivalence theorems make interchangeable.
Assignments under which the target is not estimable have no objective and
are skipped, never scored.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .criteria import CriterionValue, POSITIVE_SPECTRUM_CRITERIA, value_from_positive_spectrum
from .errors import FeasibilityError, SearchSpaceError, SpaceError
from .estimable import EstimableSystem, scale_system, system_from_weight_matrix_sqrt
from .linalg import DERIVED_RANK_RTOL, EPS, SYMMETRY_RTOL, eigh_desc, max_abs, projector
from .model import DesignSpec, EstimationSpace, FEASIBILITY_RTOL, design_matrix
from .weighting import WeightMatrix, weight_matrix_from_system

#: Largest assignment count enumerate_optimal will walk.
ENUMERATION_LIMIT = 10**6

#: Most block incidences one scorer remembers, least recently used evicted
#: first.  Only problems with ``v**(n-1) <= ENUMERATION_LIMIT`` get a cache,
#: so n <= 20.  An entry holds an n-long key and the score, so its size
#: grows with n: tracemalloc measured ~370 B an entry at n=9 and ~560 B at
#: n=20, so a full cache holds at most ~4.5 MiB.
SCORE_CACHE_LIMIT = 2**13

#: Relative slack for collecting ties into the optimal set.
TIE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """Model skeleton, estimation space, objective and search knobs.

    The target (a system or a weight matrix) is validated against the
    estimation space up front; designs that cannot estimate it are skipped
    during the search rather than scored.
    """

    v: int
    n: int
    criterion: str
    target: EstimableSystem | WeightMatrix
    space: EstimationSpace
    nuisance_kind: str = "intercept"
    block_sizes: tuple[int, ...] | None = None
    L: np.ndarray | None = None
    seed: int = 0
    restarts: int = 20
    max_passes: int = 100

    def __post_init__(self):
        if self.criterion not in POSITIVE_SPECTRUM_CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.restarts < 1 or self.max_passes < 1:
            raise ValueError("restarts and max_passes must be positive")
        if self.space.v != self.v:
            raise ValueError("estimation space dimension does not match v")
        # validates n / nuisance consistency once, up front
        self.template(tuple([1] * self.n))
        if isinstance(self.target, EstimableSystem):
            if not self.space.contains(self.target.Q):
                raise SpaceError("target system lies outside the estimation space")
        elif isinstance(self.target, WeightMatrix):
            if not self.target.space_check and not self.space.contains(
                self.target.matrix.entries
            ):
                raise SpaceError("target weight matrix lies outside the estimation space")
        else:
            raise TypeError("target must be an EstimableSystem or a WeightMatrix")

    def template(self, assignment: tuple[int, ...]) -> DesignSpec:
        """DesignSpec for this problem with the given assignment."""
        return DesignSpec(self.v, assignment, self.nuisance_kind,
                          self.block_sizes, self.L)


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best design found, its criterion value, and per-restart best values.

    Values follow the positive-spectrum convention (for full-rank targets
    this is the plain criterion).  ``optimal_assignments`` lists the tied
    argmax set when the search was exhaustive.
    """

    best_design: DesignSpec
    best_value: CriterionValue
    trace: tuple[float, ...]
    enumerated: bool
    optimal_assignments: tuple[tuple[int, ...], ...] = ()


def _target_matrix(problem: SearchProblem) -> np.ndarray:
    if isinstance(problem.target, EstimableSystem):
        return scale_system(problem.target)
    return problem.target.K


def _target_rank(problem: SearchProblem) -> int:
    if isinstance(problem.target, EstimableSystem):
        return problem.target.r
    return problem.target.d


def label_symmetric(problem: SearchProblem) -> bool:
    """Whether the objective is invariant under relabeling the treatments.

    Certified through the induced weight matrix: swapping any treatment pair
    must leave ``Q~ Q~'`` (or ``W``) unchanged.
    """
    qs = _target_matrix(problem)
    w = qs @ qs.T if isinstance(problem.target, EstimableSystem) else problem.target.matrix.entries
    scale = max(max_abs(w), EPS)
    for k in range(1, problem.v):
        perm = np.arange(problem.v)
        perm[[0, k]] = perm[[k, 0]]
        if max_abs(w[np.ix_(perm, perm)] - w) > SYMMETRY_RTOL * scale:
            return False
    return True


def make_evaluator(problem: SearchProblem):
    """Assignment scorer: returns ``(value, positive spectrum)`` or None.

    ``None`` means the target is not estimable under that assignment.  The
    nuisance projector is fixed per problem, and each score is one chain on
    raw arrays: ``C``, its spectrum, the residual of the target against
    ``C``'s column space, and the spectrum of ``Q~' C^+ Q~``.  Nothing in the
    chain is re-validated, because the scorer built every matrix itself.

    Under an intercept or block nuisance, ``C`` depends on the assignment
    only through the multiset of treatments in each block (the whole run is
    one block under an intercept).  The scorer therefore scores the
    assignment with each block's labels sorted.  When the problem is small
    enough to enumerate (``v**(n-1) <= ENUMERATION_LIMIT``), the scorer also
    remembers the scores of up to ``SCORE_CACHE_LIMIT`` such block
    incidences, evicting the least recently used; larger problems, which
    only exchange search takes, are scored afresh on every call.  Values are
    thus exactly invariant under permuting units within a block and never
    depend on what the cache holds.  An explicit ``L`` admits no such
    reduction, so every assignment is scored as given.  The returned
    spectra are read-only, because a cached result is shared.
    """
    dummy = problem.template(tuple([1] * problem.n))
    _, ell = design_matrix(dummy)
    mres = np.eye(problem.n) - projector(ell).entries
    # K plays the role of Q~ for weight targets: the same chain scores both.
    qs = _target_matrix(problem)
    rank_needed = _target_rank(problem)
    qscale = max(max_abs(qs), EPS)
    name = problem.criterion
    units = np.arange(problem.n)

    def score(assignment):
        x = np.zeros((problem.n, problem.v))
        x[units, np.asarray(assignment) - 1] = 1.0
        c = x.T @ mres @ x
        cs = eigh_desc(0.5 * (c + c.T), DERIVED_RANK_RTOL)
        f = cs.basis()
        if max_abs(qs - f @ (f.T @ qs)) > FEASIBILITY_RTOL * qscale:
            return None
        cplus = (f / cs.positive()) @ f.T
        m = qs.T @ cplus @ qs
        pos = eigh_desc(0.5 * (m + m.T), DERIVED_RANK_RTOL).positive()
        if pos.size != rank_needed:
            return None
        spectrum = 1.0 / pos[::-1]
        spectrum.flags.writeable = False
        return value_from_positive_spectrum(name, spectrum), spectrum

    if problem.nuisance_kind == "explicit":
        return score
    sizes = problem.block_sizes if problem.nuisance_kind == "blocks" else (problem.n,)
    ends = tuple(itertools.accumulate(sizes))
    blocks = tuple(zip((0,) + ends[:-1], ends))
    if problem.v ** (problem.n - 1) <= ENUMERATION_LIMIT:
        score = functools.lru_cache(maxsize=SCORE_CACHE_LIMIT)(score)

    def evaluate(assignment):
        labels = []
        for start, end in blocks:
            labels += sorted(assignment[start:end])
        return score(tuple(labels))

    return evaluate


def enumeration_size(problem: SearchProblem) -> int:
    """Assignment count enumerate_optimal would walk, after symmetry reduction."""
    exponent = problem.n - 1 if label_symmetric(problem) else problem.n
    return problem.v**exponent


def _criterion_value(problem: SearchProblem, value: float, spectrum) -> CriterionValue:
    dim = problem.target.s if isinstance(problem.target, EstimableSystem) else problem.target.d
    return CriterionValue(problem.criterion, value, np.array(spectrum), len(spectrum), dim)


def enumerate_optimal(problem: SearchProblem) -> SearchResult:
    """Exact maximizer over every feasible assignment.

    Fixes the first unit's treatment when the objective is label-symmetric
    (every equivalence class keeps a representative).  Ties within
    ``TIE_RTOL`` are all collected into ``optimal_assignments``.
    """
    size = enumeration_size(problem)
    if size > ENUMERATION_LIMIT:
        raise SearchSpaceError(
            f"{size} assignments exceed the enumeration envelope "
            f"({ENUMERATION_LIMIT}); use exchange_search"
        )
    evaluate = make_evaluator(problem)
    symmetric = size < problem.v**problem.n
    heads = [1] if symmetric else range(1, problem.v + 1)
    best = None
    best_assignment = None
    best_spectrum = None
    optima = []
    for head in heads:
        for tail in itertools.product(range(1, problem.v + 1), repeat=problem.n - 1):
            assignment = (head, *tail)
            scored = evaluate(assignment)
            if scored is None:
                continue
            value, spectrum = scored
            if best is None or value > best:
                best = value
                best_assignment = assignment
                best_spectrum = spectrum
                slack = TIE_RTOL * max(1.0, abs(best))
                optima = [(a, val) for a, val in optima if val >= best - slack]
            if value >= best - TIE_RTOL * max(1.0, abs(best)):
                optima.append((assignment, value))
    if best is None:
        raise FeasibilityError("no feasible assignment can estimate the target")
    slack = TIE_RTOL * max(1.0, abs(best))
    tied = tuple(a for a, val in optima if val >= best - slack)
    return SearchResult(
        best_design=problem.template(best_assignment),
        best_value=_criterion_value(problem, best, best_spectrum),
        trace=(best,),
        enumerated=True,
        optimal_assignments=tied,
    )


def exchange_search(problem: SearchProblem) -> SearchResult:
    """Restarted point-exchange ascent, deterministic for a fixed seed.

    Each restart draws a feasible assignment, then sweeps the units; at each
    unit every reassignment is tried and the best strict improvement is
    accepted (ties broken toward the lowest treatment index).  A sweep with
    no improvement, or ``max_passes`` sweeps, ends the restart.
    """
    evaluate = make_evaluator(problem)
    children = np.random.SeedSequence(problem.seed).spawn(problem.restarts)
    trace = []
    best = None
    best_assignment = None
    best_spectrum = None
    for child in children:
        rng = np.random.default_rng(child)
        current = None
        for _ in range(1000):
            cand = tuple(int(t) for t in rng.integers(1, problem.v + 1, size=problem.n))
            scored = evaluate(cand)
            if scored is not None:
                current, (value, spectrum) = list(cand), scored
                break
        if current is None:
            raise FeasibilityError(
                "no feasible starting assignment found in 1000 draws"
            )
        for _ in range(problem.max_passes):
            improved = False
            for unit in range(problem.n):
                original = current[unit]
                chosen = None
                chosen_value = value
                chosen_spectrum = None
                for treatment in range(1, problem.v + 1):
                    if treatment == original:
                        continue
                    current[unit] = treatment
                    scored = evaluate(tuple(current))
                    if scored is not None and scored[0] > chosen_value:
                        chosen, (chosen_value, chosen_spectrum) = treatment, scored
                current[unit] = original
                if chosen is not None:
                    current[unit] = chosen
                    value, spectrum = chosen_value, chosen_spectrum
                    improved = True
            if not improved:
                break
        trace.append(value)
        if best is None or value > best:
            best = value
            best_assignment = tuple(current)
            best_spectrum = spectrum
    return SearchResult(
        best_design=problem.template(best_assignment),
        best_value=_criterion_value(problem, best, best_spectrum),
        trace=tuple(trace),
        enumerated=False,
    )


@dataclass(frozen=True, eq=False)
class ArgmaxEquivalenceReport:
    """Double enumeration of one problem through both objective routes."""

    passed: bool
    value_system_route: float
    value_weighted_route: float
    optima_system_route: tuple[tuple[int, ...], ...]
    optima_weighted_route: tuple[tuple[int, ...], ...]


def argmax_equivalence_check(problem: SearchProblem,
                             tol: float = TIE_RTOL) -> ArgmaxEquivalenceReport:
    """Enumerate the objective through both formulations and compare argmaxes.

    The system route scores ``(Q~' C^+ Q~)^+``, the weighted route the
    weighted information matrix of ``Q~ Q~'`` (or, for a weight-matrix
    target, the system ``W^{1/2} tau``); optimal values and optimal-design
    sets must coincide.
    """
    if isinstance(problem.target, EstimableSystem):
        system_problem = problem
        weighted_problem = replace(
            problem, target=weight_matrix_from_system(problem.target, problem.space)
        )
    else:
        system_problem = replace(
            problem, target=system_from_weight_matrix_sqrt(problem.target)
        )
        weighted_problem = problem
    rs = enumerate_optimal(system_problem)
    rw = enumerate_optimal(weighted_problem)
    va, vb = rs.best_value.value, rw.best_value.value
    values_close = abs(va - vb) <= tol * max(1.0, abs(va), abs(vb))
    sets_equal = set(rs.optimal_assignments) == set(rw.optimal_assignments)
    return ArgmaxEquivalenceReport(
        passed=bool(values_close and sets_equal),
        value_system_route=va,
        value_weighted_route=vb,
        optima_system_route=rs.optimal_assignments,
        optima_weighted_route=rw.optimal_assignments,
    )
