"""Optimal exact design search: exhaustive enumeration and exchange ascent.

The objective is an eigenvalue-based criterion of either the information
matrix for a system of interest or the weighted information matrix of a
weight matrix; both routes score assignments through their positive
spectra, which the spectral-equivalence theorems make interchangeable.
Assignments under which the target is not estimable have no objective and
are skipped, never scored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import CriterionValue, POSITIVE_SPECTRUM_CRITERIA
from .errors import DomainError, FeasibilityError, SearchSpaceError, SpaceError
from .estimable import EstimableSystem, scale_system, system_from_weight_matrix_sqrt
from .linalg import (
    SYMMETRY_RTOL,
    SymStack,
    eigh_desc_stack,
    max_abs,
    symmetrize,
    take_rows,
)
from .model import DesignSpec, EstimationSpace, block_ranges, estimable_forms, nuisance_residual
from .weighting import WeightMatrix, weight_matrix_from_system

#: Largest assignment count enumerate_optimal will walk.
ENUMERATION_LIMIT = 10**6

#: Most block incidences one scorer remembers; a memo that a stack of new
#: ones would overflow is emptied first (see ``_remembering``).  Only
#: problems with ``v**(n-1) <= ENUMERATION_LIMIT`` get a memo, so n <= 20.
#: An entry holds an n-long key and the score, so its size grows with n:
#: tracemalloc measured ~370 B an entry at n=9 and ~560 B at n=20, so a full
#: memo holds at most ~4.5 MiB.
SCORE_CACHE_LIMIT = 2**13

#: Rows per stack when enumerate_optimal scores a walk's incidences before
#: the walk.  One stack of all 4,000 incidences of a v=4 problem in blocks
#: (3,3,3) raised the peak RSS of a search by ~4 MiB; 512-row stacks left it
#: unchanged and took no longer.
INCIDENCE_STACK_ROWS = 512

#: Relative slack for collecting ties into the optimal set: a value ties the
#: best when within ``TIE_RTOL * |best|``, with no floor, so the set does not
#: depend on the scale of the target (a best of zero ties only exact zeros).
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
    #: ``_stack_scorer`` and the ``_remembering`` memo around it, built on
    #: first use; ``dataclasses.replace`` starts afresh.
    _scorers: tuple | None = field(default=None, init=False, repr=False)

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
            if not self.space.contains(self.target.matrix.entries):
                raise SpaceError("target weight matrix lies outside the estimation space")
        else:
            raise TypeError("target must be an EstimableSystem or a WeightMatrix")
        if _target_rank(self) == 0:
            raise DomainError("target of rank zero weights nothing")

    def template(self, assignment: tuple[int, ...]) -> DesignSpec:
        """DesignSpec for this problem with the given assignment."""
        return DesignSpec(self.v, assignment, self.nuisance_kind,
                          self.block_sizes, self.L)

    def scorer(self):
        """The problem's stack scorer, built on first use and kept, as a
        ``DesignSpec`` keeps ``C``: ``_stack_scorer``, seen through its
        ``_remembering`` memo while ``_keeps_scores`` holds (asked on every
        call)."""
        if self._scorers is None:
            score = _stack_scorer(self)
            object.__setattr__(self, "_scorers",
                               (score, _remembering(score, SCORE_CACHE_LIMIT)))
        score, remembered = self._scorers
        return remembered if _keeps_scores(self) else score


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best design found, its criterion value, and per-restart best values.

    Values follow the positive-spectrum convention (for full-rank targets
    this is the plain criterion).  ``optimal_assignments`` lists the tied
    argmax set when the search was exhaustive; ``restarts`` holds one
    ``RestartStats`` per restart of an exchange search.
    """

    best_design: DesignSpec
    best_value: CriterionValue
    trace: tuple[float, ...]
    enumerated: bool
    optimal_assignments: tuple[tuple[int, ...], ...] = ()
    restarts: tuple[RestartStats, ...] = ()


@dataclass(frozen=True)
class RestartStats:
    """What one exchange restart did.

    ``passes`` counts sweeps over the units, the last one (which improves
    nothing) included; ``moves_scored`` counts the candidate reassignments
    that these sweeps decide, feasible or not (``passes * n * (v - 1)``).
    Each of them was scored, but a move of the last sweep may have been
    scored a sweep earlier, under the same assignment, and not again (see
    ``exchange_search``).  ``improving_moves`` counts those accepted.
    ``final_value`` is the restart's entry in the trace.
    """

    start_value: float
    passes: int
    improving_moves: int
    moves_scored: int
    final_value: float


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
    must leave the target's ``W`` unchanged, within ``SYMMETRY_RTOL`` of
    ``max|W|`` with no floor, so the verdict does not depend on its scale.
    """
    target = problem.target
    w = (target.W if isinstance(target, EstimableSystem) else target.matrix).entries
    scale = max_abs(w)  # positive: a target of rank zero is rejected
    for k in range(1, problem.v):
        perm = np.arange(problem.v)
        perm[[0, k]] = perm[[k, 0]]
        if max_abs(w[np.ix_(perm, perm)] - w) > SYMMETRY_RTOL * scale:
            return False
    return True


def _key_function(problem: SearchProblem):
    """The key an assignment is scored by, as a tuple: the assignment itself
    under an explicit ``L``, else the assignment with each block's labels
    sorted.  A block with at most ``SCORE_CACHE_LIMIT`` label tuples
    (``v**size``) looks its sorted labels up in the dict ``key_of.table``,
    filled on first sight and never past that limit; a larger block sorts."""
    if problem.nuisance_kind == "explicit":
        return tuple
    table = {}
    parts = [(slice(start, end), problem.v**(end - start) <= SCORE_CACHE_LIMIT) for start, end
             in block_ranges(problem.n, problem.nuisance_kind, problem.block_sizes)]

    def key_of(assignment):
        assignment = tuple(assignment)  # exchange search passes a list
        labels = []
        for cut, small in parts:
            part = assignment[cut]
            block = table.get(part) if small else None
            if block is None:
                block = sorted(part)
                if small and len(table) < SCORE_CACHE_LIMIT:
                    block = table[part] = tuple(block)
            labels += block
        return tuple(labels)

    key_of.table = table
    return key_of


def _stack_scorer(problem: SearchProblem):
    """Scorer of a stack of labellings: ``score(keys)`` gives one result per row.

    ``keys`` holds ``B`` keys (see ``_key_function``), as tuples or as a
    ``(B, n)`` array of treatment labels; each result is ``(value, positive
    spectrum)``, or ``None`` when the target is not estimable under that
    labelling.  The nuisance projector is fixed per problem.  The scorer
    builds the stack of ``C``, forms ``Q~' C^+ Q~`` and decides estimability
    in ``model.estimable_forms``, the chain every route shares, drops the
    rows under which the target is not estimable, and takes one batched
    eigendecomposition of the rest.  Each matrix goes through the
    operations it would go through alone, so a row's result does not depend
    on the stack it came in.  The returned spectra are read-only, because a
    cached result is shared.
    """
    mres = nuisance_residual(problem.template(tuple([1] * problem.n)))
    # K plays the role of Q~ for weight targets: the same chain scores both.
    qs = _target_matrix(problem)
    rank_needed = _target_rank(problem)
    criterion = POSITIVE_SPECTRUM_CRITERIA[problem.criterion]
    # row t is the indicator of treatment t, so onehot[keys] is the stack of X
    onehot = np.eye(problem.v + 1)[:, 1:]

    def score(keys):
        if len(keys) == 0:
            return []
        x = onehot[np.asarray(keys)]
        cs = SymStack(symmetrize(x.transpose(0, 2, 1) @ mres @ x))
        bad, forms = estimable_forms(cs, qs)
        rows = np.flatnonzero(~bad.any(axis=1)).tolist()
        results = [None] * len(x)
        if not rows:
            return results
        inverse, _, ranks_m, _ = eigh_desc_stack(take_rows(forms, rows, len(x)))
        for row, pos, rank_m in zip(rows, inverse, ranks_m):
            if rank_m == rank_needed:
                # ascending, so its reversed view is the descending spectrum
                # ``value_from_positive_spectrum`` would sort it into
                ascending = 1.0 / pos[:rank_needed]
                ascending.flags.writeable = False
                spectrum = ascending[::-1]
                results[row] = criterion(spectrum), spectrum
        return results

    return score


def _keeps_scores(problem: SearchProblem) -> bool:
    """Whether scores are remembered: block incidences of enumerable problems."""
    return (problem.nuisance_kind != "explicit"
            and problem.v ** (problem.n - 1) <= ENUMERATION_LIMIT)


def _remembering(score, limit: int):
    """Stack scorer that remembers the results of up to ``limit`` keys.

    Only the keys it has not seen are scored, each once, in one stack; when
    they would overflow the memory, it is emptied first, and a stack with
    more of them than ``limit`` is not remembered at all.  The memory is the
    dict ``remembered.memo``, key to result.
    """
    memo = {}

    def remembered(keys):
        found = {key: memo[key] for key in keys if key in memo}
        missing = [key for key in dict.fromkeys(keys) if key not in found]
        if missing:
            fresh = dict(zip(missing, score(missing)))
            if len(fresh) <= limit:
                if len(memo) + len(fresh) > limit:
                    memo.clear()
                memo.update(fresh)
            found.update(fresh)
        return [found[key] for key in keys]

    remembered.memo = memo
    return remembered


def make_evaluator(problem: SearchProblem):
    """Assignment scorer: returns ``(value, positive spectrum)`` or None.

    ``None`` means the target is not estimable under that assignment.  The
    assignment is scored through its key (see ``_key_function``): under an
    intercept or block nuisance, ``C`` depends on it only through the
    multiset of treatments in each block (the whole run is one block under
    an intercept).  The score comes from the problem's scorer
    (``SearchProblem.scorer``), as a one-row stack, unless its memo holds
    it.  On problems small enough to enumerate
    (``v**(n-1) <= ENUMERATION_LIMIT``) the memo holds the scores of up to
    ``SCORE_CACHE_LIMIT`` block incidences and is emptied when a new one
    would overflow it.  Values are thus exactly invariant under permuting
    units within a block and never depend on what the memo holds.  The
    returned spectra are read-only, because a remembered result is shared.
    """
    score = problem.scorer()
    key_of = _key_function(problem)
    memo = getattr(score, "memo", None)
    if memo is None:
        def evaluate(assignment):
            return score((key_of(assignment),))[0]
    else:
        def evaluate(assignment):
            key = key_of(assignment)
            try:
                return memo[key]
            except KeyError:
                return score((key,))[0]

    return evaluate


def _incidences(problem: SearchProblem, symmetric: bool):
    """Count and iterator of the keys of the labellings enumerate_optimal
    walks, each key once.

    A key joins, block by block, the sorted labels of the block, so each
    block holds one multiset of labels, drawn by
    ``combinations_with_replacement`` as a sorted tuple.  When
    ``symmetric``, the walk fixes the first unit to 1, the least label, so
    the first block holds ``(1,)`` followed by a multiset one smaller.
    """
    labels = range(1, problem.v + 1)
    sizes = [end - start for start, end
             in block_ranges(problem.n, problem.nuisance_kind, problem.block_sizes)]
    sizes[0] -= symmetric
    count = math.prod(math.comb(problem.v + size - 1, size) for size in sizes)

    def keys():
        parts = [list(itertools.combinations_with_replacement(labels, size))
                 for size in sizes]
        if symmetric:
            parts[0] = [(1, *part) for part in parts[0]]
        for blocks in itertools.product(*parts):
            yield tuple(itertools.chain.from_iterable(blocks))

    return count, keys()


def _score_incidences(problem: SearchProblem, symmetric: bool) -> None:
    """Fill the scorer's memo with the keys of enumerate_optimal's walk.

    Does nothing unless the problem keeps scores and the keys fit in
    ``SCORE_CACHE_LIMIT``; otherwise it scores the keys the memo lacks in
    stacks of ``INCIDENCE_STACK_ROWS``, first emptying a memo they could
    overflow, so that every key of the walk is then in the memo.
    """
    score = problem.scorer()
    memo = getattr(score, "memo", None)
    if memo is None:
        return
    count, keys = _incidences(problem, symmetric)
    if count > SCORE_CACHE_LIMIT:
        return
    if len(memo) + count > SCORE_CACHE_LIMIT:
        memo.clear()
    missing = [key for key in keys if key not in memo]
    for start in range(0, len(missing), INCIDENCE_STACK_ROWS):
        score(missing[start:start + INCIDENCE_STACK_ROWS])


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
    ``TIE_RTOL`` are all collected into ``optimal_assignments``, in walk
    order.

    Under an intercept or block nuisance the walk asks only for the scores
    of block incidences.  When they fit in ``SCORE_CACHE_LIMIT``, they are
    generated and scored into the scorer's memo in stacks first (see
    ``_score_incidences``), so the walk only looks them up; when they do
    not, nothing is filled, and the walk scores each incidence it misses
    alone.  A row's score does not depend on its stack, so the result is
    the same either way.
    """
    size = enumeration_size(problem)
    if size > ENUMERATION_LIMIT:
        raise SearchSpaceError(
            f"{size} assignments exceed the enumeration envelope "
            f"({ENUMERATION_LIMIT}); use exchange_search"
        )
    symmetric = size < problem.v**problem.n
    _score_incidences(problem, symmetric)
    evaluate = make_evaluator(problem)
    labels = range(1, problem.v + 1)
    heads = [1] if symmetric else labels
    best = None
    best_assignment = None
    best_spectrum = None
    optima = []
    for assignment in itertools.product(heads, *[labels] * (problem.n - 1)):
        scored = evaluate(assignment)
        if scored is None:
            continue
        value, spectrum = scored
        if best is None or value > best:
            best = value
            best_assignment = assignment
            best_spectrum = spectrum
            floor = best - TIE_RTOL * abs(best)
            optima = [(a, val) for a, val in optima if val >= floor]
        if value >= floor:
            optima.append((assignment, value))
    if best is None:
        raise FeasibilityError("no feasible assignment can estimate the target")
    tied = tuple(a for a, val in optima if val >= floor)
    return SearchResult(
        best_design=problem.template(best_assignment),
        best_value=_criterion_value(problem, best, best_spectrum),
        trace=(best,),
        enumerated=True,
        optimal_assignments=tied,
    )


@dataclass(eq=False)
class _Ascent:
    """One exchange restart while the restarts sweep in lockstep."""

    current: list[int]
    value: float
    spectrum: np.ndarray
    start_value: float
    improving: int = 0
    passes: int = 1
    #: units in a row, up to the current one, known to hold no improvement
    quiet: int = 0


def exchange_search(problem: SearchProblem) -> SearchResult:
    """Restarted coordinate-exchange ascent, deterministic for a fixed seed.

    Each restart draws a feasible assignment, then sweeps the units; at each
    unit it takes the best strict improvement among the ``v - 1``
    reassignments (ties broken toward the lowest treatment index).  A sweep
    with no improvement, or ``max_passes`` sweeps, ends the restart.  This
    is coordinate exchange (Meyer and Nachtsheim, Technometrics 37, 1995)
    with the units as coordinates.

    A restart stops sweeping as soon as a full cycle of ``n`` units is
    known to hold no improvement: the unit of its last improvement (every
    move away from the chosen treatment was scored there and none beat it)
    and the ``n - 1`` unimproved visits after it.  The assignment has not
    changed since, and a score depends only on its key, so the rest of the
    sweep that would confirm convergence would score the same keys again
    and improve nothing.  ``passes`` still counts that sweep, so the result
    is the one the full sweep would give.

    The restarts are independent, so they sweep in lockstep: every start is
    drawn first, and then at each (pass, unit) the moves of every restart
    still sweeping are scored in one stacked call, each restart reading its
    own slice.  A row's score does not depend on the stack it is scored in,
    so the result is the one the restarts would reach one after another;
    the best is the first restart to reach the best value.  Starting draws
    and moves are scored through their keys, as ``make_evaluator`` scores
    them, by the problem's scorer, so the nuisance residual is built once
    per problem; on problems whose scorer keeps scores they are remembered,
    so a revisited block incidence is not scored again.
    """
    score = problem.scorer()
    key_of = _key_function(problem)

    def evaluate(assignment):
        return score((key_of(assignment),))[0]

    width = problem.v - 1
    # others[t]: the treatments a unit holding t can move to, in index order
    others = [[s for s in range(1, problem.v + 1) if s != t] for t in range(problem.v + 1)]
    ascents = []
    for child in np.random.SeedSequence(problem.seed).spawn(problem.restarts):
        current, (value, spectrum) = _start(problem, np.random.default_rng(child), evaluate)
        ascents.append(_Ascent(current, value, spectrum, value))
    live = ascents
    for passes in range(1, problem.max_passes + 1):
        for unit in range(problem.n):
            live = [ascent for ascent in live if ascent.quiet < problem.n]
            if not live:
                break
            keys = []
            for ascent in live:
                current = ascent.current
                original = current[unit]
                for treatment in others[original]:
                    current[unit] = treatment
                    keys.append(key_of(current))
                current[unit] = original
            results = score(keys)
            for index, ascent in enumerate(live):
                chosen = None
                for treatment, scored in zip(others[ascent.current[unit]],
                                             results[index * width:(index + 1) * width]):
                    if scored is not None and scored[0] > ascent.value:
                        chosen, (ascent.value, ascent.spectrum) = treatment, scored
                if chosen is None:
                    ascent.quiet += 1
                else:
                    ascent.current[unit] = chosen
                    ascent.improving += 1
                    ascent.quiet = 1
                    ascent.passes = min(passes + 1, problem.max_passes)
        if not live:
            break
    best = max(ascents, key=lambda ascent: ascent.value)
    return SearchResult(
        best_design=problem.template(tuple(best.current)),
        best_value=_criterion_value(problem, best.value, best.spectrum),
        trace=tuple(ascent.value for ascent in ascents),
        enumerated=False,
        restarts=tuple(RestartStats(a.start_value, a.passes, a.improving,
                                    a.passes * problem.n * width, a.value)
                       for a in ascents),
    )


def _start(problem: SearchProblem, rng: np.random.Generator, evaluate):
    """A feasible starting assignment of one restart and its score.

    Up to 1000 uniform draws come first.  If none is feasible, the start is
    a covering assignment: each block holds as many distinct treatments as
    its size allows, cycling on from the previous block's last one so that
    consecutive smaller-than-``v`` blocks share a treatment, and its other
    units are drawn from ``rng``.
    """
    for _ in range(1000):
        cand = tuple(int(t) for t in rng.integers(1, problem.v + 1, size=problem.n))
        scored = evaluate(cand)
        if scored is not None:
            return list(cand), scored
    cand = []
    first = 0
    for start, end in block_ranges(problem.n, problem.nuisance_kind, problem.block_sizes):
        cover = min(end - start, problem.v)
        cand += [(first + i) % problem.v + 1 for i in range(cover)]
        cand += rng.integers(1, problem.v + 1, size=end - start - cover).tolist()
        first += cover - 1
    scored = evaluate(tuple(cand))
    if scored is None:
        raise FeasibilityError(
            "no feasible starting assignment found in 1000 draws "
            "or in a covering assignment"
        )
    return cand, scored


@dataclass(frozen=True, eq=False)
class ArgmaxEquivalenceReport:
    """Double enumeration of one problem through both objective routes."""

    passed: bool
    value_system_route: float
    value_weighted_route: float
    optima_system_route: tuple[tuple[int, ...], ...]
    optima_weighted_route: tuple[tuple[int, ...], ...]


def argmax_equivalence_check(problem: SearchProblem) -> ArgmaxEquivalenceReport:
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
    values_close = abs(va - vb) <= TIE_RTOL * max(abs(va), abs(vb))
    sets_equal = set(rs.optimal_assignments) == set(rw.optimal_assignments)
    return ArgmaxEquivalenceReport(
        passed=bool(values_close and sets_equal),
        value_system_route=va,
        value_weighted_route=vb,
        optima_system_route=rs.optimal_assignments,
        optima_weighted_route=rw.optimal_assignments,
    )
