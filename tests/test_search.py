"""Exhaustive enumeration, exchange ascent, and the two-route argmax check."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import contrast
from wdesign import (
    DesignSpec,
    EstimableSystem,
    POSITIVE_SPECTRUM_CRITERIA,
    SearchProblem,
    argmax_equivalence_check,
    criterion_value,
    enumerate_optimal,
    estimation_space,
    exchange_search,
    info_matrix_for_system,
    information_matrix,
    make_weight_matrix,
    value_from_positive_spectrum,
    eig_sym,
)
import wdesign.search as search_module
from wdesign.errors import DomainError, FeasibilityError, SearchSpaceError, SpaceError
from wdesign.estimable import scale_system
from wdesign.instances import random_instance
from wdesign.linalg import DERIVED_RANK_RTOL, SYMMETRY_RTOL, max_abs, projector
from wdesign.model import FEASIBILITY_RTOL, design_matrix
from wdesign.search import ENUMERATION_LIMIT, enumeration_size, label_symmetric, make_evaluator

EPS = np.finfo(float).eps


def brute_force_best(problem):
    """Independent maximizer: full product walk through the library formulas."""
    best, argmax = None, []
    for assignment in itertools.product(range(1, problem.v + 1), repeat=problem.n):
        spec = problem.template(assignment)
        try:
            n = info_matrix_for_system(spec, problem.target)
        except FeasibilityError:
            continue
        value = value_from_positive_spectrum(problem.criterion, eig_sym(n).positive())
        if best is None or value > best + 1e-12:
            best, argmax = value, [assignment]
        elif abs(value - best) <= 1e-9 * max(abs(best), EPS):
            argmax.append(assignment)
    return best, argmax


def reference_evaluator(problem, outcomes=None):
    """The scorer chain as it stood before the scorer cache.

    Every product goes through the checks and the double symmetrization of
    ``symmetrized`` and through the eigendecomposition of ``eig_sym``; both
    are written out here so that a change in the library cannot reach them.
    When ``outcomes`` is a list, each call appends the rank of ``C`` and
    whether the key was scored or skipped by the residual or the rank check.
    """
    outcomes = [] if outcomes is None else outcomes

    def symmetrized(a):
        a = np.array(0.5 * (a + a.T), dtype=float)
        assert np.all(np.isfinite(a))
        assert max_abs(a - a.T) <= SYMMETRY_RTOL * max_abs(a)
        return 0.5 * (a + a.T)

    def eig_sym(a):
        w, s = np.linalg.eigh(a)
        w = w[::-1].copy()
        s = s[:, ::-1].copy()
        cutoff = max(DERIVED_RANK_RTOL * float(np.max(np.abs(w))), np.finfo(float).tiny)
        rank = int(np.count_nonzero(w > cutoff))
        return w[:rank], s[:, :rank]

    _, ell = design_matrix(problem.template(tuple([1] * problem.n)))
    mres = np.eye(problem.n) - projector(ell).entries
    if isinstance(problem.target, EstimableSystem):
        qs, rank_needed = scale_system(problem.target), problem.target.r
    else:
        qs, rank_needed = problem.target.K, problem.target.d
    qscale = max(max_abs(qs), EPS)

    def evaluate(assignment):
        x = np.zeros((problem.n, problem.v))
        x[np.arange(problem.n), np.asarray(assignment) - 1] = 1.0
        positive, f = eig_sym(symmetrized(x.T @ mres @ x))
        if max_abs(qs - f @ (f.T @ qs)) > FEASIBILITY_RTOL * qscale:
            outcomes.append((positive.size, "residual"))
            return None
        cplus = (f / positive) @ f.T
        pos, _ = eig_sym(symmetrized(qs.T @ cplus @ qs))
        if pos.size != rank_needed:
            outcomes.append((positive.size, "rank"))
            return None
        outcomes.append((positive.size, "scored"))
        spectrum = 1.0 / pos[::-1]
        return value_from_positive_spectrum(problem.criterion, spectrum), spectrum

    return evaluate


def reference_exchange(problem):
    """Exchange search as it stood before stacking: one scalar score per move.

    Scores go through ``reference_evaluator`` on the block-sorted key,
    remembered per key; the starts are the library's 1000 draws.  Returns
    the best assignment, its score, the trace and, per restart, the start
    value, passes, improving moves, moves scored and final value; None when
    a restart finds no feasible draw.
    """
    reference = reference_evaluator(problem)
    memo = {}

    def evaluate(assignment):
        if problem.nuisance_kind != "explicit":
            assignment = block_sorted(problem, assignment)
        if assignment not in memo:
            memo[assignment] = reference(assignment)
        return memo[assignment]

    best = best_assignment = best_scored = None
    trace, stats = [], []
    for child in np.random.SeedSequence(problem.seed).spawn(problem.restarts):
        rng = np.random.default_rng(child)
        for _ in range(1000):
            current = [int(t) for t in rng.integers(1, problem.v + 1, size=problem.n)]
            scored = evaluate(tuple(current))
            if scored is not None:
                break
        else:
            return None
        start, improving, moves = scored[0], 0, 0
        for passes in range(1, problem.max_passes + 1):
            improved = False
            for unit in range(problem.n):
                original, chosen = current[unit], None
                for treatment in range(1, problem.v + 1):
                    if treatment == original:
                        continue
                    current[unit] = treatment
                    candidate = evaluate(tuple(current))
                    moves += 1
                    if candidate is not None and candidate[0] > scored[0]:
                        chosen, scored = treatment, candidate
                current[unit] = original if chosen is None else chosen
                improving += chosen is not None
                improved = improved or chosen is not None
            if not improved:
                break
        trace.append(scored[0])
        stats.append((start, passes, improving, moves, scored[0]))
        if best is None or scored[0] > best:
            best, best_assignment, best_scored = scored[0], tuple(current), scored
    return best_assignment, best_scored, tuple(trace), stats


def matching_the_sequential_reference(problems):
    """Exchange results of the problems ``reference_exchange`` can run,
    each asserted bit-identical to the reference."""
    results = []
    for problem in problems:
        if (problem.nuisance_kind == "explicit"
                and problem.n - problem.L.shape[1] < search_module._target(problem)[1]):
            continue  # rank C <= n - rank L: no design estimates the target
        expected = reference_exchange(problem)
        if expected is None:
            continue
        result = exchange_search(problem)
        assignment, scored, trace, stats = expected
        assert result.best_design.assignment == assignment
        assert same_bits((result.best_value.value, result.best_value.spectrum_used), scored)
        assert np.array(result.trace).tobytes() == np.array(trace).tobytes()
        assert [(r.start_value, r.passes, r.improving_moves, r.moves_scored, r.final_value)
                for r in result.restarts] == stats
        results.append(result)
    return results


def improving_visits(problem):
    """Per restart, the 1-based indices, counted across passes, of the unit
    visits that took an improvement when every sweep runs in full.

    A sequential sweep through the library's starts and evaluator, written
    apart from ``exchange_search``; its first ``m`` passes are those of a
    run capped at ``max_passes = m``, and its first ``r`` restarts those of
    a run with ``r`` restarts.
    """
    evaluate = make_evaluator(problem)
    visits = []
    for child in np.random.SeedSequence(problem.seed).spawn(problem.restarts):
        current, (value, _) = search_module._start(problem, np.random.default_rng(child),
                                                   evaluate)
        improving, visit = [], 0
        for _ in range(problem.max_passes):
            for unit in range(problem.n):
                visit += 1
                moves = {t: evaluate(tuple(current[:unit] + [t] + current[unit + 1:]))
                         for t in range(1, problem.v + 1) if t != current[unit]}
                for treatment, scored in moves.items():
                    if scored is not None and scored[0] > value:
                        value, current[unit] = scored[0], treatment
                if current[unit] in moves:
                    improving.append(visit)
            if not improving or improving[-1] <= visit - problem.n:
                break
        visits.append(improving)
    return visits


def move_stacks(monkeypatch, problem):
    """``exchange_search(problem)`` and the row counts of its move stacks.

    ``exchange_search`` builds one scorer; this counts every stack it scores
    outside ``_start``, which scores the starting draws one row at a time.
    """
    stack_scorer, start = search_module._stack_scorer, search_module._start
    scorers, draws, moves = [], [], []

    def counting(problem):
        score = stack_scorer(problem)
        scorers.append(score)

        def counted(keys):
            (draws if starting else moves).append(len(keys))
            return score(keys)

        return counted

    def starting_draws(*args):
        nonlocal starting
        starting = True
        try:
            return start(*args)
        finally:
            starting = False

    starting = False
    with monkeypatch.context() as patch:
        patch.setattr(search_module, "_stack_scorer", counting)
        patch.setattr(search_module, "_start", starting_draws)
        result = exchange_search(problem)
    assert len(scorers) == 1
    assert set(draws) == {1}
    return result, moves


def trend_problem(restarts):
    """Exchange on v=6, n=24 with an explicit quadratic trend and a weight target.

    ``W = K K'`` with ``K_k = sqrt(k) (e_{k+1} - e_1) / sqrt(2)``; criterion D.
    """
    v, n = 6, 24
    t = np.linspace(-1.0, 1.0, n)
    ell = np.column_stack([np.ones(n), t, t**2 - np.mean(t**2)])
    k = np.zeros((v, v - 1))
    for j in range(1, v):
        k[0, j - 1], k[j, j - 1] = -np.sqrt(j / 2.0), np.sqrt(j / 2.0)
    space = estimation_space("contrasts", v)
    return SearchProblem(v=v, n=n, criterion="D", target=make_weight_matrix(k @ k.T, space),
                         space=space, nuisance_kind="explicit", L=ell, seed=3,
                         restarts=restarts)


def scorer_problems(count, seed=5):
    """Search problems on random instances under all three nuisance kinds.

    Every fourth problem replaces the drawn nuisance by an explicit ``L``
    holding the intercept, a linear trend and a random covariate.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(count):
        spec, space, target = random_instance(rng, ("theorem1", "theorem3", "aopt")[i % 3])
        nuisance = {"nuisance_kind": spec.nuisance_kind, "block_sizes": spec.block_sizes}
        if i % 4 == 3:
            ell = np.column_stack([np.ones(spec.n), np.linspace(-1.0, 1.0, spec.n),
                                   rng.standard_normal(spec.n)])
            nuisance = {"nuisance_kind": "explicit", "L": ell}
        problems.append(SearchProblem(v=spec.v, n=spec.n, criterion="DAE"[i % 3],
                                      target=target, space=space, **nuisance))
    return problems


def single_contrast_problems():
    """v=4, n=6 problems whose one-contrast target is estimable from deficient C.

    The ``L`` without an intercept column gives ``C`` of full rank ``v``.
    """
    t = np.linspace(-1.0, 1.0, 6)
    return [SearchProblem(v=4, n=6, criterion=criterion,
                          target=EstimableSystem(contrast(4, 1, 2)),
                          space=estimation_space("contrasts", 4), **nuisance)
            for criterion, nuisance in (
                ("A", {}),
                ("D", {"nuisance_kind": "blocks", "block_sizes": (3, 3)}),
                ("E", {"nuisance_kind": "explicit", "L": np.column_stack([np.ones(6), t])}),
                ("A", {"nuisance_kind": "explicit", "L": t[:, None]}))]


def random_assignments(rng, problem, count):
    return [tuple(int(t) for t in rng.integers(1, problem.v + 1, size=problem.n))
            for _ in range(count)]


def blocks_of(problem):
    """Unit ranges of the blocks; an intercept is one block of all units."""
    sizes = problem.block_sizes if problem.nuisance_kind == "blocks" else (problem.n,)
    ends = np.cumsum(sizes)
    return [range(end - size, end) for size, end in zip(sizes, ends)]


def block_sorted(problem, assignment):
    return tuple(t for block in blocks_of(problem)
                 for t in sorted(assignment[block.start:block.stop]))


def arrangements(labels):
    """Distinct orderings of a multiset of labels."""
    if not labels:
        yield ()
        return
    for first in sorted(set(labels)):
        rest = list(labels)
        rest.remove(first)
        for tail in arrangements(rest):
            yield (first, *tail)


def arrangement_count(labels):
    count = math.factorial(len(labels))
    for t in set(labels):
        count //= math.factorial(labels.count(t))
    return count


def within_block_permutations(problem, assignment):
    """Every distinct assignment reached by permuting units inside blocks."""
    per_block = [list(arrangements(assignment[b.start:b.stop])) for b in blocks_of(problem)]
    for parts in itertools.product(*per_block):
        yield tuple(t for part in parts for t in part)


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (np.float64(a[0]).tobytes() == np.float64(b[0]).tobytes()
            and a[1].dtype == b[1].dtype and a[1].tobytes() == b[1].tobytes())


@pytest.fixture
def single_contrast_problem():
    return SearchProblem(
        v=2, n=4, criterion="A",
        target=EstimableSystem(contrast(2, 1, 2)),
        space=estimation_space("contrasts", 2),
    )


class TestEnumerate:
    def test_balanced_two_treatments(self, single_contrast_problem):
        result = enumerate_optimal(single_contrast_problem)
        np.testing.assert_array_equal(result.best_design.replications(), [2, 2])
        # oracle over all 16 assignments: best A-value is 1 / (q'C^+q) = 2
        best, _ = brute_force_best(single_contrast_problem)
        assert result.best_value.value == pytest.approx(best, rel=1e-12)
        assert best == pytest.approx(2.0)
        assert result.enumerated

    def test_pairwise_d_equireplicated(self):
        v = 3
        pairs = np.column_stack([contrast(v, i, j)
                                 for i in range(1, v + 1) for j in range(i + 1, v + 1)])
        problem = SearchProblem(v=v, n=6, criterion="D",
                                target=EstimableSystem(pairs),
                                space=estimation_space("contrasts", v))
        result = enumerate_optimal(problem)
        np.testing.assert_array_equal(result.best_design.replications(), [2, 2, 2])

    def test_single_feasible_assignment(self):
        problem = SearchProblem(v=2, n=2, criterion="E",
                                target=EstimableSystem(contrast(2, 1, 2)),
                                space=estimation_space("contrasts", 2))
        result = enumerate_optimal(problem)
        assert result.optimal_assignments == ((1, 2),)

    def test_space_too_large(self):
        problem = SearchProblem(v=4, n=12, criterion="A",
                                target=EstimableSystem(contrast(4, 1, 2)),
                                space=estimation_space("contrasts", 4))
        assert enumeration_size(problem) > ENUMERATION_LIMIT
        with pytest.raises(SearchSpaceError, match="exchange"):
            enumerate_optimal(problem)

    def test_no_feasible_assignment(self):
        problem = SearchProblem(v=2, n=1, criterion="A",
                                target=EstimableSystem(contrast(2, 1, 2)),
                                space=estimation_space("contrasts", 2))
        with pytest.raises(FeasibilityError):
            enumerate_optimal(problem)

    def test_symmetry_certificate(self, single_contrast_problem):
        assert label_symmetric(single_contrast_problem)
        control = SearchProblem(v=3, n=4, criterion="A",
                                target=EstimableSystem(
                                    np.column_stack([contrast(3, 1, 2), contrast(3, 1, 3)])),
                                space=estimation_space("contrasts", 3))
        assert not label_symmetric(control)


class TestScorer:
    def test_matches_the_information_matrix_route(self):
        rng = np.random.default_rng(11)
        outcomes = {"none": 0, "scored": 0}
        kinds = set()
        for problem in scorer_problems(60):
            if not isinstance(problem.target, EstimableSystem):
                continue
            kinds.add(problem.nuisance_kind)
            evaluate = make_evaluator(problem)
            for assignment in random_assignments(rng, problem, 15):
                try:
                    n = info_matrix_for_system(
                        information_matrix(problem.template(assignment)), problem.target)
                    pos = eig_sym(n).positive()
                    expected = (None if pos.size != problem.target.r else
                                value_from_positive_spectrum(problem.criterion, pos))
                except FeasibilityError:
                    expected = None
                scored = evaluate(assignment)
                if expected is None:
                    assert scored is None
                    outcomes["none"] += 1
                else:
                    assert scored is not None
                    assert scored[0] == pytest.approx(expected, rel=1e-12)
                    outcomes["scored"] += 1
        assert kinds == {"intercept", "blocks", "explicit"}
        assert min(outcomes.values()) > 50

    def test_bit_identical_to_the_validated_chain(self):
        rng = np.random.default_rng(12)
        compared = 0
        for problem in scorer_problems(60):
            evaluate = make_evaluator(problem)
            reference = reference_evaluator(problem)
            for assignment in random_assignments(rng, problem, 15):
                if problem.nuisance_kind != "explicit":
                    assignment = block_sorted(problem, assignment)
                scored = evaluate(assignment)
                assert same_bits(scored, reference(assignment))
                compared += scored is not None
        assert compared > 100

    def test_stacks_are_bit_identical_to_the_validated_chain(self):
        rng = np.random.default_rng(15)
        seen = set()
        mixed = wide = 0
        for index, problem in enumerate(scorer_problems(60) + single_contrast_problems()):
            stack = search_module._stack_scorer(problem)
            outcomes = []
            reference = reference_evaluator(problem, outcomes)
            # 100 rows, on every fifth problem: the moves of 20 lockstep
            # exchange restarts at v = 6
            for size in (1, 2, 6, 6, 6) + (100,) * (index % 5 == 0):
                keys = random_assignments(rng, problem, size)
                if problem.nuisance_kind != "explicit":
                    keys = [block_sorted(problem, key) for key in keys]
                start = len(outcomes)
                for key, scored in zip(keys, stack(keys), strict=True):
                    assert same_bits(scored, reference(key))
                ranks = {rank for rank, _ in outcomes[start:]}
                mixed += len(ranks) > 1
                wide += size == 100 and len(ranks) > 1 and len(
                    {why == "scored" for _, why in outcomes[start:]}) > 1
            # rank of C against the v - 1 of a connected design
            seen.update((problem.nuisance_kind, why, np.sign(rank - (problem.v - 1)))
                        for rank, why in outcomes)
        assert mixed > 100
        # stacks of mixed rank holding both scored and skipped rows
        assert wide >= 8
        for kind in ("intercept", "blocks", "explicit"):
            # scored from full and deficient C; skipped by the residual check
            assert {(kind, "scored", 0), (kind, "scored", -1), (kind, "residual", -1)} <= seen
        assert ("explicit", "scored", 1) in seen

    def test_remembering_scores_each_missing_key_once_within_its_limit(self):
        rows = []

        def score(keys):
            rows.extend(keys)
            return [None if key == "x" else (len(key), key) for key in keys]

        remembered = search_module._remembering(score, 4)
        assert remembered(["a", "bb", "a", "x"]) == [(1, "a"), (2, "bb"), (1, "a"), None]
        assert rows == ["a", "bb", "x"]
        # a hit survives the emptying that makes room for the new keys
        assert remembered(["bb", "ccc", "dd"]) == [(2, "bb"), (3, "ccc"), (2, "dd")]
        assert rows[3:] == ["ccc", "dd"]
        # more new keys than the limit are scored but not remembered, and
        # leave what is remembered in place
        wide = ["e", "f", "g", "h", "i"]
        assert remembered(wide + ["ccc"]) == [(1, key) for key in wide] + [(3, "ccc")]
        assert rows[5:] == wide
        assert remembered(["ccc", "dd", "e"]) == [(3, "ccc"), (2, "dd"), (1, "e")]
        assert rows[10:] == ["e"]

    @pytest.mark.parametrize("limit", [search_module.SCORE_CACHE_LIMIT, 0])
    def test_values_are_invariant_within_blocks(self, monkeypatch, limit):
        monkeypatch.setattr(search_module, "SCORE_CACHE_LIMIT", limit)
        rng = np.random.default_rng(13)
        checked = {"intercept": 0, "blocks": 0}
        for problem in scorer_problems(40):
            if problem.nuisance_kind == "explicit":
                continue
            evaluate = make_evaluator(problem)
            for assignment in random_assignments(rng, problem, 3):
                size = math.prod(arrangement_count(assignment[b.start:b.stop])
                                 for b in blocks_of(problem))
                if size > 500:
                    continue
                first = evaluate(assignment)
                if first is not None:
                    assert not first[1].flags.writeable
                for other in within_block_permutations(problem, assignment):
                    assert same_bits(evaluate(other), first)
                checked[problem.nuisance_kind] += 1
        assert min(checked.values()) >= 5

    @pytest.mark.parametrize("limit", [0, 7])
    def test_cache_cap_does_not_change_enumeration(self, monkeypatch, contrasts3,
                                                   control_system, limit):
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        problems = [
            SearchProblem(v=3, n=8, criterion="A", target=EstimableSystem(pairs),
                          space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3, 2)),
            SearchProblem(v=3, n=6, criterion="E", target=control_system, space=contrasts3),
        ]
        default = [enumerate_optimal(problem) for problem in problems]
        monkeypatch.setattr(search_module, "SCORE_CACHE_LIMIT", limit)
        for problem, base in zip(problems, default):
            capped = enumerate_optimal(problem)
            assert capped.best_design.assignment == base.best_design.assignment
            assert np.float64(capped.best_value.value).tobytes() == \
                np.float64(base.best_value.value).tobytes()
            assert capped.best_value.spectrum_used.tobytes() == \
                base.best_value.spectrum_used.tobytes()
            assert capped.optimal_assignments == base.optimal_assignments
            assert len(base.optimal_assignments) > 1

    @pytest.mark.parametrize("limit", [0, 7])
    def test_fresh_problems_under_a_cache_cap_enumerate_alike(self, monkeypatch, contrasts3,
                                                              control_system, limit):
        # each problem is built after the cap is set, so its scorer has the
        # capped memo, which cannot hold the walk's incidences
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])

        def problems():
            return [
                SearchProblem(v=3, n=8, criterion="A", target=EstimableSystem(pairs),
                              space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3, 2)),
                SearchProblem(v=3, n=6, criterion="E", target=control_system, space=contrasts3),
            ]

        default = [enumerate_optimal(problem) for problem in problems()]
        monkeypatch.setattr(search_module, "SCORE_CACHE_LIMIT", limit)
        for problem, base in zip(problems(), default):
            capped = enumerate_optimal(problem)
            assert len(problem.scorer().memo) <= limit
            assert capped.best_design.assignment == base.best_design.assignment
            assert same_bits((capped.best_value.value, capped.best_value.spectrum_used),
                             (base.best_value.value, base.best_value.spectrum_used))
            assert capped.optimal_assignments == base.optimal_assignments
            assert len(base.optimal_assignments) > 1

    def test_incidences_are_the_keys_of_the_walk(self, contrasts3, control_system):
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        problems = [
            SearchProblem(v=3, n=5, criterion="A", target=EstimableSystem(pairs),
                          space=contrasts3),
            SearchProblem(v=3, n=5, criterion="A", target=control_system, space=contrasts3),
            SearchProblem(v=3, n=8, criterion="A", target=EstimableSystem(pairs),
                          space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3, 2)),
            SearchProblem(v=3, n=7, criterion="D", target=control_system, space=contrasts3,
                          nuisance_kind="blocks", block_sizes=(1, 4, 2)),
        ]
        seen = set()
        for problem in problems:
            symmetric = label_symmetric(problem)
            seen.add((problem.nuisance_kind, symmetric))
            heads = [1] if symmetric else range(1, problem.v + 1)
            key_of = search_module._key_function(problem)
            walked = {key_of((head, *tail)) for head in heads
                      for tail in itertools.product(range(1, problem.v + 1),
                                                    repeat=problem.n - 1)}
            count, keys = search_module._incidences(problem, symmetric)
            keys = list(keys)
            assert len(keys) == len(set(keys)) == count
            assert set(keys) == walked
        assert seen == set(itertools.product(("intercept", "blocks"), (False, True)))
        # v = 4 in blocks (3, 3, 3), label-symmetric: 10 * 20 * 20 incidences
        problem = SearchProblem(v=4, n=9, criterion="A",
                                target=EstimableSystem(np.column_stack(
                                    [contrast(4, i, j) for i, j in
                                     itertools.combinations(range(1, 5), 2)])),
                                space=estimation_space("contrasts", 4),
                                nuisance_kind="blocks", block_sizes=(3, 3, 3))
        count, keys = search_module._incidences(problem, label_symmetric(problem))
        assert count == len(set(keys)) == 4000

    def test_enumeration_scores_each_incidence_once_in_stacks(self, monkeypatch, contrasts3,
                                                              control_system):
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        blocks = SearchProblem(v=3, n=8, criterion="A", target=EstimableSystem(pairs),
                               space=contrasts3, nuisance_kind="blocks",
                               block_sizes=(3, 3, 2))
        explicit = SearchProblem(v=3, n=5, criterion="A", target=control_system,
                                 space=contrasts3, nuisance_kind="explicit",
                                 L=np.ones((5, 1)))
        default = [enumerate_optimal(replace(problem)) for problem in (blocks, explicit)]
        stack_scorer, forms = search_module._stack_scorer, search_module.estimable_forms
        rows, stacks = [], []

        def counting(problem):
            score = stack_scorer(problem)

            def counted(keys):
                rows.extend(tuple(key) for key in keys)
                return score(keys)

            return counted

        def decomposing(cs, qs):
            stacks.append(len(cs.entries))
            return forms(cs, qs)

        monkeypatch.setattr(search_module, "_stack_scorer", counting)
        monkeypatch.setattr(search_module, "estimable_forms", decomposing)
        monkeypatch.setattr(search_module, "STACK_ROWS", 64)
        result = enumerate_optimal(blocks)
        count, keys = search_module._incidences(blocks, True)
        assert count == 6 * 10 * 6
        # the rows of each C stack the scorer decomposes
        assert stacks == [64] * 5 + [40]
        assert len(rows) == len(set(rows)) and set(rows) == set(keys)
        # an explicit L has no incidences: each labelling is scored alone
        stacks.clear()
        explicit_result = enumerate_optimal(explicit)
        assert stacks == [1] * 3**5
        for got, base in zip((result, explicit_result), default):
            assert same_bits((got.best_value.value, got.best_value.spectrum_used),
                             (base.best_value.value, base.best_value.spectrum_used))
            assert got.optimal_assignments == base.optimal_assignments

    def test_a_second_enumeration_scores_no_incidence_again(self, monkeypatch, contrasts3):
        # 360 incidences fill more than half of a 512-key memo: a second
        # enumeration of the problem, as ``search --both-routes`` runs on the
        # system route, finds every one of them there
        monkeypatch.setattr(search_module, "SCORE_CACHE_LIMIT", 512)
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        problem = SearchProblem(v=3, n=8, criterion="A", target=EstimableSystem(pairs),
                                space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3, 2))
        stack_scorer = search_module._stack_scorer
        rows = []

        def counting(problem):
            score = stack_scorer(problem)

            def counted(keys):
                rows.extend(keys)
                return score(keys)

            return counted

        monkeypatch.setattr(search_module, "_stack_scorer", counting)
        first = enumerate_optimal(problem)
        assert len(rows) == len(set(rows)) == 360
        rows.clear()
        again = enumerate_optimal(problem)
        assert rows == []
        assert again.optimal_assignments == first.optimal_assignments
        # a memo whose other keys leave no room for the walk's is emptied,
        # keeping the walk's keys it held, and the rest of the walk is
        # scored, each key once
        fresh = replace(problem)
        junk = [tuple(rng_row) for rng_row in
                np.random.default_rng(0).integers(1, 4, size=(400, 8)).tolist()]
        fresh.scorer()(junk)
        rows.clear()
        walk = set(search_module._incidences(fresh, True)[1])
        assert enumerate_optimal(fresh).optimal_assignments == first.optimal_assignments
        assert len(rows) == len(set(rows)) and set(rows) == walk - set(junk)
        assert len(walk & set(junk)) == 13
        assert set(fresh.scorer().memo) == walk

    def test_a_memo_overflowed_by_half_a_walk_keeps_the_other_half(self, monkeypatch,
                                                                  contrasts3):
        # the memo holds every other key of the walk and 300 keys off it, so
        # the 180 keys the walk lacks overflow it: the walk's keys it holds
        # stay, and no key of the walk is scored alone
        monkeypatch.setattr(search_module, "SCORE_CACHE_LIMIT", 512)
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        problem = SearchProblem(v=3, n=8, criterion="A", target=EstimableSystem(pairs),
                                space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3, 2))
        base = enumerate_optimal(replace(problem))
        walk = list(search_module._incidences(problem, True)[1])
        others = list(itertools.islice(set(itertools.product(range(1, 4), repeat=8))
                                       - set(walk), 300))
        stack_scorer = search_module._stack_scorer
        calls = []

        def counting(problem):
            score = stack_scorer(problem)

            def counted(keys):
                calls.append(list(keys))
                return score(keys)

            return counted

        monkeypatch.setattr(search_module, "_stack_scorer", counting)
        problem.scorer()(walk[::2] + others)
        assert len(problem.scorer().memo) == 480
        calls.clear()
        result = enumerate_optimal(problem)
        assert calls == [walk[1::2]]
        assert set(problem.scorer().memo) == set(walk)
        assert result.optimal_assignments == base.optimal_assignments
        assert same_bits((result.best_value.value, result.best_value.spectrum_used),
                         (base.best_value.value, base.best_value.spectrum_used))

    def test_every_decomposed_stack_is_bounded_whoever_calls(self, monkeypatch):
        stack_scorer, forms = search_module._stack_scorer, search_module.estimable_forms
        calls, stacks = [], []

        def recording(problem):
            score = stack_scorer(problem)

            def recorded(keys):
                results = score(keys)
                calls.append((problem, list(keys), results))
                return results

            return recorded

        def decomposing(cs, qs):
            stacks.append(len(cs.entries))
            return forms(cs, qs)

        # a remembered call of 1,000 keys: incidences of v=4 in blocks (3,3,3)
        remembered = SearchProblem(v=4, n=9, criterion="A", target=EstimableSystem(pairwise(4)),
                                   space=estimation_space("contrasts", 4),
                                   nuisance_kind="blocks", block_sizes=(3, 3, 3))
        keys = list(itertools.islice(search_module._incidences(remembered, True)[1], 1000))
        # exchange at v=30, too large to keep scores: 20 restarts move each
        # unit to 29 treatments, 580 keys a call
        moving = SearchProblem(v=30, n=6, criterion="A",
                               target=EstimableSystem(contrast(30, 1, 2)),
                               space=estimation_space("contrasts", 30), max_passes=1)
        with monkeypatch.context() as patch:
            patch.setattr(search_module, "_stack_scorer", recording)
            patch.setattr(search_module, "estimable_forms", decomposing)
            remembered.scorer()(keys)
            assert len(remembered.scorer().memo) == 1000
            assert stacks == [512, 488]
            stacks.clear()
            exchange_search(moving)
        moves = [call for call in calls if len(call[1]) == 20 * 29]
        assert len(moves) == moving.n
        assert max(stacks) == search_module.STACK_ROWS
        assert stacks.count(512) == stacks.count(580 - 512) == moving.n
        checked = 0
        for problem, keys, results in calls[:1] + moves[:1] + moves[-1:]:
            alone = stack_scorer(problem)
            for key, scored in zip(keys, results, strict=True):
                assert same_bits(scored, alone((key,))[0])
                checked += scored is not None
        assert checked > 500

    def test_a_replaced_target_is_scored_afresh(self, contrasts3, control_system):
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        problem = SearchProblem(v=3, n=6, criterion="A", target=EstimableSystem(pairs),
                                space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3))
        assert problem.scorer() is problem.scorer()
        assignment = (1, 1, 2, 2, 3, 1)
        before = make_evaluator(problem)(assignment)
        enumerate_optimal(problem)
        replaced = replace(problem, target=control_system)
        fresh = SearchProblem(v=3, n=6, criterion="A", target=control_system,
                              space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3))
        assert replaced.scorer() is not problem.scorer()
        scored = make_evaluator(replaced)(assignment)
        assert same_bits(scored, make_evaluator(fresh)(assignment))
        assert not same_bits(scored, before)
        again, base = enumerate_optimal(replaced), enumerate_optimal(fresh)
        assert again.optimal_assignments == base.optimal_assignments
        assert same_bits((again.best_value.value, again.best_value.spectrum_used),
                         (base.best_value.value, base.best_value.spectrum_used))


    def test_values_are_invariant_within_blocks_without_a_cache(self, contrasts3):
        # n = 40 is too large to enumerate, so no cache; scoring the caller's
        # labelling as given changes the last bits under most shuffles here.
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        rng = np.random.default_rng(14)
        scored = 0
        for kind, sizes in (("intercept", None), ("blocks", (10, 10, 10, 10))):
            problem = SearchProblem(v=3, n=40, criterion="A", target=EstimableSystem(pairs),
                                    space=contrasts3, nuisance_kind=kind, block_sizes=sizes)
            evaluate = make_evaluator(problem)
            for assignment in random_assignments(rng, problem, 10):
                first = evaluate(assignment)
                scored += first is not None
                for _ in range(5):
                    shuffled = np.array(assignment)
                    for block in blocks_of(problem):
                        shuffled[block.start:block.stop] = rng.permutation(
                            shuffled[block.start:block.stop])
                    assert same_bits(evaluate(tuple(int(t) for t in shuffled)), first)
        assert scored >= 15

    def test_only_enumerable_problems_keep_scores(self, monkeypatch, contrasts3):
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        problem = SearchProblem(v=3, n=8, criterion="A", target=EstimableSystem(pairs),
                                space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3, 2))
        assignment, shuffled = (1, 2, 3, 3, 1, 2, 1, 2), (3, 2, 1, 1, 2, 3, 2, 1)
        evaluate = make_evaluator(problem)
        assert evaluate(assignment) is evaluate(shuffled)
        # a problem chooses its scorer once, so the capped one is built afresh
        monkeypatch.setattr(search_module, "ENUMERATION_LIMIT", problem.v ** (problem.n - 1) - 1)
        evaluate = make_evaluator(replace(problem))
        first, second = evaluate(assignment), evaluate(shuffled)
        assert first is not second
        assert same_bits(first, second)

    def test_search_results_own_writable_spectra(self, contrasts3):
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        problem = SearchProblem(v=3, n=6, criterion="A", target=EstimableSystem(pairs),
                                space=contrasts3, nuisance_kind="blocks", block_sizes=(3, 3),
                                seed=3, restarts=4)
        for search in (enumerate_optimal, exchange_search):
            spectrum = search(problem).best_value.spectrum_used
            assert spectrum.flags.writeable
            before = spectrum.copy()
            spectrum *= 2.0
            again = search(problem).best_value.spectrum_used
            assert again.tobytes() == before.tobytes()


def pairwise(v):
    return np.column_stack([contrast(v, i, j)
                            for i, j in itertools.combinations(range(1, v + 1), 2)])


def key_problems(contrasts3, control_system):
    """Intercept and block problems with blocks on both sides of ``v**size <=
    SCORE_CACHE_LIMIT``, enumerable or not."""
    pairs = EstimableSystem(pairwise(3))
    blocks = {"nuisance_kind": "blocks"}
    return [
        SearchProblem(v=3, n=5, criterion="A", target=pairs, space=contrasts3),
        SearchProblem(v=3, n=40, criterion="A", target=control_system, space=contrasts3),
        SearchProblem(v=3, n=8, criterion="D", target=pairs, space=contrasts3,
                      block_sizes=(3, 3, 2), **blocks),
        SearchProblem(v=3, n=40, criterion="A", target=pairs, space=contrasts3,
                      block_sizes=(4, 10, 2, 9, 4, 11), **blocks),
        SearchProblem(v=2, n=16, criterion="E", target=EstimableSystem(contrast(2, 1, 2)),
                      space=estimation_space("contrasts", 2), block_sizes=(14, 2), **blocks),
    ]


class TestKeys:
    def test_keys_are_the_sorted_labels_of_each_block(self, contrasts3, control_system):
        rng = np.random.default_rng(21)
        limit = search_module.SCORE_CACHE_LIMIT
        sides = set()
        for problem in key_problems(contrasts3, control_system):
            key_of = search_module._key_function(problem)
            sizes = [len(block) for block in blocks_of(problem)]
            sides.update(problem.v ** size <= limit for size in sizes)
            for assignment in random_assignments(rng, problem, 200):
                expected = block_sorted(problem, assignment)
                for given in (assignment, list(assignment)):
                    key = key_of(given)
                    assert type(key) is tuple and key == expected
            # only the blocks of at most SCORE_CACHE_LIMIT label tuples are kept
            small = {size for size in sizes if problem.v ** size <= limit}
            assert {len(part) for part in key_of.table} == small
            assert all(labels == tuple(sorted(part)) for part, labels in key_of.table.items())
        assert sides == {False, True}

    def test_the_table_never_holds_more_than_the_limit(self, contrasts3):
        # 3^8 + 3^7 = 8,748 label tuples of small blocks, past the limit of 8,192
        problem = SearchProblem(v=3, n=15, criterion="A", target=EstimableSystem(pairwise(3)),
                                space=contrasts3, nuisance_kind="blocks", block_sizes=(8, 7))
        assert problem.v ** (problem.n - 1) > ENUMERATION_LIMIT
        key_of = search_module._key_function(problem)
        rng = np.random.default_rng(22)
        for assignment in rng.integers(1, 4, size=(20000, 15)).tolist():
            assert key_of(assignment) == block_sorted(problem, assignment)
            assert len(key_of.table) <= search_module.SCORE_CACHE_LIMIT
        assert len(key_of.table) == search_module.SCORE_CACHE_LIMIT

    def test_an_explicit_nuisance_keeps_the_assignment(self, contrasts3, control_system):
        problem = SearchProblem(v=3, n=5, criterion="A", target=control_system,
                                space=contrasts3, nuisance_kind="explicit", L=np.ones((5, 1)))
        assert search_module._key_function(problem) is tuple


def walk_problems(contrasts3, control_system):
    """Small intercept, block and explicit-``L`` problems, label-symmetric or not."""
    pairs = EstimableSystem(pairwise(3))
    trend = np.column_stack([np.ones(5), np.linspace(-1.0, 1.0, 5)])
    return [
        SearchProblem(v=3, n=5, criterion="A", target=pairs, space=contrasts3),
        SearchProblem(v=3, n=5, criterion="D", target=control_system, space=contrasts3),
        SearchProblem(v=3, n=7, criterion="A", target=pairs, space=contrasts3,
                      nuisance_kind="blocks", block_sizes=(3, 2, 2)),
        SearchProblem(v=3, n=7, criterion="E", target=control_system, space=contrasts3,
                      nuisance_kind="blocks", block_sizes=(1, 4, 2)),
        SearchProblem(v=3, n=5, criterion="A", target=pairs, space=contrasts3,
                      nuisance_kind="explicit", L=trend),
        SearchProblem(v=3, n=5, criterion="A", target=control_system, space=contrasts3,
                      nuisance_kind="explicit", L=trend),
    ]


def counting_evaluators(monkeypatch):
    """Record every assignment the ``make_evaluator`` closures are called with."""
    calls = []
    original = search_module.make_evaluator

    def make_evaluator(problem):
        evaluate = original(problem)

        def counted(assignment):
            calls.append(assignment)
            return evaluate(assignment)

        return counted

    monkeypatch.setattr(search_module, "make_evaluator", make_evaluator)
    return calls


def reference_walk(problem):
    """The walk as a ``(head, *tail)`` double loop: the order of its labellings,
    the tied optima in that order and the best score."""
    evaluate = make_evaluator(problem)
    heads = [1] if label_symmetric(problem) else range(1, problem.v + 1)
    order = [(head, *tail) for head in heads
             for tail in itertools.product(range(1, problem.v + 1), repeat=problem.n - 1)]
    scored = [(assignment, evaluate(assignment)) for assignment in order]
    scored = [(assignment, result) for assignment, result in scored if result is not None]
    best = max(result[0] for _, result in scored)
    floor = best - search_module.TIE_RTOL * abs(best)
    optima = tuple(assignment for assignment, result in scored if result[0] >= floor)
    first = next(result for _, result in scored if result[0] == best)
    return order, optima, first


class TestWalk:
    def test_one_evaluation_per_labelling_in_the_order_of_the_double_loop(
            self, monkeypatch, contrasts3, control_system):
        symmetric = set()
        for problem in walk_problems(contrasts3, control_system):
            order, optima, (value, spectrum) = reference_walk(problem)
            symmetric.add((problem.nuisance_kind, label_symmetric(problem)))
            calls = counting_evaluators(monkeypatch)
            result = enumerate_optimal(problem)
            monkeypatch.undo()
            assert len(calls) == enumeration_size(problem) == len(order)
            assert calls == order
            assert result.optimal_assignments == optima
            assert same_bits((result.best_value.value, result.best_value.spectrum_used),
                             (value, spectrum))
        assert symmetric == set(itertools.product(("intercept", "blocks", "explicit"),
                                                  (False, True)))

    def test_the_benchmark_search_evaluates_each_of_its_4_to_the_8_labellings(
            self, monkeypatch):
        # v = 4 in blocks (3, 3, 3), pairwise contrasts, A: the enum-blocks workload
        problem = SearchProblem(v=4, n=9, criterion="A", target=EstimableSystem(pairwise(4)),
                                space=estimation_space("contrasts", 4),
                                nuisance_kind="blocks", block_sizes=(3, 3, 3))
        calls = counting_evaluators(monkeypatch)
        result = enumerate_optimal(problem)
        assert len(calls) == enumeration_size(problem) == 4**8
        assert len(result.optimal_assignments) == 1296
        assert result.best_value.value == pytest.approx(20.0 / 21.0, rel=1e-12)


class TestExchange:
    def test_matches_enumeration_on_random_problems(self):
        checked = 0
        index = 0
        while checked < 50:
            index += 1
            rng = np.random.default_rng(700 + index)
            spec, space, target = random_instance(rng, "theorem3")
            if spec.v ** spec.n > 10_000:
                continue
            problem = SearchProblem(
                v=spec.v, n=spec.n, criterion="DAE"[checked % 3], target=target,
                space=space, nuisance_kind=spec.nuisance_kind,
                block_sizes=spec.block_sizes, seed=checked, restarts=20, max_passes=100,
            )
            exact = enumerate_optimal(problem)
            heuristic = exchange_search(problem)
            gap = abs(exact.best_value.value - heuristic.best_value.value)
            assert gap <= 1e-9 * max(1.0, abs(exact.best_value.value))
            checked += 1

    def test_matches_the_sequential_reference(self):
        problems = [replace(problem, seed=i, restarts=1)
                    for i, problem in enumerate(scorer_problems(60))]
        assert len(matching_the_sequential_reference(
            problems + [trend_problem(restarts=2)])) > 50

    @pytest.mark.parametrize("max_passes, limit", [(1, search_module.SCORE_CACHE_LIMIT),
                                                   (2, 7),
                                                   (100, search_module.SCORE_CACHE_LIMIT)])
    def test_lockstep_restarts_match_the_sequential_reference(self, monkeypatch,
                                                              max_passes, limit):
        # restarts retire on different passes, so the stacks narrow as they go;
        # a small memo limit empties the memo, or skips it, mid-search
        monkeypatch.setattr(search_module, "SCORE_CACHE_LIMIT", limit)
        problems = [replace(problem, seed=i, restarts=4 + i % 2, max_passes=max_passes)
                    for i, problem in enumerate(scorer_problems(60)[1::5])]
        results = matching_the_sequential_reference(problems)
        assert len(results) == len(problems)
        assert {result.best_design.nuisance_kind for result in results} == {
            "intercept", "blocks", "explicit"}
        if max_passes > 1:
            assert sum(len({r.passes for r in result.restarts}) > 1 for result in results) >= 3

    def test_converged_restarts_stop_scoring(self, monkeypatch):
        # a restart whose last improvement is visit k (1-based, across
        # passes) sweeps until visit k + n - 1 completes a cycle of units
        # known to hold no improvement; one that never improves sweeps once
        problems = [problem for problem in scorer_problems(60)[::4]
                    if not search_module._keeps_scores(problem)]
        checked = set()
        for problem in problems:
            try:
                visits = improving_visits(replace(problem, restarts=7))
            except FeasibilityError:
                continue
            for restarts, max_passes in itertools.product((1, 4, 7), (1, 2, 3, 100)):
                sweeps = []
                for improving in visits[:restarts]:
                    last = max([k for k in improving if k <= max_passes * problem.n],
                               default=0)
                    sweeps.append(min(last + problem.n - 1, max_passes * problem.n)
                                  if last else problem.n)
                    checked.add((restarts, max_passes, last > 0))
                result, stacks = move_stacks(monkeypatch, replace(
                    problem, restarts=restarts, max_passes=max_passes))
                assert stacks == [(problem.v - 1) * sum(s >= visit for s in sweeps)
                                  for visit in range(1, max(sweeps) + 1)]
                assert [r.improving_moves for r in result.restarts] == [
                    sum(k <= max_passes * problem.n for k in improving)
                    for improving in visits[:restarts]]
        # every setting, with restarts that improve and restarts that never do
        assert {key[:2] for key in checked} == set(itertools.product((1, 4, 7),
                                                                     (1, 2, 3, 100)))
        assert {(7, 100, False), (7, 100, True)} <= checked

    @pytest.mark.parametrize("max_passes", [1, 2, 100])
    def test_last_improvement_at_the_ends_of_a_sweep_matches_the_reference(self,
                                                                            max_passes):
        # restarts whose last improvement falls at unit n - 1, at unit 0, and
        # (under a cap the search reaches) inside the last pass allowed
        wanted = {"unit n-1", "unit 0"} | ({"last pass"} if max_passes < 100 else set())
        found, problems = set(), []
        for seed, problem in enumerate(scorer_problems(60)):
            problem = replace(problem, seed=seed, restarts=4, max_passes=max_passes)
            try:
                visits = improving_visits(problem)
            except FeasibilityError:
                continue
            lasts = [improving[-1] for improving in visits if improving]
            cases = ({"unit n-1" for k in lasts if k % problem.n == 0}
                     | {"unit 0" for k in lasts if k % problem.n == 1}
                     | {"last pass" for k in lasts
                        if k > (max_passes - 1) * problem.n})
            if cases - found:
                found |= cases
                problems.append(problem)
            if wanted <= found:
                break
        assert wanted <= found
        assert len(matching_the_sequential_reference(problems)) == len(problems)

    def test_explicit_nuisance_residual_is_built_once_per_search(self, monkeypatch):
        import wdesign.model as model_module

        built = []
        residual = model_module._residual

        def counting(spec):
            built.append(spec.n)
            return residual(spec)

        monkeypatch.setattr(model_module, "_residual", counting)
        problem = trend_problem(restarts=3)
        exchange_search(problem)
        assert built == [problem.n]

    def test_a_single_treatment_has_no_moves(self):
        problem = SearchProblem(v=1, n=3, criterion="A", target=EstimableSystem(np.ones(1)),
                                space=estimation_space("full", 1), nuisance_kind="explicit",
                                L=[[1], [0], [0]], restarts=3)
        result = exchange_search(problem)
        assert result.best_design.assignment == (1, 1, 1)
        assert [(r.passes, r.improving_moves, r.moves_scored) for r in result.restarts] == [
            (1, 0, 0)] * 3

    def test_restart_statistics(self, contrasts3):
        pairs = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        blocks = SearchProblem(v=3, n=40, criterion="A", target=EstimableSystem(pairs),
                               space=contrasts3, nuisance_kind="blocks",
                               block_sizes=(10, 10, 10, 10), seed=2, restarts=3)
        capped = replace(trend_problem(restarts=4), max_passes=1)
        for problem in (trend_problem(restarts=4), capped, blocks):
            result = exchange_search(problem)
            assert len(result.restarts) == problem.restarts
            assert [r.final_value for r in result.restarts] == list(result.trace)
            for r in result.restarts:
                assert 1 <= r.passes <= problem.max_passes
                assert r.moves_scored == r.passes * problem.n * (problem.v - 1)
                # every pass but the last accepted a move
                assert r.passes - 1 <= r.improving_moves
                assert r.final_value >= r.start_value
                assert (r.final_value > r.start_value) == (r.improving_moves > 0)
        assert any(r.improving_moves > 0 for r in exchange_search(capped).restarts)

    def test_starts_where_random_draws_fail(self):
        # v = 8, n = 8 under an intercept: only a design with every treatment
        # once estimates these targets, and uniform draws rarely hit one
        for seed, kind in ((751, "theorem3"), (773, "theorem3"), (990, "aopt")):
            spec, space, target = random_instance(np.random.default_rng(seed), kind)
            problem = SearchProblem(v=spec.v, n=spec.n, criterion="A", target=target,
                                    space=space, nuisance_kind=spec.nuisance_kind,
                                    block_sizes=spec.block_sizes, seed=51, restarts=5)
            result = exchange_search(problem)
            assert sorted(result.best_design.assignment) == list(range(1, problem.v + 1))
            scored = make_evaluator(problem)(result.best_design.assignment)
            assert same_bits(scored, (result.best_value.value, result.best_value.spectrum_used))

    def test_covering_start_spreads_the_treatments_over_the_blocks(self):
        problem = SearchProblem(v=4, n=11, criterion="A",
                                target=EstimableSystem(contrast(4, 1, 2)),
                                space=estimation_space("contrasts", 4),
                                nuisance_kind="blocks", block_sizes=(5, 3, 3))
        tried = []

        def evaluate(assignment):
            tried.append(assignment)
            return None if len(tried) <= 1000 else (1.0, np.ones(1))

        start, _ = search_module._start(problem, np.random.default_rng(0), evaluate)
        assert len(tried) == 1001
        assert tuple(start) == tried[-1]
        # a block as large as v holds every treatment; smaller blocks cycle
        # on, each sharing one treatment with the block before it
        assert start[:4] == [1, 2, 3, 4]
        assert start[5:8] == [4, 1, 2]
        assert start[8:] == [2, 3, 4]

    def test_deterministic_given_seed(self, single_contrast_problem):
        a = exchange_search(single_contrast_problem)
        b = exchange_search(single_contrast_problem)
        assert a.trace == b.trace
        assert a.best_design.assignment == b.best_design.assignment
        assert len(a.trace) == single_contrast_problem.restarts

    def test_resolvable_block_layout(self):
        v = 4
        pairs = np.column_stack([contrast(v, i, j)
                                 for i in range(1, v + 1) for j in range(i + 1, v + 1)])
        problem = SearchProblem(v=v, n=12, criterion="A",
                                target=EstimableSystem(pairs),
                                space=estimation_space("contrasts", v),
                                nuisance_kind="blocks", block_sizes=(4, 4, 4),
                                seed=11, restarts=8, max_passes=60)
        # oracle: every block a complete replicate
        resolvable = DesignSpec(v, (1, 2, 3, 4) * 3, "blocks", (4, 4, 4))
        n = info_matrix_for_system(information_matrix(resolvable), problem.target)
        oracle = value_from_positive_spectrum("A", eig_sym(n).positive())
        result = exchange_search(problem)
        assert result.best_value.value == pytest.approx(oracle, rel=1e-9)
        np.testing.assert_array_equal(result.best_design.replications(), [3, 3, 3, 3])

    def test_result_is_a_local_optimum(self, single_contrast_problem):
        result = exchange_search(single_contrast_problem)
        evaluate = make_evaluator(single_contrast_problem)
        best = list(result.best_design.assignment)
        value = evaluate(tuple(best))[0]
        for unit in range(single_contrast_problem.n):
            for treatment in range(1, single_contrast_problem.v + 1):
                if treatment == best[unit]:
                    continue
                candidate = best.copy()
                candidate[unit] = treatment
                scored = evaluate(tuple(candidate))
                assert scored is None or scored[0] <= value + 1e-12

    def test_never_below_its_first_feasible_start(self, single_contrast_problem):
        result = exchange_search(single_contrast_problem)
        evaluate = make_evaluator(single_contrast_problem)
        child = np.random.SeedSequence(single_contrast_problem.seed).spawn(
            single_contrast_problem.restarts)[0]
        rng = np.random.default_rng(child)
        for _ in range(1000):
            cand = tuple(int(t) for t in rng.integers(
                1, single_contrast_problem.v + 1, size=single_contrast_problem.n))
            scored = evaluate(cand)
            if scored is not None:
                assert result.best_value.value >= scored[0] - 1e-12
                break

    def test_infeasible_start_raises(self):
        problem = SearchProblem(v=2, n=1, criterion="A",
                                target=EstimableSystem(contrast(2, 1, 2)),
                                space=estimation_space("contrasts", 2))
        with pytest.raises(FeasibilityError, match="1000"):
            exchange_search(problem)


class TestArgmaxEquivalence:
    def test_control_system_both_scalings(self, control_system, contrasts3):
        for b in (None, [1.0, 2.0]):
            target = EstimableSystem(control_system.Q, b)
            problem = SearchProblem(v=3, n=5, criterion="A", target=target, space=contrasts3)
            report = argmax_equivalence_check(problem)
            assert report.passed

    def test_single_contrast_routes_coincide(self, contrasts3, q1):
        problem = SearchProblem(v=3, n=4, criterion="E",
                                target=EstimableSystem(q1), space=contrasts3)
        report = argmax_equivalence_check(problem)
        assert report.passed
        assert report.value_system_route == pytest.approx(report.value_weighted_route)

    def test_weight_matrix_target(self, contrasts3, control_system):
        from wdesign import weight_matrix_from_system

        w = weight_matrix_from_system(control_system, contrasts3)
        problem = SearchProblem(v=3, n=4, criterion="D", target=w, space=contrasts3)
        assert argmax_equivalence_check(problem).passed

    def test_argmax_matches_brute_force(self, contrasts3, control_system):
        problem = SearchProblem(v=3, n=4, criterion="A",
                                target=control_system, space=contrasts3)
        result = enumerate_optimal(problem)
        best, argmax = brute_force_best(problem)
        assert result.best_value.value == pytest.approx(best, rel=1e-12)
        assert set(result.optimal_assignments) == set(argmax)


class TestExtensionPoint:
    def test_a_registered_criterion_reaches_evaluation_and_enumeration(
            self, monkeypatch, contrasts3, control_system):
        # the arithmetic mean of each positive spectrum of a stack
        monkeypatch.setitem(POSITIVE_SPECTRUM_CRITERIA, "M",
                            lambda ascending: np.add.reduce(ascending, axis=1) / ascending.shape[1])
        assert value_from_positive_spectrum("M", [1.0, 4.0, 1.0]) == 2.0
        problem = SearchProblem(v=3, n=5, criterion="M", target=control_system,
                                space=contrasts3)
        values = {}
        for assignment in itertools.product(range(1, 4), repeat=5):
            try:
                n = info_matrix_for_system(problem.template(assignment), control_system)
            except FeasibilityError:
                continue
            spectrum = criterion_value(n, "M").spectrum_used
            values[assignment] = float(np.mean(spectrum))
        best = max(values.values())
        result = enumerate_optimal(problem)
        assert result.best_value.value == pytest.approx(best, rel=1e-12)
        assert set(result.optimal_assignments) == {
            assignment for assignment, value in values.items() if value >= best * (1 - 1e-9)}
        assert 0 < len(result.optimal_assignments) < len(values)


class TestScaleFreeTies:
    def test_tie_set_does_not_depend_on_the_scale_of_the_weights(self):
        # scaling b by c scales N_Q by 1/c, so neither the optimal set nor the
        # agreement of the two routes may change
        q = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])
        b = np.array([0.5, 1.0, 2.0])
        results = {}
        for c in (1e-10, 1.0, 1e10):
            problem = SearchProblem(v=3, n=6, criterion="A", target=EstimableSystem(q, c * b),
                                    space=estimation_space("contrasts", 3),
                                    nuisance_kind="blocks", block_sizes=(3, 3))
            results[c] = set(enumerate_optimal(problem).optimal_assignments)
            assert argmax_equivalence_check(problem).passed
        assert results[1e-10] == results[1.0] == results[1e10]
        assert len(results[1.0]) < enumeration_size(problem)

    def test_tie_set_does_not_depend_on_a_power_of_two_scale_of_q(self):
        # Q -> 2^k Q scales every A value by exactly 2^-2k; with the pairwise
        # system of v=4 in blocks (3, 3, 3) the best value runs from 1e24 to
        # 1e-121, far below machine epsilon, and the tie set must not move
        pairs = np.column_stack([contrast(4, i, j) for i in range(1, 5) for j in range(i + 1, 5)])

        def problem(k):
            return SearchProblem(v=4, n=9, criterion="A", target=EstimableSystem(2.0**k * pairs),
                                 space=estimation_space("contrasts", 4),
                                 nuisance_kind="blocks", block_sizes=(3, 3, 3))

        ties = {k: set(enumerate_optimal(problem(k)).optimal_assignments)
                for k in (0, -40, 40, 200)}
        report = argmax_equivalence_check(problem(100))
        assert report.passed
        assert len(report.optima_system_route) == len(report.optima_weighted_route) == 1296
        ties[100] = set(report.optima_system_route)
        assert len(ties[0]) == 1296
        assert all(tied == ties[0] for tied in ties.values())


    def test_label_symmetry_does_not_depend_on_the_scale_of_the_weights(self):
        # b_3 sits 1e-9 above the others, so swapping treatments changes W at
        # every scale; a floor at eps called it symmetric from 2^-64 down
        q = np.column_stack([contrast(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))])

        def outcome(k):
            system = EstimableSystem(q, 2.0**k * np.array([1.0, 1.0, 1.0 + 1e-9]))
            problem = SearchProblem(v=3, n=5, criterion="A", target=system,
                                    space=estimation_space("contrasts", 3))
            return label_symmetric(problem), len(enumerate_optimal(problem).optimal_assignments)

        assert outcome(0) == (False, 90)
        assert all(outcome(k) == outcome(0) for k in (-64, -70, 100))


class TestEquivariance:
    def test_relabeling_permutes_the_argmax_set(self, contrasts3, control_system):
        base = SearchProblem(v=3, n=4, criterion="E",
                             target=control_system, space=contrasts3)
        result = enumerate_optimal(base)
        perm = np.array([1, 0, 2])  # swap treatments 1 and 2
        p = np.eye(3)[perm]
        permuted = SearchProblem(v=3, n=4, criterion="E",
                                 target=EstimableSystem(p @ control_system.Q),
                                 space=contrasts3)
        mapped = {tuple(int(perm[t - 1]) + 1 for t in a) for a in result.optimal_assignments}
        assert mapped == set(enumerate_optimal(permuted).optimal_assignments)


class TestProblemValidation:
    def test_target_outside_space_rejected(self):
        with pytest.raises(SpaceError):
            SearchProblem(v=3, n=4, criterion="A",
                          target=EstimableSystem(np.array([1.0, 0.0, 0.0])),
                          space=estimation_space("contrasts", 3))

    def test_a_weight_target_checked_in_another_space_is_rejected(self, full3, contrasts3):
        # the span test is the problem's own: a W checked in the full space
        # fails it at construction, not after the whole enumeration
        w = make_weight_matrix(np.eye(3), full3)
        with pytest.raises(SpaceError):
            SearchProblem(v=3, n=4, criterion="A", target=w, space=contrasts3)

    def test_a_rank_zero_target_is_rejected(self, contrasts3):
        # W = Q~Q~' of this system is subnormal, below the rank cutoff's
        # floor; without the check every assignment would tie at value 0
        system = EstimableSystem(1e-160 * (np.eye(3)[0] - np.eye(3)[1]))
        assert system.r == 0
        with pytest.raises(DomainError, match="rank zero"):
            SearchProblem(v=3, n=6, criterion="A", target=system, space=contrasts3)

    def test_unknown_criterion_rejected(self, contrasts3, q1):
        with pytest.raises(ValueError):
            SearchProblem(v=3, n=4, criterion="Z",
                          target=EstimableSystem(q1), space=contrasts3)

    def test_scaling_the_weight_matrix_preserves_the_argmax(self, contrasts3, control_system):
        from wdesign import make_weight_matrix, weight_matrix_from_system

        w = weight_matrix_from_system(control_system, contrasts3)
        scaled = make_weight_matrix(5.0 * w.matrix.entries, contrasts3)
        base = enumerate_optimal(SearchProblem(v=3, n=4, criterion="E",
                                               target=w, space=contrasts3))
        alt = enumerate_optimal(SearchProblem(v=3, n=4, criterion="E",
                                              target=scaled, space=contrasts3))
        assert set(base.optimal_assignments) == set(alt.optimal_assignments)
