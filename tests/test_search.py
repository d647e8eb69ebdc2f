"""Exhaustive enumeration, exchange ascent, and the two-route argmax check."""

import itertools
import math

import numpy as np
import pytest

from conftest import contrast
from wdesign import (
    DesignSpec,
    EstimableSystem,
    SearchProblem,
    argmax_equivalence_check,
    enumerate_optimal,
    estimation_space,
    exchange_search,
    info_matrix_for_system,
    information_matrix,
    value_from_positive_spectrum,
    eig_sym,
)
import wdesign.search as search_module
from wdesign.errors import FeasibilityError, SearchSpaceError, SpaceError
from wdesign.estimable import scale_system
from wdesign.instances import random_instance
from wdesign.linalg import DERIVED_RANK_RTOL, EPS, SYMMETRY_RTOL, max_abs, projector
from wdesign.model import FEASIBILITY_RTOL, design_matrix
from wdesign.search import ENUMERATION_LIMIT, enumeration_size, label_symmetric, make_evaluator


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
        elif abs(value - best) <= 1e-9 * max(1.0, abs(best)):
            argmax.append(assignment)
    return best, argmax


def reference_evaluator(problem):
    """The scorer chain as it stood before the scorer cache.

    Every product goes through the checks and the double symmetrization of
    ``symmetrized`` and through the eigendecomposition of ``eig_sym``; both
    are written out here so that a change in the library cannot reach them.
    """

    def symmetrized(a):
        a = np.array(0.5 * (a + a.T), dtype=float)
        assert np.all(np.isfinite(a))
        assert max_abs(a - a.T) <= SYMMETRY_RTOL * max_abs(a)
        return 0.5 * (a + a.T)

    def eig_sym(a):
        w, s = np.linalg.eigh(a)
        w = w[::-1].copy()
        s = s[:, ::-1].copy()
        cutoff = DERIVED_RANK_RTOL * max(float(np.max(np.abs(w))), EPS)
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
            return None
        cplus = (f / positive) @ f.T
        pos, _ = eig_sym(symmetrized(qs.T @ cplus @ qs))
        if pos.size != rank_needed:
            return None
        spectrum = 1.0 / pos[::-1]
        return value_from_positive_spectrum(problem.criterion, spectrum), spectrum

    return evaluate


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
        monkeypatch.setattr(search_module, "ENUMERATION_LIMIT", problem.v ** (problem.n - 1) - 1)
        evaluate = make_evaluator(problem)
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

    def test_deterministic_given_seed(self, single_contrast_problem):
        a = exchange_search(single_contrast_problem)
        b = exchange_search(single_contrast_problem)
        assert a.trace == b.trace
        assert a.best_design == b.best_design
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
