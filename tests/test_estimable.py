"""Systems of estimable functions and their information matrices."""

import numpy as np
import pytest

from conftest import contrast, generalized_inverse_sample
from wdesign import (
    DesignSpec,
    EstimableSystem,
    SearchProblem,
    argmax_equivalence_check,
    certify_theorem1,
    eig_sym,
    enumerate_optimal,
    estimation_space,
    info_matrix_for_system,
    information_matrix,
    pinv,
    scale_system,
    system_from_weight_matrix_R,
    system_from_weight_matrix_sqrt,
    weight_matrix_from_system,
)
from wdesign.errors import FeasibilityError, RankError, SingularWeightError
from wdesign.linalg import SymMatrix, symmetrized


class TestEstimableSystem:
    def test_rank_and_normalized(self, q1):
        sys = EstimableSystem(np.column_stack([q1, q1]))
        assert sys.r == 1 and sys.s == 2
        assert sys.normalized

    def test_r_is_the_rank_of_the_systems_own_w(self, control_system, q1):
        for system in (control_system, EstimableSystem(np.column_stack([q1, q1]), [1.0, 3.0])):
            qs = scale_system(system)
            assert np.array_equal(system.W.entries, 0.5 * (qs @ qs.T + (qs @ qs.T).T))
            assert system.r == eig_sym(system.W).numeric_rank
        assert "W=" not in repr(control_system)

    def test_vector_promoted_to_column(self, q1):
        assert EstimableSystem(q1).Q.shape == (3, 1)

    def test_rejects_nonpositive_weights(self, q1):
        with pytest.raises(ValueError):
            EstimableSystem(q1, [0.0])
        with pytest.raises(ValueError):
            EstimableSystem(q1, [1.0, 2.0])

    def test_scaled_span_unchanged(self, control_system):
        scaled = scale_system(EstimableSystem(control_system.Q, [1.0, 2.0]))
        base = control_system.Q
        assert np.linalg.matrix_rank(np.column_stack([scaled, base])) == 2


def _near_rank_one_systems():
    """Two contrast systems of v=3 whose ``Q~ Q~'`` has an eigenvalue below
    1e-12 of its largest, while both singular values of ``Q~`` are far above
    ``eps`` times the largest."""
    e = np.eye(3)
    nearly_parallel = np.column_stack([e[1] - e[0], e[1] - e[0] + 1e-6 * (e[2] - e[0])])
    return {
        "nearly-parallel": EstimableSystem(nearly_parallel),
        "tiny-weight": EstimableSystem(np.column_stack([contrast(3, 1, 2), contrast(3, 1, 3)]),
                                       [1.0, 1e-13]),
    }


NEAR_RANK_ONE = _near_rank_one_systems()


class TestRankIsTheRankOfTheWeightMatrix:
    @pytest.mark.parametrize("name", NEAR_RANK_ONE)
    def test_rank_search_and_theorem1_agree(self, name, contrasts3, balanced_design):
        system = NEAR_RANK_ONE[name]
        assert system.r == weight_matrix_from_system(system, contrasts3).d == 1
        problem = SearchProblem(v=3, n=4, criterion="A", target=system, space=contrasts3)
        assert enumerate_optimal(problem).best_value.rank_used == 1
        with pytest.raises(RankError):
            certify_theorem1(balanced_design, system, contrasts3)

    def test_both_routes_find_one_argmax(self, contrasts3):
        problem = SearchProblem(v=3, n=4, criterion="A", target=NEAR_RANK_ONE["nearly-parallel"],
                                space=contrasts3)
        assert argmax_equivalence_check(problem).passed


class TestSystemInEstimationSpace:
    def test_control_contrasts_in_contrast_space(self, control_system, contrasts3):
        assert contrasts3.contains(control_system.Q)

    def test_basis_vector_not_a_contrast(self, contrasts3):
        assert not contrasts3.contains(EstimableSystem(np.array([1.0, 0.0, 0.0])).Q)

    def test_everything_valid_in_full_space(self, full3):
        rng = np.random.default_rng(13)
        assert full3.contains(EstimableSystem(rng.standard_normal((3, 2))).Q)


class TestScaleSystem:
    def test_unit_weights_change_nothing(self, control_system):
        np.testing.assert_array_equal(scale_system(control_system), control_system.Q)

    def test_doubled_weight_scales_by_sqrt2(self, control_system):
        scaled = scale_system(EstimableSystem(control_system.Q, [1.0, 2.0]))
        np.testing.assert_allclose(scaled[:, 0], control_system.Q[:, 0])
        np.testing.assert_allclose(scaled[:, 1], np.sqrt(2.0) * control_system.Q[:, 1])

    def test_single_column(self, q1):
        np.testing.assert_allclose(scale_system(EstimableSystem(q1, [4.0])), 2.0 * q1[:, None])


class TestInfoMatrixForSystem:
    def test_identity_system_recovers_full_rank_information(self):
        # nuisance orthogonal to the treatment columns keeps C nonsingular
        rng = np.random.default_rng(14)
        ell = rng.standard_normal((6, 1))
        spec = DesignSpec(3, (1, 1, 2, 2, 3, 3), "explicit", L=ell)
        c = information_matrix(spec)
        assert eig_sym(c).numeric_rank == 3
        n = info_matrix_for_system(spec, EstimableSystem(np.eye(3)))
        np.testing.assert_allclose(n.entries, c.entries, atol=1e-9)

    def test_single_contrast_oracle(self, balanced_design, q1):
        # oracle: C^+ = (I - J/3) / 2 for the balanced design, so q'C^+q = 1/2
        cplus = (np.eye(3) - np.ones((3, 3)) / 3) / 2
        expected = 1.0 / float(q1 @ cplus @ q1)
        n = info_matrix_for_system(balanced_design, EstimableSystem(q1))
        np.testing.assert_allclose(n.entries, [[expected]], atol=1e-12)
        assert expected == pytest.approx(2.0)

    def test_generalized_inverse_choice_does_not_matter(self, balanced_design, control_system):
        rng = np.random.default_rng(15)
        c = information_matrix(balanced_design)
        qs = scale_system(control_system)
        baseline = info_matrix_for_system(c, control_system).entries
        for _ in range(10):
            g = generalized_inverse_sample(c, rng)
            alt = pinv(symmetrized(qs.T @ g @ qs)).entries
            assert np.max(np.abs(alt - baseline)) <= 1e-9

    def test_infeasible_names_columns(self, q1, q3):
        spec = DesignSpec(3, (1, 2, 1, 2))
        with pytest.raises(FeasibilityError) as err:
            info_matrix_for_system(spec, EstimableSystem(np.column_stack([q1, q3])))
        assert err.value.columns == (1,)

    def test_rank_matches_system_rank(self, balanced_design, q1, q2):
        deficient = EstimableSystem(np.column_stack([q1, q2, q1 + q2]))
        n = info_matrix_for_system(balanced_design, deficient)
        assert eig_sym(n).numeric_rank == deficient.r == 2

    def test_single_function_scaling(self, balanced_design, q1):
        # N for sqrt(b) q is N for q divided by b
        base = info_matrix_for_system(balanced_design, EstimableSystem(q1)).entries
        scaled = info_matrix_for_system(balanced_design, EstimableSystem(q1, [4.0])).entries
        np.testing.assert_allclose(scaled, base / 4.0, atol=1e-12)

    def test_more_replicates_never_lose_information(self, q1, q2):
        system = EstimableSystem(np.column_stack([q1, q2]))
        rng = np.random.default_rng(16)
        for _ in range(20):
            reps = rng.integers(1, 4, size=3)
            spec = DesignSpec.from_replications(3, reps)
            extra = reps.copy()
            extra[int(rng.integers(0, 3))] += 1
            bigger = DesignSpec.from_replications(3, extra)
            lam_small = eig_sym(info_matrix_for_system(spec, system)).eigenvalues
            lam_big = eig_sym(info_matrix_for_system(bigger, system)).eigenvalues
            assert np.all(lam_big - lam_small >= -1e-9)


class TestSystemFromWeightMatrixR:
    def test_identity(self, full3):
        sys = system_from_weight_matrix_R(SymMatrix(np.eye(3)), full3)
        np.testing.assert_allclose(sys.Q, np.eye(3), atol=1e-12)

    def test_homogeneous_scaling(self, full3):
        sys = system_from_weight_matrix_R(SymMatrix(2.0 * np.eye(3)), full3)
        np.testing.assert_allclose(sys.Q, np.sqrt(2.0) * np.eye(3), atol=1e-12)

    def test_r_squared_is_pinv_of_projected_inverse(self, contrasts3, control_system):
        w = np.eye(3) - contrasts3.projector.entries + control_system.Q @ control_system.Q.T
        sys = system_from_weight_matrix_R(SymMatrix(w), contrasts3)
        p = contrasts3.projector.entries
        m = symmetrized(p @ np.linalg.inv(w) @ p)
        np.testing.assert_allclose(sys.Q @ sys.Q.T, pinv(m).entries, atol=1e-10)
        assert sys.r == contrasts3.dim

    def test_singular_redirects(self, contrasts3):
        singular = SymMatrix(np.eye(3) - np.ones((3, 3)) / 3)
        with pytest.raises(SingularWeightError, match="sqrt"):
            system_from_weight_matrix_R(singular, contrasts3)


class TestSystemFromWeightMatrixSqrt:
    def test_projector_is_its_own_root(self):
        w = np.eye(3) - np.ones((3, 3)) / 3
        sys = system_from_weight_matrix_sqrt(SymMatrix(w))
        np.testing.assert_allclose(sys.Q, w, atol=1e-12)
        assert sys.r == 2

    def test_diagonal(self):
        sys = system_from_weight_matrix_sqrt(SymMatrix(np.diag([4.0, 0.0])))
        np.testing.assert_allclose(sys.Q, np.diag([2.0, 0.0]), atol=1e-12)

    def test_root_reproduces_matrix(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((4, 2))
        w = SymMatrix(g @ g.T)
        sys = system_from_weight_matrix_sqrt(w)
        assert np.max(np.abs(sys.Q @ sys.Q.T - w.entries)) <= 1e-9


def test_estimation_space_variants_agree(q3):
    explicit = estimation_space("explicit", 3, np.column_stack([contrast(3, 1, 2), q3]))
    contrasts = estimation_space("contrasts", 3)
    np.testing.assert_allclose(
        explicit.projector.entries, contrasts.projector.entries, atol=1e-12
    )
