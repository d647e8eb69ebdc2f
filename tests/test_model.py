"""Design matrices, information matrices, estimation spaces, feasibility."""

import numpy as np
import pytest

from conftest import contrast
from wdesign import (
    DesignSpec,
    check_estimation_space,
    design_matrix,
    eig_sym,
    estimation_space,
    infeasible_columns,
    information_matrix,
)
from wdesign.errors import SpaceError


class TestDesignSpec:
    def test_rejects_bad_assignment(self):
        with pytest.raises(ValueError):
            DesignSpec(2, (1, 3))
        with pytest.raises(ValueError):
            DesignSpec(2, ())

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            DesignSpec(2, (1, 2, 1), "blocks", (2, 2))
        with pytest.raises(ValueError):
            DesignSpec(2, (1, 2), "blocks", None)

    def test_replications_roundtrip(self):
        spec = DesignSpec.from_replications(3, [2, 0, 1])
        assert spec.assignment == (1, 1, 3)
        np.testing.assert_array_equal(spec.replications(), [2, 0, 1])


class TestDesignMatrix:
    def test_two_units(self):
        x, ell = design_matrix(DesignSpec(2, (1, 2)))
        np.testing.assert_array_equal(x, np.eye(2))
        np.testing.assert_array_equal(ell, np.ones((2, 1)))

    def test_column_sums_are_replications(self):
        x, _ = design_matrix(DesignSpec(3, (1, 1, 2, 2, 3, 3)))
        np.testing.assert_array_equal(x.sum(axis=0), [2, 2, 2])

    def test_block_indicators(self):
        _, ell = design_matrix(DesignSpec(3, (1, 2, 1, 3), "blocks", (2, 2)))
        np.testing.assert_array_equal(ell, [[1, 0], [1, 0], [0, 1], [0, 1]])


class TestInformationMatrix:
    def test_one_way_closed_form(self):
        # oracle: diag(r) - r r' / n for intercept-only nuisance
        rng = np.random.default_rng(10)
        for _ in range(25):
            v = int(rng.integers(2, 7))
            reps = rng.integers(1, 5, size=v)
            spec = DesignSpec.from_replications(v, reps)
            r = reps.astype(float)
            oracle = np.diag(r) - np.outer(r, r) / r.sum()
            c = information_matrix(spec).entries
            assert np.max(np.abs(c - oracle)) <= 1e-10 * max(1.0, r.sum())

    def test_equireplicated_fixture(self):
        c = information_matrix(DesignSpec.from_replications(3, [2, 2, 2])).entries
        r = np.full(3, 2.0)
        np.testing.assert_allclose(c, np.diag(r) - np.outer(r, r) / 6, atol=1e-12)

    def test_single_treatment_carries_nothing(self):
        c = information_matrix(DesignSpec(2, (1, 1))).entries
        np.testing.assert_allclose(c, np.zeros((2, 2)), atol=1e-12)

    def test_identity_nuisance_absorbs_everything(self):
        spec = DesignSpec(3, (1, 2, 3, 1), "explicit", L=np.eye(4))
        np.testing.assert_allclose(information_matrix(spec).entries, np.zeros((3, 3)), atol=1e-12)

    def test_psd_and_ones_nullspace(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            v = int(rng.integers(2, 7))
            n = int(rng.integers(v, 12))
            assignment = tuple(int(t) for t in rng.integers(1, v + 1, size=n))
            spec = DesignSpec(v, assignment)
            c = information_matrix(spec)
            s = eig_sym(c)
            assert s.eigenvalues[-1] >= -1e-9
            assert np.max(np.abs(c.entries @ np.ones(v))) <= 1e-9
            used = len(set(assignment))
            assert s.numeric_rank <= min(v - 1, used)

    def test_invariant_under_within_block_permutation(self):
        rng = np.random.default_rng(12)
        assignment = (1, 2, 3, 2, 3, 1, 1, 2)
        sizes = (3, 5)
        base = information_matrix(DesignSpec(3, assignment, "blocks", sizes)).entries
        for _ in range(10):
            first = list(assignment[:3])
            second = list(assignment[3:])
            rng.shuffle(first)
            rng.shuffle(second)
            shuffled = DesignSpec(3, tuple(first + second), "blocks", sizes)
            np.testing.assert_allclose(information_matrix(shuffled).entries, base, atol=1e-12)


class TestEstimationSpace:
    def test_contrasts(self):
        space = estimation_space("contrasts", 3)
        np.testing.assert_allclose(space.projector.entries, np.eye(3) - np.ones((3, 3)) / 3)
        assert space.dim == 2

    def test_full(self):
        space = estimation_space("full", 4)
        np.testing.assert_allclose(space.projector.entries, np.eye(4))
        assert space.dim == 4

    def test_explicit_matches_contrasts(self):
        basis = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        space = estimation_space("explicit", 3, basis)
        np.testing.assert_allclose(
            space.projector.entries, np.eye(3) - np.ones((3, 3)) / 3, atol=1e-12
        )
        assert space.dim == 2

    def test_zero_basis_column_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            estimation_space("explicit", 3, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]))


class TestFeasibility:
    def test_contrast_estimable_under_full_replication(self):
        spec = DesignSpec.from_replications(3, [2, 2, 2])
        assert infeasible_columns(spec, contrast(3, 1, 2)) == ()

    def test_unobserved_treatment(self):
        spec = DesignSpec(3, (1, 2, 1, 2))
        assert infeasible_columns(spec, contrast(3, 2, 3)) == (0,)

    def test_ones_never_estimable_with_intercept(self):
        spec = DesignSpec.from_replications(3, [2, 2, 2])
        assert infeasible_columns(spec, np.ones(3)) == (0,)


class TestCompetingDesignsCheck:
    def test_accepts_connected(self):
        spec = DesignSpec.from_replications(3, [2, 2, 2])
        check_estimation_space(spec, estimation_space("contrasts", 3))

    def test_rejects_disconnected(self):
        spec = DesignSpec(3, (1, 2, 1, 2))
        with pytest.raises(SpaceError):
            check_estimation_space(spec, estimation_space("contrasts", 3))
