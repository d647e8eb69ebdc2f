"""Design matrices, information matrices, estimation spaces, feasibility."""

import numpy as np
import pytest

from conftest import contrast
from wdesign import (
    DesignSpec,
    design_matrix,
    eig_sym,
    estimation_space,
    infeasible_columns,
    information_matrix,
)
from wdesign import model
from wdesign.errors import SpaceError
from wdesign.linalg import SymMatrix, SymStack, pinv, projector, symmetrized


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

    def test_explicit_l_does_not_depend_on_the_scale_of_its_columns(self):
        # the column norms of L overflowed at 1e300 and underflowed at
        # 1e-200, and either dropped the nuisance from C
        L = np.random.default_rng(13).standard_normal((8, 2))

        def info(ell):
            return information_matrix(DesignSpec(3, (1, 2, 3, 1, 2, 3, 1, 2), "explicit",
                                                 L=ell)).entries

        base = info(L)
        for j in (-1000, -700, 700, 1000):
            assert info(np.ldexp(L, j)).tobytes() == base.tobytes()
        for scale in (1e-300, 1e-200, 1e200, 1e300, np.array([1e300, 1e-300])):
            np.testing.assert_allclose(info(scale * L), base, rtol=1e-12, atol=1e-12)

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


def random_specs(rng, count):
    """Designs with an intercept, blocks or an explicit L, in turn."""
    specs = []
    for i in range(count):
        v = int(rng.integers(2, 6))
        n = int(rng.integers(v + 1, 13))
        assignment = tuple(int(t) for t in rng.integers(1, v + 1, size=n))
        kind = ("intercept", "blocks", "explicit")[i % 3]
        if kind == "blocks":
            cut = int(rng.integers(1, n))
            specs.append(DesignSpec(v, assignment, kind, (cut, n - cut)))
        elif kind == "explicit":
            specs.append(DesignSpec(v, assignment, kind,
                                    L=rng.standard_normal((n, int(rng.integers(1, 3))))))
        else:
            specs.append(DesignSpec(v, assignment))
    return specs


class TestNuisanceResidual:
    def test_bit_identical_to_the_uncached_projector_route(self):
        rng = np.random.default_rng(41)
        specs = random_specs(rng, 30)
        for spec in specs + [DesignSpec(s.v, s.assignment[::-1], s.nuisance_kind,
                                        s.block_sizes, s.L) for s in specs]:
            x, ell = design_matrix(spec)
            expected = symmetrized(x.T @ (np.eye(spec.n) - projector(ell).entries) @ x)
            assert information_matrix(spec).entries.tobytes() == expected.entries.tobytes()
        # the closed form of I - P_L: an intercept, blocks with some of size 1,
        # and equal blocks, where the eigenvalues of B'B are degenerate
        residual_specs = [DesignSpec(1, (1,) * n) for n in range(1, 61)]
        for _ in range(20):
            sizes = tuple(int(s) for s in rng.choice([1, 1, 2, 3, 5], size=rng.integers(1, 9)))
            residual_specs.append(DesignSpec(1, (1,) * sum(sizes), "blocks", sizes))
        residual_specs.append(DesignSpec(1, (1,) * 360, "blocks", (30,) * 12))
        for spec in residual_specs:
            expected = np.eye(spec.n) - projector(design_matrix(spec)[1]).entries
            assert model.nuisance_residual(spec).tobytes() == expected.tobytes()


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

    def test_explicit_does_not_depend_on_the_scale_of_the_basis_columns(self):
        # a spread of 1e8 squares past the rank cutoff of B'B unless the
        # columns are scaled first
        rng = np.random.default_rng(7)
        for _ in range(5):
            basis = rng.standard_normal((5, 2))
            base = estimation_space("explicit", 5, basis)
            scaled = estimation_space("explicit", 5, basis * [1e-4, 1e4])
            np.testing.assert_allclose(scaled.projector.entries, base.projector.entries,
                                       rtol=0, atol=1e-12)
            assert scaled.dim == 2 and scaled.contains(basis)

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

    def test_the_verdict_does_not_depend_on_the_scale_of_q(self):
        # q' C^+ q of a q near 1e300 overflowed, though the verdict ignores it
        spec = DesignSpec.from_replications(3, [2, 2, 2])
        q = np.column_stack([contrast(3, 1, 2), np.ones(3)])
        for scale in (1e-300, 1.0, 1e300):
            assert infeasible_columns(spec, scale * q) == (1,)

    def test_estimable_forms_rows_match_their_one_row_stacks_pinv_and_verdicts(self):
        rng = np.random.default_rng(4)

        def psd(rank):
            g = rng.standard_normal((5, rank))
            return SymMatrix(g @ g.T)

        mats = [psd(rank) for rank in (2, 5, 2, 3, 5, 2, 3)]
        stack = SymStack.of(mats)
        assert len(set(stack.spectrum[2])) == 3
        # rows 0-4 keep their columns inside the span of their matrix; rows 5
        # and 6, of ranks 2 and 3, each move one column out of it
        qs = np.stack([m.entries @ rng.standard_normal((5, 3)) for m in mats])
        qs[5, :, 1] = rng.standard_normal(5)
        qs[6, :, 0] = rng.standard_normal(5)
        bad, forms = model.estimable_forms(stack, qs)
        per_bad, per_vector = model.estimable_forms(stack, qs.transpose(0, 2, 1)[:, :, :, None])
        assert bad.shape == (7, 3) and per_bad.shape == (7, 3, 1)
        assert per_vector.shape == (7, 3, 1, 1)
        assert model.first_infeasible(bad) == (1,)
        for i, m in enumerate(mats):
            one_bad, one_form = model.estimable_forms(SymStack.of([m]), qs[i][None])
            assert forms[i].tobytes() == one_form[0].tobytes()
            assert bad[i].tolist() == one_bad[0].tolist()
            columns = infeasible_columns(m, qs[i])
            assert columns == {5: (1,), 6: (0,)}.get(i, ())
            assert tuple(np.flatnonzero(bad[i]).tolist()) == columns
            for j in range(3):
                assert bool(per_bad[i, j, 0]) == bool(infeasible_columns(m, qs[i, :, j]))
            # outside the span too, the form is q' A^+ q, and finite
            expected = qs[i].T @ pinv(m).entries @ qs[i]
            np.testing.assert_allclose(forms[i], expected, rtol=1e-8,
                                       atol=1e-10 * np.abs(expected).max())
            np.testing.assert_allclose(per_vector[i].ravel(), np.diag(forms[i]), rtol=1e-12)


class TestCompetingDesignsCheck:
    def test_accepts_connected(self):
        spec = DesignSpec.from_replications(3, [2, 2, 2])
        model.check_estimation_spaces(SymStack.of([information_matrix(spec)]),
                                      [estimation_space("contrasts", 3)])

    def test_rejects_disconnected(self):
        spec = DesignSpec(3, (1, 2, 1, 2))
        with pytest.raises(SpaceError):
            model.check_estimation_spaces(SymStack.of([information_matrix(spec)]),
                                          [estimation_space("contrasts", 3)])
