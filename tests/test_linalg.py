"""Spectral kernel: decomposition, pseudoinverse, roots, factors, projectors."""

import numpy as np
import pytest
import scipy.linalg

from conftest import generalized_inverse_sample
from wdesign import (
    SymMatrix,
    eig_sym,
    make_weight_matrix,
    pinv,
    projector,
)
from wdesign.errors import DomainError, NumericalError
from wdesign.linalg import SymStack, as_sym, eigh_desc_stack, symmetrized
from wdesign.model import estimable_forms


def pinv_sqrt(a):
    """``(A^+)^{1/2}`` of one matrix: its one-row stack's ``pinv_sqrt``."""
    return SymStack.of([as_sym(a)]).pinv_sqrt().matrix(0)


def sqrt_psd(a):
    """``A^{1/2}`` of one matrix: its one-row stack's ``sqrt_psd``."""
    return SymStack.of([as_sym(a)]).sqrt_psd().matrix(0)


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank))
    return SymMatrix(g @ g.T)


class TestSymMatrix:
    def test_symmetrizes_and_freezes(self):
        a = SymMatrix([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        assert a.entries[0, 1] == a.entries[1, 0]
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix([[1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            as_sym(np.array([[1.0, 2.0], [1.0, 3.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.ones((2, 3)))


class TestSymmetrized:
    def test_bit_identical_to_the_validated_constructor(self):
        rng = np.random.default_rng(31)
        for trial in range(200):
            dim = int(rng.integers(1, 9))
            scale = 10.0 ** rng.uniform(-12, 12)
            a = scale * rng.standard_normal((dim, dim))
            if trial % 2:
                # a product that is symmetric up to roundoff, as the package forms them
                g = rng.standard_normal((dim, dim))
                a = g @ a @ a.T @ g.T
            fast = symmetrized(a)
            checked = SymMatrix(0.5 * (a + a.T))
            assert fast.entries.tobytes() == checked.entries.tobytes()
            assert fast.dim == checked.dim
            assert not fast.entries.flags.writeable
            with pytest.raises(ValueError):
                fast.entries[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        a = np.eye(3)
        a[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            symmetrized(a)

    def test_rejects_non_square_input_and_bad_tol(self):
        with pytest.raises(ValueError, match="square"):
            symmetrized(np.ones(3))


class TestEig:
    def test_identity(self):
        s = eig_sym(SymMatrix(np.eye(3)))
        np.testing.assert_allclose(s.eigenvalues, [1.0, 1.0, 1.0])
        assert s.numeric_rank == 3

    def test_diagonal(self):
        s = eig_sym(SymMatrix(np.diag([2.0, 0.0])))
        np.testing.assert_allclose(s.eigenvalues, [2.0, 0.0], atol=1e-14)
        assert s.numeric_rank == 1

    def test_control_weight_matrix_against_root_finder(self):
        # eigenvalues must match the characteristic polynomial roots computed
        # by an independent route (determinants + companion-matrix roots)
        a = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        trace = float(np.trace(a))
        minors = sum(
            float(np.linalg.det(a[np.ix_([i, j], [i, j])]))
            for i in range(3)
            for j in range(i + 1, 3)
        )
        det = float(np.linalg.det(a))
        roots = np.sort(np.roots([1.0, -trace, minors, -det]).real)[::-1]
        s = eig_sym(SymMatrix(a))
        np.testing.assert_allclose(s.eigenvalues, roots, atol=1e-12)
        np.testing.assert_allclose(s.eigenvalues, [1.5, 0.5, 0.0], atol=1e-12)
        assert s.numeric_rank == 2

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            dim = int(rng.integers(2, 13))
            a = SymMatrix(0.5 * (lambda g: g + g.T)(rng.standard_normal((dim, dim))))
            s = eig_sym(a)
            np.testing.assert_allclose(s.eigenvectors.T @ s.eigenvectors,
                                       np.eye(dim), atol=1e-10)
            rebuilt = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T
            scale = max(1.0, np.max(np.abs(a.entries)))
            assert np.max(np.abs(rebuilt - a.entries)) <= 1e-9 * scale

    def test_solver_failure_is_a_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(SymMatrix(np.eye(2)))
        with pytest.raises(NumericalError, match="did not converge"):
            eigh_desc_stack(np.eye(2)[None], 1e-12)

    def test_stack_rows_are_bit_identical_to_single_matrices(self):
        rng = np.random.default_rng(21)
        for dim in (1, 2, 4, 7):
            # ranks vary within a stack; the last two are the zero matrix and
            # an indefinite one whose eigenvalue of largest magnitude is negative
            stack = np.array([random_psd(rng, dim, rng.integers(0, dim + 1)).entries
                              for _ in range(6)]
                             + [np.zeros((dim, dim)), np.diag(np.linspace(-2.0, 1.0, dim))])
            values, vectors, ranks, cutoffs = eigh_desc_stack(stack, 1e-12)
            assert len(set(ranks)) > 1
            for a, w, s, rank, cutoff in zip(stack, values, vectors, ranks, cutoffs):
                w_alone, s_alone = np.linalg.eigh(a)
                assert w.tobytes() == w_alone[::-1].tobytes()
                assert s.tobytes() == s_alone[:, ::-1].tobytes()
                assert cutoff == max(1e-12 * float(np.max(np.abs(w_alone))), np.finfo(float).tiny)
                assert rank == np.count_nonzero(w_alone > cutoff)

    @pytest.mark.parametrize("tol_rank", [1e-12, 0.5, 1.0])
    def test_ranks_and_cutoffs_match_a_scan_of_every_eigenvalue(self, tol_rank):
        # all-negative, all-positive, mixed, all-zero and signed-zero rows,
        # rows far below eps, and rows whose relative cutoff is subnormal:
        # with no eigenvalue between it and the smallest normal float, that
        # float is the cutoff; with one, the row has rank 0; tol_rank 0.5 and
        # 1 put eigenvalues exactly on the cutoff
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        rows = [[-3.0, -1.0, -0.5], [0.5, 1.0, 3.0], [-3.0, 0.0, 1.0], [-1.0, 0.5, 3.0],
                [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, 2.0], [-2.0, -0.0, 1.0],
                [eps / 4, eps / 2, eps], [-eps, -0.0, eps / 8], [1e-300, 1e-200, 1e-100],
                [tiny / 4, tiny, 4 * tiny], [-2 * tiny, -0.0, tiny / 8],
                [tiny / 2, 1e-300, 3e-300], [0.0, -0.0, 1e-300]]
        rng = np.random.default_rng(24)
        stack = np.array([np.diag(rng.permutation(row)) for row in rows]
                         + [random_psd(rng, 3, rank).entries for rank in (0, 1, 2, 3)])
        _, _, ranks, cutoffs = eigh_desc_stack(stack, tol_rank)
        assert any(np.signbit(w).any() and not w.any() for w in np.linalg.eigh(stack)[0])
        for w, rank, cutoff in zip(np.linalg.eigh(stack)[0].tolist(), ranks, cutoffs):
            top = max(map(abs, w))
            relative = tol_rank * top
            straddles = any(relative < x <= tiny for x in w)
            scanned = top if relative < tiny and straddles else max(relative, tiny)
            assert np.float64(cutoff).tobytes() == np.float64(scanned).tobytes()
            assert rank == sum(x > scanned for x in w)


class TestCache:
    def test_spectrum_and_pinv_are_built_once_and_read_only(self):
        a = random_psd(np.random.default_rng(22), 4, 3)
        s = eig_sym(a)
        assert eig_sym(a) is s
        assert not s.eigenvalues.flags.writeable
        assert not s.eigenvectors.flags.writeable
        with pytest.raises(ValueError):
            s.eigenvalues[0] = 0.0
        p = pinv(a)
        assert not p.entries.flags.writeable

    def test_cold_copy_is_bit_identical(self):
        rng = np.random.default_rng(23)
        for dim in (1, 2, 3, 5, 8):
            for a in (random_psd(rng, dim), random_psd(rng, dim, rng.integers(0, dim + 1)),
                      SymMatrix(np.diag(np.linspace(-2.0, 1.0, dim)))):
                warm_s, warm_p = eig_sym(a), pinv(a)
                cold = SymMatrix(a.entries.copy())
                cold_s = eig_sym(cold)
                assert cold_s is not warm_s
                assert cold_s.eigenvalues.tobytes() == warm_s.eigenvalues.tobytes()
                assert cold_s.eigenvectors.tobytes() == warm_s.eigenvectors.tobytes()
                assert (cold_s.numeric_rank, cold_s.cutoff) == (warm_s.numeric_rank,
                                                                warm_s.cutoff)
                assert pinv(cold).entries.tobytes() == warm_p.entries.tobytes()


class TestPinv:
    def test_diagonal(self):
        np.testing.assert_allclose(
            pinv(SymMatrix(np.diag([2.0, 0.0]))).entries, np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_projector_is_self_pseudoinverse(self):
        p = np.eye(3) - np.ones((3, 3)) / 3
        np.testing.assert_allclose(pinv(SymMatrix(p)).entries, p, atol=1e-12)

    def test_unit_weight_fixture(self):
        # inverse pair from the control-comparison setting
        w_b_inv = np.array([[2.0, 2, 2], [2, 4, 1], [2, 1, 4]])
        w_b = np.array([[2.5, -1.0, -1.0], [-1.0, 2 / 3, 1 / 3], [-1.0, 1 / 3, 2 / 3]])
        np.testing.assert_allclose(pinv(SymMatrix(w_b_inv)).entries, w_b, atol=1e-12)

    def test_involution_on_random_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(2, 13))
            g = rng.standard_normal((dim, dim))
            a = SymMatrix(0.5 * (g + g.T))
            again = pinv(pinv(a)).entries
            assert np.max(np.abs(again - a.entries)) <= 1e-8 * max(1.0, np.max(np.abs(a.entries)))

    def test_penrose_identities_on_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(2, 13))
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            ap = pinv(a).entries
            m = a.entries
            tol = 1e-9 * max(1.0, np.max(np.abs(m)), np.max(np.abs(ap)))
            assert np.max(np.abs(m @ ap @ m - m)) <= tol
            assert np.max(np.abs(ap @ m @ ap - ap)) <= tol
            assert np.max(np.abs((m @ ap).T - m @ ap)) <= tol
            assert np.max(np.abs((ap @ m).T - ap @ m)) <= tol

    def test_pinv_form_rows_match_their_one_row_stacks_and_pinv(self):
        # Q' A^+ Q, the one product with a pseudoinverse, is formed on a
        # stack's spectrum by model.estimable_forms
        rng = np.random.default_rng(4)
        mats = [as_sym(random_psd(rng, 5, rank)) for rank in (2, 5, 2, 3, 5)]
        stack = SymStack.of(mats)
        assert len(set(stack.spectrum[2])) == 3
        # columns inside each row's span, where the form is q' A^+ q
        qs = np.stack([m.entries @ rng.standard_normal((5, 3)) for m in mats])
        bad, forms = estimable_forms(stack, qs)
        assert not bad.any()
        per_vector = estimable_forms(stack, qs.transpose(0, 2, 1)[:, :, :, None])[1]
        assert per_vector.shape == (5, 3, 1, 1)
        for i, m in enumerate(mats):
            one = estimable_forms(SymStack.of([m]), qs[i][None])[1]
            assert forms[i].tobytes() == one[0].tobytes()
            expected = qs[i].T @ pinv(m).entries @ qs[i]
            np.testing.assert_allclose(forms[i], expected, rtol=1e-8,
                                       atol=1e-10 * np.abs(expected).max())
            np.testing.assert_allclose(per_vector[i].ravel(), np.diag(forms[i]), rtol=1e-12)


class TestPinvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(pinv_sqrt(SymMatrix(np.eye(3))).entries, np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            pinv_sqrt(SymMatrix(np.diag([4.0, 0.0]))).entries, np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_square_recovers_pinv(self):
        # oracle: numpy pinv composed with the Schur square root from scipy
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            a = random_psd(rng, dim)
            root = pinv_sqrt(a).entries
            np.testing.assert_allclose(root @ root, pinv(a).entries, atol=1e-9)
            oracle = scipy.linalg.sqrtm(np.linalg.pinv(a.entries)).real
            np.testing.assert_allclose(root, oracle, atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            pinv_sqrt(SymMatrix(np.diag([1.0, -1.0])))


class TestSqrtPsd:
    def test_square_recovers_matrix(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 5, rank=3)
        root = sqrt_psd(a).entries
        np.testing.assert_allclose(root @ root, a.entries, atol=1e-10)


class TestProjector:
    def test_ones(self):
        np.testing.assert_allclose(projector(np.ones(3)).entries, np.ones((3, 3)) / 3)

    def test_identity_columns(self):
        np.testing.assert_allclose(projector(np.eye(3)).entries, np.eye(3))

    def test_orthogonal_complement_basis(self):
        basis = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(
            projector(basis).entries, np.eye(3) - np.ones((3, 3)) / 3, atol=1e-12
        )

    def test_projector_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = int(rng.integers(2, 10))
            k = int(rng.integers(1, v + 1))
            cols = rng.standard_normal((v, k))
            if rng.integers(0, 2) and k > 1:
                cols[:, -1] = cols[:, 0]  # force rank deficiency
            p = projector(cols).entries
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            assert np.max(np.abs(p - p.T)) <= 1e-9
            assert np.max(np.abs(p @ cols - cols)) <= 1e-9 * max(1.0, np.max(np.abs(cols)))
            assert abs(np.trace(p) - np.linalg.matrix_rank(cols)) <= 1e-9


def sqrt_factor(a):
    """The full-column-rank factor ``K`` (``K K' = A``) that weighting keeps."""
    return make_weight_matrix(a).K


class TestSqrtFactor:
    def test_identity_up_to_sign_and_tie_order(self):
        # eigenvalue ties leave column order solver-dependent; the contract
        # is the factorization itself
        k = sqrt_factor(SymMatrix(np.eye(2)))
        assert k.shape == (2, 2)
        np.testing.assert_allclose(k @ k.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.sort(np.abs(k), axis=0), [[0.0, 0.0], [1.0, 1.0]],
                                   atol=1e-12)

    def test_rank_one_diagonal(self):
        k = sqrt_factor(SymMatrix(np.diag([4.0, 0.0, 0.0])))
        assert k.shape == (3, 1)
        np.testing.assert_allclose(np.abs(k[:, 0]), [2.0, 0.0, 0.0], atol=1e-12)

    def test_control_gram_reconstruction(self, control_system):
        a = control_system.Q @ control_system.Q.T
        k = sqrt_factor(SymMatrix(a))
        assert np.max(np.abs(k @ k.T - a)) <= 1e-12

    def test_factor_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dim = int(rng.integers(2, 10))
            rank = int(rng.integers(1, dim + 1))
            a = random_psd(rng, dim, rank)
            k = sqrt_factor(a)
            d = k.shape[1]
            gram = k.T @ k
            assert np.linalg.matrix_rank(gram) == d
            np.testing.assert_allclose(k.T @ pinv(a).entries @ k, np.eye(d), atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            sqrt_factor(SymMatrix(np.diag([1.0, -2.0])))


class TestGeneralizedInverse:
    def test_samples_are_generalized_inverses(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            g = generalized_inverse_sample(a, rng)
            m = a.entries
            assert np.max(np.abs(m @ g @ m - m)) <= 1e-9 * max(1.0, np.max(np.abs(m)))


def test_column_space_projector_matches_projector():
    # F F' from the spectral basis is the projector feasibility tests against
    rng = np.random.default_rng(9)
    g = rng.standard_normal((5, 2))
    f = eig_sym(SymMatrix(g @ g.T)).basis()
    np.testing.assert_allclose(f @ f.T, projector(g).entries, atol=1e-10)
