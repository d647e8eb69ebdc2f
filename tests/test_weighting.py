"""Weight matrices, weighted variances, estimation equivalence, weight reports."""

import numpy as np
import pytest

from conftest import generalized_inverse_sample
from wdesign import (
    DesignSpec,
    EstimableSystem,
    check_weight_dominance,
    eig_sym,
    estimation_equivalent,
    estimation_space,
    infeasible_columns,
    info_matrix_for_system,
    information_matrix,
    make_weight_matrix,
    secondary_weights,
    system_from_weight_matrix_sqrt,
    variance_decomposition,
    weight_matrix_from_system,
    weight_of,
    weighted_info_matrix,
    weighted_variance,
)
from wdesign.errors import DomainError, FeasibilityError, SpaceError
from wdesign.instances import random_instance
from wdesign.linalg import (
    DERIVED_RANK_RTOL,
    FILE_RANK_RTOL,
    SymMatrix,
    SymStack,
    as_sym,
    pinv,
    typed,
)
from wdesign.model import _information, check_estimation_spaces
from wdesign.weighting import weighted_variances


class TestMakeWeightMatrix:
    def test_identity_rejected_in_contrast_space(self, contrasts3):
        with pytest.raises(SpaceError):
            make_weight_matrix(np.eye(3), contrasts3)

    def test_centering_projector_accepted(self, contrasts3):
        w = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
        assert w.d == 2
        assert contrasts3.contains(w.matrix.entries)

    def test_control_gram_accepted(self, contrasts3):
        raw = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        w = make_weight_matrix(raw, contrasts3)
        assert w.d == 2

    def test_indefinite_rejected(self, full3):
        with pytest.raises(DomainError):
            make_weight_matrix(np.diag([1.0, -1.0, 0.0]), full3)

    def test_factor_invariants(self, contrasts3):
        rng = np.random.default_rng(20)
        p = contrasts3.projector.entries
        for _ in range(20):
            k0 = p @ rng.standard_normal((3, 2))
            w = make_weight_matrix(SymMatrix(0.5 * (k0 @ k0.T + (k0 @ k0.T).T)), contrasts3)
            scale = max(1.0, np.max(np.abs(w.matrix.entries)))
            assert np.max(np.abs(w.K @ w.K.T - w.matrix.entries)) <= 1e-9 * scale
            np.testing.assert_allclose(w.K.T @ pinv(w.matrix).entries @ w.K, np.eye(w.d), atol=1e-9)

    @pytest.mark.parametrize("w_raw", [np.eye(3) - np.ones((3, 3)) / 3, np.zeros((3, 3))])
    def test_factors_are_read_only(self, contrasts3, w_raw):
        # a search problem's scorer keeps K: a write into it would leave
        # stale scores behind
        w = make_weight_matrix(w_raw, contrasts3)
        for factor in (w.K, w.matrix.entries):
            with pytest.raises(ValueError, match="read-only"):
                factor[...] = 1.0

    def test_an_array_and_its_symmatrix_have_one_rank(self):
        # an eigenvalue 1e-13 of the largest is below the one rank cutoff
        w = np.diag([1.0, 1e-13, 0.0])
        assert make_weight_matrix(w).d == make_weight_matrix(SymMatrix(w)).d == 1


class TestWeightOf:
    def test_unit_weight_pair_fixture(self, unit_weight_pair, full3, q3):
        w_a, w_b = unit_weight_pair
        assert weight_of(make_weight_matrix(w_a, full3), q3) == pytest.approx(0.5, abs=1e-10)
        assert weight_of(make_weight_matrix(w_b, full3), q3) == pytest.approx(1 / 3, abs=1e-10)

    def test_duplicated_column_halves_the_quadratic_form(self, q1, contrasts3):
        w = weight_matrix_from_system(EstimableSystem(np.column_stack([q1, q1])), contrasts3)
        assert float(q1 @ pinv(w.matrix).entries @ q1) == pytest.approx(0.5, abs=1e-10)
        assert weight_of(w, q1) == pytest.approx(2.0, abs=1e-10)

    def test_zero_vector_rejected(self, contrasts3):
        w = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
        with pytest.raises(DomainError):
            weight_of(w, np.zeros(3))

    @pytest.mark.parametrize("tiny", [1e-170, 1e-160])
    def test_a_weight_past_the_largest_float_is_a_domain_error(self, tiny):
        # q is nonzero and in the span, but q' W^+ q underflows (to 0 at
        # 1e-170, to a subnormal whose reciprocal is inf at 1e-160)
        w = make_weight_matrix(np.eye(3))
        with pytest.raises(DomainError, match="overflows"):
            weight_of(w, tiny * np.eye(3)[0])

    def test_the_span_test_does_not_depend_on_the_scale_of_q(self):
        w = make_weight_matrix(np.diag([1.0, 0.0, 0.0]))
        for k in range(-200, 201):
            assert weight_of(w, 10.0 ** k * np.eye(3)[1]) is None, k

    def test_out_of_span_marker(self, q1, contrasts3, q3):
        w = weight_matrix_from_system(EstimableSystem(q1), contrasts3)
        assert weight_of(w, q3) is None

    def test_generalized_inverse_independence(self, contrasts3, control_system):
        rng = np.random.default_rng(21)
        w = weight_matrix_from_system(control_system, contrasts3)
        q = w.K @ rng.standard_normal(w.d)
        baseline = weight_of(w, q)
        for _ in range(20):
            g = generalized_inverse_sample(w.matrix, rng)
            alt = 1.0 / float(q @ g @ q)
            assert abs(alt - baseline) <= 1e-9 * max(1.0, baseline)


class TestWeightedVariance:
    def test_balanced_fixture(self, balanced_design, contrasts3, q1):
        w = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
        assert weight_of(w, q1) == pytest.approx(1.0, abs=1e-12)
        assert weighted_variance(balanced_design, w, q1) == pytest.approx(0.5, abs=1e-12)

    def test_eigenvector_of_cw_hits_inverse_eigenvalue(self, balanced_design, contrasts3,
                                                       control_system):
        w = weight_matrix_from_system(control_system, contrasts3)
        cw = weighted_info_matrix(balanced_design, w)
        s = eig_sym(cw)
        for i in range(w.d):
            q = w.K @ s.eigenvectors[:, i]
            assert weighted_variance(balanced_design, w, q) == pytest.approx(
                1.0 / s.eigenvalues[i], rel=1e-9
            )

    def test_convexity_bracket(self, balanced_design, contrasts3, control_system):
        rng = np.random.default_rng(22)
        w = weight_matrix_from_system(control_system, contrasts3)
        lam = eig_sym(weighted_info_matrix(balanced_design, w)).eigenvalues
        for _ in range(200):
            q = w.K @ rng.standard_normal(w.d)
            value = weighted_variance(balanced_design, w, q)
            assert 1.0 / lam[0] - 1e-9 <= value <= 1.0 / lam[-1] + 1e-9

    def test_errors(self, balanced_design, contrasts3, q1, q3):
        w = weight_matrix_from_system(EstimableSystem(q1), contrasts3)
        with pytest.raises(SpaceError):
            weighted_variance(balanced_design, w, q3)
        disconnected = DesignSpec(3, (1, 2, 1, 2))
        w23 = weight_matrix_from_system(EstimableSystem(q3), contrasts3)
        with pytest.raises(FeasibilityError):
            weighted_variance(disconnected, w23, q3)


class TestWeightedVariances:
    def test_stacks_give_the_bits_of_single_vectors(self):
        rng = np.random.default_rng(42)
        draws = {}
        for _ in range(60):
            spec, _, w = random_instance(rng, "aopt")
            draws.setdefault(spec.v, []).append((spec, w))
        stacks = [rows for rows in draws.values() if len(rows) > 1]
        assert len(stacks) >= 3
        # weight matrices of different rank d share a stack
        assert any(len({w.d for _, w in rows}) > 1 for rows in stacks)
        for rows in stacks:
            specs, ws = zip(*rows)
            q = np.array([[w.K @ rng.standard_normal(w.d) for _ in range(4)] for w in ws])
            got = weighted_variances(SymStack.of([_information(s) for s in specs]), ws, q)
            assert got.shape == (len(rows), 4)
            for b, (spec, w) in enumerate(rows):
                for j in range(4):
                    assert got[b, j].hex() == weighted_variance(spec, w, q[b, j]).hex()

    def test_a_typed_and_a_derived_weight_matrix_share_a_stack(self, balanced_design,
                                                               control_system, q1):
        # each row keeps the rank cutoff of its own W
        ws = [make_weight_matrix(typed([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])),
              weight_matrix_from_system(control_system)]
        for w, tol in zip(ws, (FILE_RANK_RTOL, DERIVED_RANK_RTOL)):
            assert eig_sym(w.matrix).cutoff == tol * eig_sym(w.matrix).eigenvalues[0]
        cs = SymStack.of([_information(balanced_design)] * 2)
        got = weighted_variances(cs, ws, np.array([[q1], [q1]]))
        assert [x.hex() for x in got[:, 0]] == [
            weighted_variance(balanced_design, w, q1).hex() for w in ws]

    def test_first_rejected_vector_raises_its_own_error(self, balanced_design, full3, q1, q2):
        w = make_weight_matrix(np.eye(3), full3)
        cs = SymStack.of([_information(balanced_design)] * 2)
        ones, zero = np.ones(3), np.zeros(3)
        outside = make_weight_matrix(np.outer(q1, q1), full3)
        cases = [
            ([w, w], [[q1, q2], [ones, q1]], FeasibilityError),
            ([w, w], [[q1, zero], [ones, q1]], DomainError),
            ([outside, outside], [[q1, q1], [q2, q1]], SpaceError),
            ([outside, outside], [[q1, zero], [q2, q1]], DomainError),
        ]
        for ws, q, error in cases:
            with pytest.raises(error):
                weighted_variances(cs, ws, np.array(q))
            first = [v for row in q for v in row if not _accepted(ws[0], v)][0]
            with pytest.raises(error):
                weighted_variance(balanced_design, ws[0], first)


def _accepted(w, q):
    try:
        weighted_variance(DesignSpec.from_replications(3, [2, 2, 2]), w, q)
    except (DomainError, SpaceError, FeasibilityError):
        return False
    return True


class TestVarianceDecomposition:
    def test_convex_combination(self, balanced_design, contrasts3, control_system):
        rng = np.random.default_rng(23)
        w = weight_matrix_from_system(control_system, contrasts3)
        for _ in range(50):
            q = w.K @ rng.standard_normal(w.d)
            coeffs, lam = variance_decomposition(balanced_design, w, q)
            assert np.all(coeffs >= -1e-12)
            assert abs(coeffs.sum() - 1.0) <= 1e-9
            recon = float(np.sum(coeffs / lam))
            assert abs(recon - weighted_variance(balanced_design, w, q)) <= 1e-8


class TestWeightedInfoMatrix:
    def test_information_matrix_as_its_own_weight(self, balanced_design, contrasts3):
        c = information_matrix(balanced_design)
        w = make_weight_matrix(c, contrasts3)
        cw = weighted_info_matrix(balanced_design, w)
        np.testing.assert_allclose(cw.entries, np.eye(w.d), atol=1e-9)

    def test_centering_projector_fixture(self, balanced_design, contrasts3):
        w = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
        np.testing.assert_allclose(
            weighted_info_matrix(balanced_design, w).entries, 2.0 * np.eye(2), atol=1e-12
        )

    def test_agrees_with_info_matrix_over_k(self, contrasts3):
        rng = np.random.default_rng(24)
        p = contrasts3.projector.entries
        for _ in range(20):
            reps = rng.integers(1, 4, size=3)
            spec = DesignSpec.from_replications(3, reps)
            k0 = p @ rng.standard_normal((3, 2))
            w = make_weight_matrix(SymMatrix(0.5 * (k0 @ k0.T + (k0 @ k0.T).T)), contrasts3)
            cw = weighted_info_matrix(spec, w)
            nk = info_matrix_for_system(spec, EstimableSystem(w.K))
            assert np.max(np.abs(cw.entries - nk.entries)) <= 1e-9 * max(
                1.0, np.max(np.abs(cw.entries))
            )

    def test_estimability_enforced(self, contrasts3, q3):
        w = weight_matrix_from_system(EstimableSystem(q3), contrasts3)
        with pytest.raises(FeasibilityError):
            weighted_info_matrix(DesignSpec(3, (1, 2, 1, 2)), w)

    def test_basis_choice_of_k_is_immaterial(self, balanced_design, contrasts3,
                                             control_system):
        rng = np.random.default_rng(25)
        w = weight_matrix_from_system(control_system, contrasts3)
        base = np.sort(eig_sym(weighted_info_matrix(balanced_design, w)).eigenvalues)
        for _ in range(5):
            o, r = np.linalg.qr(rng.standard_normal((w.d, w.d)))
            o = o * np.sign(np.diag(r))
            rotated = EstimableSystem(w.K @ o)
            alt = np.sort(eig_sym(info_matrix_for_system(balanced_design, rotated)).eigenvalues)
            np.testing.assert_allclose(alt, base, atol=1e-9)


class TestEstimationEquivalence:
    def test_scaling(self, contrasts3, control_system):
        w = weight_matrix_from_system(control_system, contrasts3)
        w3 = make_weight_matrix(3.0 * w.matrix.entries, contrasts3)
        eq, c = estimation_equivalent(w, w3)
        assert eq and c == pytest.approx(3.0, rel=1e-9)

    def test_unit_weight_pair_not_equivalent(self, unit_weight_pair, full3):
        w_a, w_b = unit_weight_pair
        eq, _ = estimation_equivalent(
            make_weight_matrix(w_a, full3), make_weight_matrix(w_b, full3)
        )
        assert not eq

    def test_gram_vs_regularized_gram(self, contrasts3, full3, control_system):
        wq = weight_matrix_from_system(control_system, contrasts3)
        raw = np.eye(3) - contrasts3.projector.entries + control_system.Q @ control_system.Q.T
        wreg = make_weight_matrix(raw, full3)
        eq, c = estimation_equivalent(wq, wreg, on=contrasts3)
        assert eq and c == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(SpaceError):
            estimation_equivalent(wq, wreg)

    def test_equivalence_relation(self, contrasts3, control_system):
        w1 = weight_matrix_from_system(control_system, contrasts3)
        w2 = make_weight_matrix(2.5 * w1.matrix.entries, contrasts3)
        w3 = make_weight_matrix(0.4 * w1.matrix.entries, contrasts3)
        eq, c_self = estimation_equivalent(w1, w1)
        assert eq and c_self == pytest.approx(1.0)
        eq12, c12 = estimation_equivalent(w1, w2)
        eq21, c21 = estimation_equivalent(w2, w1)
        assert eq12 and eq21 and c12 == pytest.approx(1.0 / c21, rel=1e-9)
        eq23, c23 = estimation_equivalent(w2, w3)
        eq13, c13 = estimation_equivalent(w1, w3)
        assert eq23 and eq13 and c13 == pytest.approx(c12 * c23, rel=1e-9)

    @pytest.mark.parametrize("pair", [((1.0, 2.0, 0.0), (2.0, 4.0, 0.0)),
                                      ((1.0, 2.0, 0.0), (1.0, 5.0, 0.0))])
    def test_verdict_and_c_do_not_depend_on_a_power_of_two_scale(self, pair):
        # W^+ scales by 2^-k: at k = 1000 its projected squares underflow, and
        # a floor at eps made the non-proportional pair proportional at 2^300
        def compare(k):
            w1, w2 = (make_weight_matrix(2.0**k * np.diag(diag)) for diag in pair)
            return estimation_equivalent(w1, w2)

        base, c = compare(0)
        assert base == (pair[1][0] == 2.0)
        for k in (-40, 40, 300, 1000):
            eq, ck = compare(k)
            assert eq == base
            assert ck == pytest.approx(c, rel=1e-12)


class TestWeightMatrixFromSystem:
    def test_unscaled_display(self, control_system, contrasts3):
        w = weight_matrix_from_system(control_system, contrasts3)
        expected = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.max(np.abs(w.matrix.entries - expected)) <= 1e-12

    def test_scaled_display(self, control_system, contrasts3):
        scaled = EstimableSystem(control_system.Q, [1.0, 2.0])
        w = weight_matrix_from_system(scaled, contrasts3)
        expected = 0.5 * np.array([[3.0, -1, -2], [-1, 1, 0], [-2, 0, 2]])
        assert np.max(np.abs(w.matrix.entries - expected)) <= 1e-12

    def test_single_function(self, q1, contrasts3):
        w = weight_matrix_from_system(EstimableSystem(q1), contrasts3)
        np.testing.assert_allclose(w.matrix.entries, np.outer(q1, q1), atol=1e-12)
        assert w.d == 1

    def test_factors_the_systems_own_w_without_a_decomposition(self, control_system,
                                                                contrasts3, monkeypatch):
        # the system formed W = Q~Q~' and decomposed it for r; the weight
        # matrix takes that matrix and its spectrum as they are
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        w = weight_matrix_from_system(control_system, contrasts3)
        assert w.matrix is control_system.W
        assert w.d == control_system.r
        assert calls == []


class TestSecondaryWeights:
    def test_query_inherits_half(self, control_system, q3):
        report = secondary_weights(control_system, [q3])
        assert report.records[-1].secondary == pytest.approx(0.5, abs=1e-10)

    def test_rebuilt_system_changes_implied_weight(self, q1, q2, q3):
        rebuilt = EstimableSystem(np.column_stack([q1, q3]), [1.0, 0.5])
        report = secondary_weights(rebuilt, [q2])
        assert report.records[-1].secondary == pytest.approx(1 / 3, abs=1e-10)

    def test_three_contrast_system(self, q1, q2, q3):
        system = EstimableSystem(np.column_stack([q1, q2, q3]), [1.0, 1.0, 0.5])
        report = secondary_weights(system)
        implied = [rec.secondary for rec in report.records]
        np.testing.assert_allclose(implied, [4 / 3, 4 / 3, 1.0], atol=1e-10)

    def test_duplicated_column(self, q1):
        report = secondary_weights(EstimableSystem(np.column_stack([q1, q1])))
        assert report.records[0].secondary == pytest.approx(2.0, abs=1e-10)

    def test_out_of_span_query_gets_marker(self, q1, q3):
        report = secondary_weights(EstimableSystem(q1), [q3])
        assert report.records[-1].secondary is None
        assert not report.records[-1].in_span


class TestWeightDominance:
    def test_full_rank_normalized_weights_are_exact(self, control_system):
        report = secondary_weights(control_system)
        for rec in report.records:
            assert rec.secondary == pytest.approx(1.0, abs=1e-10)
        assert check_weight_dominance(control_system) == (False, False)

    def test_duplicated_column_is_strict(self, q1):
        assert check_weight_dominance(EstimableSystem(np.column_stack([q1, q1]))) == (True, True)

    def test_rank_deficient_three_contrasts_strict(self, q1, q2, q3):
        system = EstimableSystem(np.column_stack([q1, q2, q3]), [1.0, 1.0, 0.5])
        assert check_weight_dominance(system) == (True, True, True)

    def test_a_system_of_rank_zero_is_a_domain_error(self, control_system):
        # W = Q~ Q~' near 1e-310 falls below the rank cutoff's floor
        system = EstimableSystem(1e-155 * control_system.Q)
        assert system.r == 0
        for fn in (secondary_weights, check_weight_dominance):
            with pytest.raises(DomainError, match="a system of rank zero weights nothing"):
                fn(system)

    def test_flags_do_not_depend_on_the_scale_of_the_weights(self, q1, q2, q3, control_system):
        # with an absolute slack of 1e-9, every weight of the 1e-10 scale fell inside it
        pairwise = np.column_stack([q1, q2, q3])
        for scale in (1.0, 1e-10, 1e10):
            assert check_weight_dominance(EstimableSystem(pairwise, [scale] * 3)) == \
                (True, True, True)
            assert check_weight_dominance(
                EstimableSystem(control_system.Q, [scale, 2.0 * scale])) == (False, False)


class TestSystemWeightIdentities:
    def test_gram_inverse_identity_full_rank(self, contrasts3):
        rng = np.random.default_rng(26)
        p = contrasts3.projector.entries
        for _ in range(20):
            q = p @ rng.standard_normal((3, 2))
            q /= np.linalg.norm(q, axis=0)
            system = EstimableSystem(q)
            if system.r < 2:
                continue
            w = weight_matrix_from_system(system, contrasts3)
            np.testing.assert_allclose(q.T @ pinv(w.matrix).entries @ q, np.eye(2), atol=1e-9)
            b = rng.uniform(0.5, 2.0, size=2)
            ws = weight_matrix_from_system(EstimableSystem(q, b), contrasts3)
            np.testing.assert_allclose(q.T @ pinv(ws.matrix).entries @ q, np.diag(1.0 / b), atol=1e-9)

    def test_centering_projector_weights_every_contrast_equally(self):
        rng = np.random.default_rng(27)
        for v in (3, 5, 8):
            space = estimation_space("contrasts", v)
            w = make_weight_matrix(np.eye(v) - np.ones((v, v)) / v, space)
            for _ in range(20):
                q = space.projector.entries @ rng.standard_normal(v)
                q /= np.linalg.norm(q)
                assert weight_of(w, q) == pytest.approx(1.0, abs=1e-9)

    def test_scale_equivariance(self, balanced_design, contrasts3, control_system, q3):
        w = weight_matrix_from_system(control_system, contrasts3)
        for c in (0.25, 3.0, 10.0):
            wc = make_weight_matrix(c * w.matrix.entries, contrasts3)
            assert weight_of(wc, q3) == pytest.approx(c * weight_of(w, q3), rel=1e-9)
            lam = eig_sym(weighted_info_matrix(balanced_design, w)).eigenvalues
            lam_c = eig_sym(weighted_info_matrix(balanced_design, wc)).eigenvalues
            np.testing.assert_allclose(lam_c, lam / c, rtol=1e-9)


def test_sqrt_system_spectrum_matches_weighted(balanced_design, contrasts3, control_system):
    w = weight_matrix_from_system(control_system, contrasts3)
    sys_sqrt = system_from_weight_matrix_sqrt(w)
    n = info_matrix_for_system(balanced_design, sys_sqrt)
    cw = weighted_info_matrix(balanced_design, w)
    np.testing.assert_allclose(
        np.sort(eig_sym(n).positive()), np.sort(eig_sym(cw).eigenvalues), atol=1e-8
    )


def span_verdicts(q: np.ndarray, c: float) -> dict:
    """Whether each span-membership site finds ``c q`` inside a span that
    ``q`` sits just off: the first axis, or the span of ``q`` itself, with
    every weight matrix scaled by ``c``."""
    e1 = np.eye(len(q))[0]
    axis = estimation_space("explicit", len(q), e1)
    on_axis = make_weight_matrix(c * np.outer(e1, e1))
    along_q = c * np.outer(q, q)

    def raises_space_error(fn, *args):
        try:
            fn(*args)
        except SpaceError:
            return True
        return False

    return {
        "contains": axis.contains(c * q),
        "infeasible_columns": infeasible_columns(c * np.outer(e1, e1), c * q) == (),
        "check_estimation_spaces": not raises_space_error(
            check_estimation_spaces, SymStack.of([as_sym(along_q)]), [axis]),
        "make_weight_matrix": not raises_space_error(make_weight_matrix, along_q, axis),
        "in_span": on_axis.in_span(c * q),
        "weight_of": weight_of(on_axis, c * q) is not None,
        "estimation_equivalent": not raises_space_error(
            estimation_equivalent, on_axis, make_weight_matrix(along_q)),
        "estimation_equivalent_on": not raises_space_error(
            estimation_equivalent, on_axis, on_axis,
            estimation_space("explicit", len(q), q)),
    }


@pytest.mark.parametrize("offset, inside", [(0.7e-8, True), (2e-8, False)])
def test_every_span_site_gives_one_scale_free_verdict(offset, inside):
    # q = e1 + offset (0, 1, 1, 1): its max-abs residual off the first axis is
    # offset, relative to max|q| = 1, against the one cutoff 1e-8; a 2-norm
    # residual would read sqrt(3) offset and put 0.7e-8 outside
    q = np.array([1.0, offset, offset, offset])
    for c in (1e-10, 1e-5, 1.0, 1e5, 1e10):
        verdicts = span_verdicts(q, c)
        assert verdicts == dict.fromkeys(verdicts, inside), c
