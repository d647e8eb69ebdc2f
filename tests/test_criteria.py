"""Criterion values plus the spectral-equivalence and interpretation checks."""

import numpy as np
import pytest

from wdesign import (
    DesignSpec,
    EstimableSystem,
    a_opt_interpretation_check,
    certify_theorem1,
    certify_theorem2,
    certify_theorem3,
    certify_theorem4,
    criterion_value,
    e_opt_interpretation_check,
    eig_sym,
    estimation_space,
    info_matrix_for_system,
    information_matrix,
    make_weight_matrix,
    phi_for_system,
    phi_weighted,
    spectral_deviation,
    value_from_positive_spectrum,
    variance_decomposition,
    weight_matrix_from_system,
    weighted_info_matrix,
    weighted_variance,
)
from wdesign.criteria import (
    POSITIVE_SPECTRUM_CRITERIA,
    SPECTRAL_TOL,
    STACKED_CERTIFICATIONS,
    certify_in_stacks,
)
from wdesign.errors import DomainError, RankError, SingularWeightError, SpaceError
from wdesign.instances import random_instance, random_pd_matrix
from wdesign.linalg import DERIVED_RANK_RTOL, SymMatrix, SymStack, at_unit_scale, pinv
from wdesign.model import _information, check_estimation_spaces

#: Certification kind -> its run on a ``random_instance`` draw.
CERTIFY = {
    "theorem1": lambda spec, space, t: certify_theorem1(spec, t, space),
    "theorem2": lambda spec, space, t: certify_theorem2(spec, t, space),
    "theorem3": lambda spec, space, t: certify_theorem3(spec, t, space),
    "theorem4": lambda spec, space, t: certify_theorem4(spec, t),
    "aopt": lambda spec, space, t: a_opt_interpretation_check(spec, t, seed=5),
    "eopt": lambda spec, space, t: e_opt_interpretation_check(spec, t),
}


def fresh_copies(spec, space, target):
    """The instance rebuilt from its data, with none of its cached analyses."""
    spec = DesignSpec(spec.v, spec.assignment, spec.nuisance_kind, spec.block_sizes, spec.L)
    space = estimation_space(space.kind, space.v)
    if isinstance(target, EstimableSystem):
        target = EstimableSystem(target.Q.copy(), target.b.copy())
    elif isinstance(target, SymMatrix):
        target = SymMatrix(target.entries.copy())
    else:
        target = make_weight_matrix(SymMatrix(target.matrix.entries.copy()), space)
    return spec, space, target


def report_arrays(report):
    """Every array a certification report hands to its caller."""
    values = list(vars(report).values()) + list(getattr(report, "deviations", {}).values())
    return [x for x in values if isinstance(x, np.ndarray)]


def assert_same_report(a, b):
    assert (a.name, a.passed, a.tolerance) == (b.name, b.passed, b.tolerance)
    assert np.float64(a.deviation).tobytes() == np.float64(b.deviation).tobytes()
    assert getattr(a, "deviations", None) == getattr(b, "deviations", None)
    assert [x.tobytes() for x in report_arrays(a)] == [x.tobytes() for x in report_arrays(b)]


class TestCriterionValue:
    def test_scaled_identity(self):
        for name in "DAE":
            cv = criterion_value(SymMatrix(2.0 * np.eye(2)), name)
            assert cv.value == pytest.approx(2.0)
            assert cv.rank_used == 2

    def test_diagonal_formulas(self):
        m = SymMatrix(np.diag([4.0, 1.0]))
        assert criterion_value(m, "D").value == pytest.approx(2.0)
        assert criterion_value(m, "A").value == pytest.approx(8.0 / 5.0)
        assert criterion_value(m, "E").value == pytest.approx(1.0)

    def test_singular_convention(self):
        m = SymMatrix(np.diag([1.0, 0.0]))
        e = criterion_value(m, "E")
        assert e.value == 0.0 and e.rank_used == 1 and e.dim == 2
        assert criterion_value(m, "D").value == pytest.approx(1.0)
        assert criterion_value(m, "A").value == pytest.approx(1.0)
        assert e.positive_value == pytest.approx(1.0)

    def test_rejects_unknown_and_indefinite(self):
        with pytest.raises(DomainError):
            criterion_value(SymMatrix(np.eye(2)), "T")
        with pytest.raises(DomainError):
            criterion_value(SymMatrix(np.diag([1.0, -1.0])), "D")

    def test_positive_spectrum_helper(self):
        assert value_from_positive_spectrum("D", [4.0, 1.0]) == pytest.approx(2.0)
        assert value_from_positive_spectrum("E", []) == 0.0

    def test_positive_spectrum_values_keep_the_bits_of_the_reduction_wrappers(self):
        # 10^5 read-only spectra of lengths 1-8 at scales 1e-10 to 1e10:
        # ascending, descending, constant and unordered
        rng = np.random.default_rng(41)
        count = 100_000
        sizes = rng.integers(1, 9, count).tolist()
        scales = 10.0 ** rng.uniform(-10.0, 10.0, count)
        entries = rng.uniform(0.01, 1.0, (count, 8))
        for index, (size, scale, row) in enumerate(zip(sizes, scales, entries)):
            spectrum = scale * row[:size]
            if index % 4 == 0:
                spectrum.sort()
            elif index % 4 == 1:
                spectrum = np.sort(spectrum)[::-1].copy()
            elif index % 4 == 2:
                spectrum[:] = spectrum[0]
            spectrum.flags.writeable = False
            for name in "DAE":
                assert (value_from_positive_spectrum(name, spectrum).hex()
                        == wrapped_criterion(name, spectrum).hex())

    def test_stacked_criteria_keep_the_bits_of_each_row_alone(self):
        # stacks of 1 to 600 ascending rows of lengths 1-24 (past the
        # pairwise-sum block of 8): each row spread over e^-1 to e^1 around
        # its own scale, in e^-3 to e^3 and, every eighth row, in e^-600 to
        # e^600, and one constant row per stack.  Near unit scale about one D
        # row in 2,500 shows the last-bit difference of ``np.log``'s SIMD loop
        # from the one-row call's scalar loop.
        rng = np.random.default_rng(43)
        compared = 0
        for length in range(1, 25):
            for rows in (1, 2, 9, 600, 600, 600):
                exponents = rng.uniform(-3.0, 3.0, (rows, 1))
                exponents[::8] *= 200.0
                stack = np.sort(np.exp(exponents + rng.uniform(-1.0, 1.0, (rows, length))),
                                axis=1)
                stack[-1] = stack[-1, 0]
                stack.flags.writeable = False
                for name, fn in POSITIVE_SPECTRUM_CRITERIA.items():
                    values = fn(stack)
                    assert values.shape == (rows,)
                    assert ([value.hex() for value in values.tolist()]
                            == [one_row_criterion(name, row[::-1]).hex() for row in stack])
                compared += rows
        assert compared == 24 * 1812


def one_row_criterion(name, pos):
    """A criterion on one descending spectrum ``pos`` (a reversed view), as
    computed before the criteria took stacks."""
    if name == "D":
        return float(np.exp(np.add.reduce(np.log(pos)) / pos.size))
    if name == "A":
        return float(pos.size / np.add.reduce(1.0 / pos))
    return float(pos[-1])


def wrapped_criterion(name, positive):
    """``value_from_positive_spectrum`` as written with ``np.sort``, ``np.mean``
    and ``np.sum``."""
    pos = np.sort(np.asarray(positive, dtype=float))[::-1]
    if name == "D":
        return float(np.exp(np.mean(np.log(pos))))
    if name == "A":
        return float(len(pos) / np.sum(1.0 / pos))
    return float(pos[-1])


class TestPhi:
    def test_identity_system_equals_information_criterion(self):
        rng = np.random.default_rng(30)
        spec = DesignSpec(3, (1, 1, 2, 2, 3, 3), "explicit", L=rng.standard_normal((6, 1)))
        c = information_matrix(spec)
        system = EstimableSystem(np.eye(3))
        for name in "DAE":
            assert phi_for_system(spec, system, name).value == pytest.approx(
                criterion_value(c, name).value, rel=1e-9
            )

    def test_single_contrast_all_criteria_coincide(self, balanced_design, q1):
        values = {name: phi_for_system(balanced_design, EstimableSystem(q1), name).value
                  for name in "DAE"}
        assert values["D"] == pytest.approx(2.0, rel=1e-12)
        assert values["A"] == values["D"] == values["E"]

    def test_weighted_fixture(self, balanced_design, contrasts3):
        w = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
        for name in "DAE":
            assert phi_weighted(balanced_design, w, name).value == pytest.approx(2.0)

    def test_matched_weight_gives_unit_criteria(self, balanced_design, contrasts3):
        w = make_weight_matrix(information_matrix(balanced_design), contrasts3)
        for name in "DAE":
            assert phi_weighted(balanced_design, w, name).value == pytest.approx(1.0, abs=1e-9)


class TestTheorem1:
    def test_control_fixture(self, balanced_design, control_system, contrasts3):
        report = certify_theorem1(balanced_design, control_system, contrasts3)
        assert report.passed and report.deviation <= 1e-10

    def test_scaled_fixture(self, balanced_design, control_system, contrasts3):
        scaled = EstimableSystem(control_system.Q, [1.0, 2.0])
        assert certify_theorem1(balanced_design, scaled, contrasts3).passed

    def test_deviation_does_not_depend_on_a_power_of_four_scale_of_the_weights(self):
        # b -> 4^j b scales Q~ by 2^j and the regularizer of I - P with it, exactly
        spec = DesignSpec.from_replications(4, [2, 2, 3, 2], "blocks", (3, 3, 3))
        space = estimation_space("contrasts", 4)
        rng = np.random.default_rng(5)
        q = space.projector.entries @ rng.standard_normal((4, 3))
        b = rng.uniform(0.5, 2.0, 3)
        reports = [certify_theorem1(spec, EstimableSystem(q, 4.0 ** j * b), space)
                   for j in range(-40, 41)]
        assert all(report.passed for report in reports)
        assert {report.deviation for report in reports} == {reports[40].deviation}

    def test_rank_deficient_redirects(self, balanced_design, q1, contrasts3):
        with pytest.raises(RankError, match="theorem3"):
            certify_theorem1(balanced_design, EstimableSystem(q1), contrasts3)

    def test_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            spec, space, system = random_instance(rng, "theorem1")
            assert certify_theorem1(spec, system, space).passed


class TestTheorem2:
    def test_identity_weight(self, balanced_design, contrasts3):
        report = certify_theorem2(balanced_design, SymMatrix(np.eye(3)), contrasts3)
        assert report.passed
        c_spectrum = eig_sym(information_matrix(balanced_design)).eigenvalues
        np.testing.assert_allclose(report.spectrum_weighted, c_spectrum, atol=1e-9)

    def test_regularized_gram_reduces_to_theorem1(self, balanced_design, control_system,
                                                  contrasts3):
        w = np.eye(3) - contrasts3.projector.entries + control_system.Q @ control_system.Q.T
        report2 = certify_theorem2(balanced_design, SymMatrix(w), contrasts3)
        report1 = certify_theorem1(balanced_design, control_system, contrasts3)
        assert report2.passed
        np.testing.assert_allclose(
            np.sort(report2.spectrum_weighted)[::-1][: contrasts3.dim],
            report1.spectrum_system,
            atol=1e-8,
        )

    def test_deviation_does_not_depend_on_a_power_of_four_scale_of_w(self):
        # W -> 4^j W scales both spectra by 4^-j; W is taken at a power of
        # four, so they keep their bits and R stays clear of the cutoff floor
        spec = DesignSpec.from_replications(4, [2, 2, 3, 2], "blocks", (3, 3, 3))
        space = estimation_space("contrasts", 4)
        w = random_pd_matrix(np.random.default_rng(5), 4).entries
        reports = [certify_theorem2(spec, 4.0 ** j * w, space) for j in range(-20, 61)]
        assert reports[20].passed
        assert {report.deviation for report in reports} == {reports[20].deviation}
        for factor in (1e36, 1e150, 1e300):
            assert certify_theorem2(spec, factor * w, space).passed

    def test_singular_rejected(self, balanced_design, contrasts3):
        with pytest.raises(SingularWeightError, match="theorem4"):
            certify_theorem2(
                balanced_design, SymMatrix(np.eye(3) - np.ones((3, 3)) / 3), contrasts3
            )

    def test_randomized(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            spec, space, w = random_instance(rng, "theorem2")
            assert certify_theorem2(spec, w, space).passed


class TestTheorem3:
    def test_single_contrast(self, balanced_design, q1, contrasts3):
        report = certify_theorem3(balanced_design, EstimableSystem(q1), contrasts3)
        assert report.passed
        np.testing.assert_allclose(report.spectrum_system, [2.0], atol=1e-12)

    def test_duplicated_columns(self, balanced_design, q1, contrasts3):
        system = EstimableSystem(np.column_stack([q1, q1]))
        n = info_matrix_for_system(balanced_design, system)
        assert eig_sym(n).numeric_rank == 1  # one extra zero for s > r
        assert certify_theorem3(balanced_design, system, contrasts3).passed

    def test_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            spec, space, system = random_instance(rng, "theorem3")
            assert certify_theorem3(spec, system, space).passed


class TestTheorem4:
    def test_projector_weight(self, balanced_design, contrasts3):
        w = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
        assert certify_theorem4(balanced_design, w).passed

    def test_control_gram_fixture(self, balanced_design, control_system, contrasts3):
        w = weight_matrix_from_system(control_system, contrasts3)
        assert certify_theorem4(balanced_design, w).passed

    def test_randomized(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            spec, space, w = random_instance(rng, "theorem4")
            assert certify_theorem4(spec, w).passed


class TestCriterionLevelEquivalence:
    def test_positive_spectrum_criteria_agree_between_routes(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            spec, space, system = random_instance(rng, "theorem3")
            n = info_matrix_for_system(spec, system)
            w = weight_matrix_from_system(system, space)
            cw = weighted_info_matrix(spec, w)
            for name in "DAE":
                a = value_from_positive_spectrum(name, eig_sym(n).positive())
                b = value_from_positive_spectrum(name, eig_sym(cw).eigenvalues)
                assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    def test_full_spectrum_e_is_flagged_zero_for_deficient_systems(self, balanced_design,
                                                                   q1, contrasts3):
        system = EstimableSystem(np.column_stack([q1, q1]))
        cv = phi_for_system(balanced_design, system, "E")
        assert cv.value == 0.0 and cv.rank_used == 1 and cv.dim == 2
        assert cv.positive_value > 0.0


class TestSpectralDeviation:
    def test_spectra_apart_by_a_factor_of_two_fail_at_every_scale(self):
        for scale in (1e-10, 1e-5, 1.0, 1e5, 1e10):
            assert spectral_deviation([scale], [2.0 * scale]) > SPECTRAL_TOL
            assert spectral_deviation([2.0 * scale, scale], [2.0 * scale]) > SPECTRAL_TOL

    def test_does_not_depend_on_the_scale_of_the_spectra(self):
        a, b = np.array([3.0, 1.0, 0.25]), np.array([3.0, 1.0 + 1e-9, 0.25])
        base = spectral_deviation(a, b)
        for scale in (1e-10, 1e-3, 1e3, 1e10):
            assert spectral_deviation(scale * a, scale * b) == pytest.approx(base, rel=1e-6)
        assert spectral_deviation(np.zeros(2), np.zeros(3)) == 0.0


class TestInterpretationChecks:
    def test_aopt_on_fixture(self, balanced_design, control_system, contrasts3):
        w = weight_matrix_from_system(control_system, contrasts3)
        report = a_opt_interpretation_check(balanced_design, w, seed=0)
        assert report.passed and "w_orthogonal" in report.deviations

    def test_eopt_on_centering_fixture(self, balanced_design, contrasts3):
        w = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
        report = e_opt_interpretation_check(balanced_design, w)
        assert report.passed
        # C_W = 2 I here, so the largest weighted variance is 1/2
        assert 1.0 / phi_weighted(balanced_design, w, "E").value == pytest.approx(0.5)

    def test_eopt_rank_one(self, balanced_design, q1, contrasts3):
        w = weight_matrix_from_system(EstimableSystem(q1), contrasts3)
        assert e_opt_interpretation_check(balanced_design, w).passed

    @pytest.mark.parametrize("kind", ["aopt", "eopt"])
    def test_a_weighted_information_matrix_under_the_cutoff_is_a_rank_error(self, kind,
                                                                            balanced_design,
                                                                            contrasts3):
        # the readings take W to unit scale, so a W near 1e36 (C_W near
        # 1e-36) passes; at unit scale, C_W of a C whose eigenvalues sit just
        # above the smallest normal float, under a W whose eigenvalues are 1.9,
        # is subnormal, and every eigenvalue falls under the cutoff's floor
        centered = np.eye(3) - np.ones((3, 3)) / 3
        huge = make_weight_matrix(1e36 * centered, contrasts3)
        assert CERTIFY[kind](balanced_design, contrasts3, huge).passed
        assert certify_in_stacks(kind, [(balanced_design, contrasts3, huge, 0)])[0].passed
        assert certify_theorem4(balanced_design, huge).passed
        tiny_c = SymMatrix(2.5e-308 * centered)
        w = make_weight_matrix(1.9 * centered, contrasts3)
        with pytest.raises(RankError, match="rank 0 of d = 2"):
            CERTIFY[kind](tiny_c, contrasts3, w)
        with pytest.raises(RankError, match="rank 0 of d = 2"):
            STACKED_CERTIFICATIONS[kind]([balanced_design, tiny_c], [contrasts3] * 2, [w, w],
                                         [0, 0])

    def test_randomized(self):
        rng = np.random.default_rng(36)
        for i in range(15):
            spec, space, w = random_instance(rng, "aopt")
            assert a_opt_interpretation_check(spec, w, seed=i).passed
            assert e_opt_interpretation_check(spec, w).passed

    @pytest.mark.parametrize("kind", ["aopt", "eopt"])
    def test_verdicts_do_not_depend_on_the_scale_of_the_weights(self, kind, monkeypatch):
        from wdesign import criteria

        spec, space, w = random_instance(np.random.default_rng(3), "aopt")
        scales = (1e-10, 1e-5, 1.0, 1e5, 1e10, 1e14, 1e16)
        weights = [make_weight_matrix(scale * w.matrix.entries, space) for scale in scales]
        for scaled in weights:
            report = CERTIFY[kind](spec, space, scaled)
            assert report.passed and report.deviation <= 1e-12
        # weighted variances made 1e-6 larger: the relative deviation is
        # 1e-6, and the check fails, whatever the scale of W
        variances = criteria.weighted_variances
        monkeypatch.setattr(criteria, "weighted_variances",
                            lambda *args: variances(*args) * (1.0 + 1e-6))
        for scaled in weights:
            report = CERTIFY[kind](spec, space, scaled)
            assert not report.passed
            assert report.deviation == pytest.approx(1e-6, rel=1e-3)

    def test_w_orthogonal_functions_are_the_gram_schmidt_of_their_draw(self, monkeypatch):
        from wdesign import criteria

        seen = []
        variances = criteria.weighted_variances

        def recording(cs, ws, vectors):
            seen.append(vectors)
            return variances(cs, ws, vectors)

        monkeypatch.setattr(criteria, "weighted_variances", recording)
        spec, space, w = random_instance(np.random.default_rng(8), "aopt")
        d, seed = w.d, 11
        assert d >= 2 and a_opt_interpretation_check(spec, w, seed=seed).passed
        # reference: Gram-Schmidt loop on the first d columns of the draw that
        # follows the three rotations
        rng = np.random.default_rng(seed)
        for _ in range(3):
            rng.standard_normal((d, d))
        cols = []
        for a in rng.standard_normal((d, 2 * d + 4)).T[:d]:
            for prev in cols:
                a = a - (a @ prev) / (prev @ prev) * prev
            cols.append(a)
        # the reading takes W to 4^-k and K to 2^-k
        k = at_unit_scale(w.matrix)[1]
        expected = np.ldexp(w.K, -k) @ np.column_stack(cols)
        got = seen[0][0, -d:].T
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        gram = got.T @ pinv(w.matrix).entries @ got
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12 * np.abs(gram).max()

    def test_deviations_do_not_depend_on_a_power_of_four_scale_of_the_weights(self):
        # W -> 4^j W scales every product by a power of two, exactly, so with
        # no floor at machine epsilon each deviation keeps its bits
        spec = DesignSpec.from_replications(4, [2, 2, 3, 2], "blocks", (3, 3, 3))
        space = estimation_space("contrasts", 4)
        k = space.projector.entries @ np.random.default_rng(5).standard_normal((4, 2))
        w = k @ k.T
        checks = {
            "aopt": lambda w: a_opt_interpretation_check(spec, w, seed=3),
            "eopt": lambda w: e_opt_interpretation_check(spec, w),
            "theorem4": lambda w: certify_theorem4(spec, w),
        }
        deviations = {j: {kind: check(make_weight_matrix(4.0 ** j * w, space)).deviation
                          for kind, check in checks.items()}
                      for j in (-40, -20, 0, 20, 40)}
        assert all(deviations[j] == deviations[0] for j in deviations)
        assert all(0.0 < value <= 1e-12 for value in deviations[0].values())

    def test_eopt_bounds_sampled_weighted_variances(self, contrasts3, control_system):
        rng = np.random.default_rng(37)
        spec = DesignSpec.from_replications(3, [3, 2, 1])
        w = weight_matrix_from_system(control_system, contrasts3)
        c = information_matrix(spec)
        bound = 1.0 / phi_weighted(spec, w, "E").value
        samples = []
        for _ in range(1000):
            q = w.K @ rng.standard_normal(w.d)
            samples.append(weighted_variance(c, w, q))
        assert max(samples) <= bound * (1 + 1e-9)
        assert max(samples) >= 0.9 * bound


class TestCachedAnalyses:
    def test_warm_objects_give_the_bits_of_fresh_copies(self):
        rng = np.random.default_rng(38)
        for kind, run in CERTIFY.items():
            for _ in range(8):
                instance = random_instance(rng, kind)
                first = run(*instance)
                warm = run(*instance)
                cold = run(*fresh_copies(*instance))
                assert_same_report(first, cold)
                assert_same_report(warm, cold)

    def test_reports_keep_writable_arrays_of_their_own(self):
        rng = np.random.default_rng(39)
        for kind, run in CERTIFY.items():
            instance = random_instance(rng, kind)
            report = run(*instance)
            arrays = report_arrays(report)
            assert len(arrays) == (2 if kind.startswith("theorem") else 0)
            for x in arrays:
                assert x.flags.writeable
                x[...] = 7.0
            again = run(*instance)
            assert np.float64(again.deviation).tobytes() == np.float64(
                report.deviation).tobytes()
            spec, _, target = instance
            if isinstance(target, (SymMatrix, EstimableSystem)):
                continue
            # the factors are read-only; the report's arrays are its own
            assert not target.K.flags.writeable
            _, eigenvalues = variance_decomposition(spec, target, target.K[:, 0])
            assert eigenvalues.flags.writeable

    def test_information_matrix_is_built_once_per_design(self, balanced_design, contrasts3):
        c = _information(balanced_design)
        check_estimation_spaces(SymStack.of([c]), [contrasts3])
        assert _information(balanced_design) is c
        assert eig_sym(c).cutoff == DERIVED_RANK_RTOL * eig_sym(c).eigenvalues[0]
        assert information_matrix(balanced_design) is not c

    def test_routes_form_no_pseudoinverse_of_c(self, control_system, contrasts3,
                                               monkeypatch):
        inverted = []
        original = SymStack.pinv

        def recording(stack):
            inverted.extend(stack.entries)
            return original(stack)

        monkeypatch.setattr(SymStack, "pinv", recording)
        spec = DesignSpec.from_replications(3, [2, 2, 2])
        c = _information(spec)
        info_matrix_for_system(spec, control_system)
        w = weight_matrix_from_system(control_system, contrasts3)
        weighted_info_matrix(spec, w)
        weighted_variance(spec, w, control_system.Q[:, 0])
        assert inverted
        assert not any(np.array_equal(a, c.entries) for a in inverted)
        pinv(c)
        assert np.array_equal(inverted[-1], c.entries)


def stack_key(instance):
    """The stack ``certify_in_stacks`` certifies an instance in: ``v`` and target width."""
    spec, _, target, _ = instance
    width = getattr(target, "s", getattr(target, "d", getattr(target, "dim", None)))
    return spec.v, width


class TestStackedCertification:
    def test_stack_rows_equal_their_one_instance_reports(self):
        rng = np.random.default_rng(40)
        mixed_ranks = False
        for kind, run in CERTIFY.items():
            instances = [(*random_instance(rng, kind), 5) for _ in range(30)]
            keys = [stack_key(instance) for instance in instances]
            assert max(keys.count(key) for key in keys) > 1
            if kind == "theorem3":
                ranks = {}
                for key, (_, _, system, _) in zip(keys, instances):
                    ranks.setdefault(key, set()).add(system.r)
                mixed_ranks = any(len(r) > 1 for r in ranks.values())
            reports = certify_in_stacks(kind, instances)
            for (spec, space, target, _), report in zip(instances, reports):
                assert_same_report(report, run(*fresh_copies(spec, space, target)))
            # the whole of one stack, and one row alone, straight through the run
            rows = [i for i, key in enumerate(keys) if key == keys[0]]
            columns = [list(part) for part in zip(*(instances[i] for i in rows))]
            for row, report in zip(rows, STACKED_CERTIFICATIONS[kind](*columns)):
                assert_same_report(report, reports[row])
        # a theorem3 stack whose systems span weight matrices of several ranks
        assert mixed_ranks

    def test_first_failing_instance_in_order_raises(self):
        space3, space4 = estimation_space("contrasts", 3), estimation_space("contrasts", 4)
        q3 = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0)
        q4 = np.array([[-1.0, -1.0, -2.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        good3 = (DesignSpec.from_replications(3, [2, 2, 2]), space3, EstimableSystem(q3), 0)
        good4 = (DesignSpec.from_replications(4, [2, 2, 2, 2]), space4,
                 EstimableSystem(np.eye(4)[:, 1:] - 0.25), 0)
        # rank 2 of dim(E) = 3, in the stack of the v = 4 rows
        low_rank = (good4[0], space4, EstimableSystem(q4), 0)
        # treatments 1 and 2 never meet treatment 3 within a block
        disconnected = (DesignSpec(3, (1, 2, 3, 3), "blocks", (2, 2)), space3,
                        EstimableSystem(q3), 0)
        for instance, error in ((low_rank, RankError), (disconnected, SpaceError)):
            with pytest.raises(error):
                certify_in_stacks("theorem1", [instance])
        # the v = 3 stack, certified first, holds the later failure
        with pytest.raises(RankError):
            certify_in_stacks("theorem1", [good3, good4, low_rank, disconnected])
        with pytest.raises(SpaceError):
            certify_in_stacks("theorem1", [good3, disconnected, good4, low_rank])
        assert all(r.passed for r in certify_in_stacks("theorem1", [good3, good4, good3]))
