"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Criterion 1 separates primary from secondary weights: both unit-weight
matrices give the control contrasts ``q1``, ``q2`` weight 1, so
``G = Q'W^{-1}Q`` has unit diagonal for ``Q = [q1 q2]``.  Since
``q3 = q2 - q1``, the implied weight of ``q3`` is ``1 / (2 - 2 G_12)``: 1/2
for the first matrix (``G = I``) and 1/3 for the second (``G_12 = -1/2``),
which is why the two are not estimation equivalent.
"""

import time

import numpy as np

from conftest import contrast, generalized_inverse_sample
from wdesign import (
    EstimableSystem,
    SearchProblem,
    a_opt_interpretation_check,
    argmax_equivalence_check,
    certify_theorem1,
    certify_theorem2,
    certify_theorem3,
    certify_theorem4,
    e_opt_interpretation_check,
    estimation_equivalent,
    info_matrix_for_system,
    information_matrix,
    make_weight_matrix,
    pinv,
    scale_system,
    secondary_weights,
    check_weight_dominance,
    weight_matrix_from_system,
    weight_of,
    weighted_variance,
    variance_decomposition,
)
from wdesign.instances import random_instance
from wdesign.linalg import symmetrized


def report(number, ok, detail):
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_1_unit_weight_matrices(unit_weight_pair, full3, q1, q2, q3):
    w_a_raw, w_b_raw = unit_weight_pair
    w_a = make_weight_matrix(w_a_raw, full3)
    w_b = make_weight_matrix(w_b_raw, full3)
    q = np.column_stack([q1, q2])

    ok_weights = (
        abs(weight_of(w_a, q3) - 0.5) <= 1e-10
        and abs(weight_of(w_b, q3) - 1 / 3) <= 1e-10
    )
    gram_a = q.T @ np.linalg.inv(w_a_raw) @ q
    gram_b = q.T @ np.linalg.inv(w_b_raw) @ q
    ok_gram_a = np.max(np.abs(gram_a - np.eye(2))) <= 1e-10
    ok_unit_b = all(abs(weight_of(w_b, qi) - 1.0) <= 1e-10 for qi in (q1, q2))
    ok_offdiag_b = max(abs(gram_b[0, 1] + 0.5), abs(gram_b[1, 0] + 0.5)) <= 1e-10
    equivalent, _ = estimation_equivalent(w_a, w_b)
    ok_not_equivalent = not equivalent

    ok = ok_weights and ok_gram_a and ok_unit_b and ok_offdiag_b and ok_not_equivalent
    report(
        1,
        ok,
        f"weights 1/2 and 1/3 {'ok' if ok_weights else 'FAIL'}; "
        f"gram identity first matrix {'ok' if ok_gram_a else 'FAIL'}; "
        f"unit weights second matrix {'ok' if ok_unit_b else 'FAIL'}; "
        f"gram off-diagonal -1/2 second matrix {'ok' if ok_offdiag_b else 'FAIL'} "
        f"(off-diagonal {gram_b[0, 1]:.6g}); "
        f"not estimation equivalent {'ok' if ok_not_equivalent else 'FAIL'}",
    )
    assert ok_weights
    assert ok_gram_a
    assert ok_not_equivalent
    assert ok_unit_b, (
        "second matrix does not give q1 and q2 weight 1: "
        f"{weight_of(w_b, q1):.6g}, {weight_of(w_b, q2):.6g}"
    )
    assert ok_offdiag_b, (
        "Gram off-diagonal of the second matrix is "
        f"{gram_b[0, 1]:.6g}, not the -1/2 that unit weights on q1, q2 and "
        "weight 1/3 on q3 = q2 - q1 force"
    )


def test_acceptance_2_induced_weight_matrix_displays(control_system, contrasts3):
    w1 = weight_matrix_from_system(control_system, contrasts3).matrix.entries
    expected1 = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    w2 = weight_matrix_from_system(
        EstimableSystem(control_system.Q, [1.0, 2.0]), contrasts3
    ).matrix.entries
    expected2 = 0.5 * np.array([[3.0, -1, -2], [-1, 1, 0], [-2, 0, 2]])
    err = max(np.max(np.abs(w1 - expected1)), np.max(np.abs(w2 - expected2)))
    ok = err <= 1e-12
    assert report(2, ok, f"induced weight matrices entrywise to 1e-12 (max err {err:.2e})")


def test_acceptance_3_secondary_weights(q1, q2, q3):
    checks = []
    rep = secondary_weights(EstimableSystem(np.column_stack([q1, q2])), [q3])
    checks.append(abs(rep.records[-1].secondary - 0.5))
    rep = secondary_weights(EstimableSystem(np.column_stack([q1, q3]), [1.0, 0.5]), [q2])
    checks.append(abs(rep.records[-1].secondary - 1 / 3))
    rep = secondary_weights(EstimableSystem(np.column_stack([q1, q2, q3]), [1.0, 1.0, 0.5]))
    implied = np.array([r.secondary for r in rep.records])
    checks.append(np.max(np.abs(implied - [4 / 3, 4 / 3, 1.0])))
    rep = secondary_weights(EstimableSystem(np.column_stack([q1, q1])))
    checks.append(abs(rep.records[0].secondary - 2.0))
    worst = max(checks)
    ok = worst <= 1e-10
    assert report(3, ok, f"secondary-weight fixtures to 1e-10 (max err {worst:.2e})")


def test_acceptance_4_theorem_certifications():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {}
    for kind, runner in (
        ("theorem1", lambda s, e, t: certify_theorem1(s, t, e)),
        ("theorem2", lambda s, e, t: certify_theorem2(s, t, e)),
        ("theorem3", lambda s, e, t: certify_theorem3(s, t, e)),
        ("theorem4", lambda s, e, t: certify_theorem4(s, t)),
    ):
        deviations = []
        for _ in range(100):
            spec, space, target = random_instance(rng, kind)
            result = runner(spec, space, target)
            deviations.append(result.deviation)
            assert result.passed, (kind, result.deviation)
        worst[kind] = max(deviations)
    elapsed = time.perf_counter() - started
    ok = all(w <= 1e-8 for w in worst.values()) and elapsed < 60.0
    assert report(
        4, ok,
        "100 instances per theorem, worst deviations "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f", {elapsed:.1f}s",
    )


def test_acceptance_5_interpretation_oracles():
    rng = np.random.default_rng(2025)
    worst_e = 0.0
    worst_a = 0.0
    for i in range(100):
        spec, space, w = random_instance(rng, "eopt")
        r_e = e_opt_interpretation_check(spec, w)
        r_a = a_opt_interpretation_check(spec, w, seed=i)
        assert r_e.tolerance == 1e-9 and r_a.tolerance == 1e-8
        worst_e = max(worst_e, r_e.deviation)
        worst_a = max(worst_a, r_a.deviation)
        assert r_e.passed and r_a.passed, (i, r_e.deviation, r_a.deviation)
    ok = worst_e <= 1e-9 and worst_a <= 1e-8
    assert report(
        5, ok,
        f"E interpretation to 1e-9 (worst {worst_e:.2e}), "
        f"A interpretation to 1e-8 for both constructions (worst {worst_a:.2e})",
    )


def test_acceptance_6_proposition_suite(balanced_design, contrasts3, control_system, q1):
    rng = np.random.default_rng(2026)
    ok = True
    notes = []

    # convex-combination decomposition of the weighted variance
    w = weight_matrix_from_system(control_system, contrasts3)
    for _ in range(50):
        q = w.K @ rng.standard_normal(w.d)
        coeffs, lam = variance_decomposition(balanced_design, w, q)
        ok &= bool(np.all(coeffs >= -1e-12))
        ok &= abs(float(coeffs.sum()) - 1.0) <= 1e-9
        ok &= abs(float(np.sum(coeffs / lam))
                  - weighted_variance(balanced_design, w, q)) <= 1e-8
    notes.append("decomposition ok" if ok else "decomposition FAIL")

    # unit implied weights for full-rank normalized systems
    gram = control_system.Q.T @ pinv(w.matrix).entries @ control_system.Q
    ident = np.max(np.abs(gram - np.eye(2))) <= 1e-9
    ok &= ident
    notes.append("Q'W^+Q identity ok" if ident else "Q'W^+Q identity FAIL")

    # dominance, strict for dependent columns
    dup = EstimableSystem(np.column_stack([q1, q1]))
    strict_dup = check_weight_dominance(dup)
    three = EstimableSystem(
        np.column_stack([q1, contrast(3, 1, 3), contrast(3, 2, 3)]), [1.0, 1.0, 0.5]
    )
    strict_three = check_weight_dominance(three)
    dominance = strict_dup == (True, True) and strict_three == (True, True, True)
    full_rank_flags = check_weight_dominance(control_system) == (False, False)
    ok &= dominance and full_rank_flags
    notes.append("dominance ok" if dominance and full_rank_flags else "dominance FAIL")

    # the centering projector weights every normalized contrast equally
    pathological = make_weight_matrix(np.eye(3) - np.ones((3, 3)) / 3, contrasts3)
    deviations = []
    for _ in range(50):
        q = contrasts3.projector.entries @ rng.standard_normal(3)
        q /= np.linalg.norm(q)
        deviations.append(abs(weight_of(pathological, q) - 1.0))
    flat = max(deviations) <= 1e-9
    ok &= flat
    notes.append("flat-weight projector ok" if flat else "flat-weight projector FAIL")

    assert report(6, ok, "; ".join(notes))


def test_acceptance_7_argmax_equivalence_desk_scale(control_system, contrasts3):
    started = time.perf_counter()
    ok = True
    for n in (4, 5, 6):
        for name in "DAE":
            for b in (None, [1.0, 2.0]):
                problem = SearchProblem(
                    v=3, n=n, criterion=name,
                    target=EstimableSystem(control_system.Q, b),
                    space=contrasts3,
                )
                check = argmax_equivalence_check(problem)
                ok &= check.passed
    elapsed = time.perf_counter() - started
    assert report(
        7, ok,
        f"double enumeration identical for n in 4..6, D/A/E, both scalings "
        f"({elapsed:.1f}s)",
    )


def test_acceptance_8_generalized_inverse_independence(balanced_design, contrasts3,
                                                       control_system):
    rng = np.random.default_rng(2028)
    worst = 0.0
    instances = [(balanced_design, control_system)]
    for _ in range(4):
        spec, space, system = random_instance(rng, "theorem3")
        instances.append((spec, system))
    for spec, system in instances:
        c = information_matrix(spec)
        w = weight_matrix_from_system(system)
        q = w.K @ rng.standard_normal(w.d)
        base_weight = weight_of(w, q)
        base_info = info_matrix_for_system(c, system).entries
        base_wvar = weighted_variance(c, w, q)
        qs = scale_system(system)
        for _ in range(50):
            g_w = generalized_inverse_sample(w.matrix, rng)
            g_c = generalized_inverse_sample(c, rng)
            worst = max(worst, abs(1.0 / float(q @ g_w @ q) - base_weight))
            alt_info = pinv(symmetrized(qs.T @ g_c @ qs)).entries
            worst = max(worst, float(np.max(np.abs(alt_info - base_info))))
            alt_wvar = float(q @ g_c @ q) / float(q @ g_w @ q)
            worst = max(worst, abs(alt_wvar - base_wvar))
    ok = worst <= 1e-9
    assert report(
        8, ok,
        f"weight, system information and weighted variance stable over 50 "
        f"generalized inverses per instance (worst {worst:.2e})",
    )
