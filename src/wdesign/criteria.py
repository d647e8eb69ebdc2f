"""Eigenvalue-based optimality criteria and spectral-equivalence certificates.

D, A and E act on the spectrum of an information matrix (either ``N_Q`` for
a system of interest or the weighted ``C_W``); all are oriented so larger is
better.  The certification helpers verify, instance by instance, that the
system route and the weighted route produce the same nonzero spectrum, and
that the E/A criteria mean what they should in terms of weighted variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RankError, SingularWeightError, WdesignError
from .estimable import (
    EstimableSystem,
    info_matrices,
    info_matrix_for_system,
    r_coefficients,
    scale_system,
)
from .linalg import (
    SymStack,
    as_sym,
    at_unit_scale,
    eig_sym,
    max_abs,
    rank_groups,
    symmetrize,
)
from .model import DesignSpec, EstimationSpace, _information, check_estimation_spaces
from .weighting import (
    WeightMatrix,
    weight_matrix_from_system,
    weighted_info_matrices,
    weighted_info_matrix,
    weighted_variances,
)

#: Pass threshold for spectral deviations in the theorem certifications.
SPECTRAL_TOL = 1e-8

#: Pass threshold of the averaged-variance reading of weighted A-optimality.
A_INTERPRETATION_TOL = 1e-8

#: Pass threshold of the worst-case-variance reading of weighted E-optimality.
E_INTERPRETATION_TOL = 1e-9


# Each criterion maps a ``(B, r)`` stack of ascending positive spectra to its
# ``B`` values, each with the bits of its row alone.  ``np.log`` picks its
# inner loop by stride, and only a reversed 1-D view (libm's scalar loop, not
# the SIMD one) gives every row the bits of that row's own reversed view.
# Rows are summed descending by ``np.add.reduce``, which ``np.sum`` wraps.
def _geometric_mean(ascending: np.ndarray) -> np.ndarray:
    logs = np.log(ascending.ravel()[::-1]).reshape(ascending.shape)[::-1]
    return np.exp(np.add.reduce(logs, axis=1) / ascending.shape[1])


def _harmonic_mean(ascending: np.ndarray) -> np.ndarray:
    return ascending.shape[1] / np.add.reduce(1.0 / ascending[:, ::-1], axis=1)


def _smallest(ascending: np.ndarray) -> np.ndarray:
    return ascending[:, 0]


#: Eigenvalue-based criteria as functions of a ``(B, r)`` stack of positive
#: spectra, each row ascending, to the ``B`` values.  The extension point:
#: register a new name here and every evaluation and search routine picks
#: it up.
POSITIVE_SPECTRUM_CRITERIA = {
    "D": _geometric_mean,
    "A": _harmonic_mean,
    "E": _smallest,
}


def _criterion_function(name: str):
    """The registered criterion ``name``; DomainError for an unknown name."""
    try:
        return POSITIVE_SPECTRUM_CRITERIA[name]
    except KeyError:
        raise DomainError(
            f"unknown criterion {name!r}; available: "
            f"{sorted(POSITIVE_SPECTRUM_CRITERIA)}"
        ) from None


def value_from_positive_spectrum(name: str, positive) -> float:
    """Criterion value computed from the positive eigenvalues alone: the
    registered criterion on the one-row stack of them, sorted ascending."""
    fn = _criterion_function(name)
    pos = np.asarray(positive, dtype=float)
    if pos.size == 0:
        return 0.0
    pos = pos.copy()
    pos.sort()
    return float(fn(pos[None])[0])


@dataclass(frozen=True, eq=False)
class CriterionValue:
    """A criterion evaluation together with the spectrum it came from.

    ``spectrum_used`` holds the positive eigenvalues (descending) and
    ``rank_used`` their count; ``dim`` is the declared size of the matrix,
    so ``rank_used < dim`` flags a singular instance (where E is zero by
    convention while D and A are computed on the positive part).
    """

    name: str
    value: float
    spectrum_used: np.ndarray
    rank_used: int
    dim: int

    @property
    def positive_value(self) -> float:
        """The criterion on the positive spectrum (equals ``value`` unless
        the matrix is singular and the criterion is E)."""
        return value_from_positive_spectrum(self.name, self.spectrum_used)


def criterion_value(m, name: str) -> CriterionValue:
    """Evaluate an eigenvalue-based criterion on a nonnegative definite matrix.

    D is the geometric mean of the positive eigenvalues, A their harmonic
    mean, and E the smallest eigenvalue of the full declared spectrum, hence
    0 for singular matrices.
    """
    _criterion_function(name)
    m = as_sym(m)
    spec = eig_sym(m)
    return _spectrum_value(name, spec.eigenvalues, spec.numeric_rank, spec.cutoff, m.dim)


def _spectrum_value(name: str, eigenvalues: np.ndarray, rank: int, cutoff: float,
                    dim: int) -> CriterionValue:
    """``criterion_value`` of the matrix with this descending spectrum."""
    smallest = float(eigenvalues[-1])
    if smallest < -cutoff:
        raise DomainError(
            f"criteria are defined on nonnegative definite matrices "
            f"(smallest eigenvalue {smallest:.3e})"
        )
    pos = eigenvalues[:rank].copy()
    if name == "E":
        value = max(smallest, 0.0) if rank == dim else 0.0
    else:
        value = value_from_positive_spectrum(name, pos)
    return CriterionValue(name, value, pos, rank, dim)


def phi_for_system(spec_or_C, system: EstimableSystem, name: str) -> CriterionValue:
    """Criterion of the information matrix for the (scaled) system."""
    return criterion_value(info_matrix_for_system(spec_or_C, system), name)


def phi_weighted(spec_or_C, w: WeightMatrix, name: str) -> CriterionValue:
    """Criterion of the weighted information matrix."""
    return criterion_value(weighted_info_matrix(spec_or_C, w), name)


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outcome of one spectral-equivalence certification.

    The spectra are the report's own arrays, copied from the cached spectra
    they were read from, so callers may write into them.
    """

    name: str
    passed: bool
    deviation: float
    tolerance: float
    spectrum_system: np.ndarray
    spectrum_weighted: np.ndarray


def spectral_deviation(sa, sb) -> float:
    """Max elementwise gap of two descending spectra, relative to the largest
    magnitude in either, with no floor, so it does not depend on their scale;
    two zero spectra do not differ.

    The shorter spectrum is zero-padded, so the same helper serves both the
    positive-part and the full-spectrum (zero multiplicity) comparisons.
    """
    sa = np.sort(np.asarray(sa, dtype=float))[::-1]
    sb = np.sort(np.asarray(sb, dtype=float))[::-1]
    size = max(sa.size, sb.size)
    pa = np.zeros(size)
    pb = np.zeros(size)
    pa[: sa.size] = sa
    pb[: sb.size] = sb
    top = max(max_abs(pa), max_abs(pb))
    return max_abs(pa - pb) / top if top else 0.0


def _designs(specs) -> SymStack:
    return SymStack.of([_information(spec) for spec in specs])


def _projectors(spaces) -> np.ndarray:
    return np.stack([space.projector.entries for space in spaces])


def _positive(stack: SymStack) -> list[np.ndarray]:
    values, _, ranks, _ = stack.spectrum
    return [row[:rank].copy() for row, rank in zip(values, ranks)]


def _full(stack: SymStack) -> list[np.ndarray]:
    return [row.copy() for row in stack.spectrum[0]]


def _spectral_reports(name: str, system_spectra, weighted_spectra) -> list[CertificationReport]:
    reports = []
    for sa, sb in zip(system_spectra, weighted_spectra):
        dev = spectral_deviation(sa, sb)
        reports.append(CertificationReport(name, dev <= SPECTRAL_TOL, dev, SPECTRAL_TOL, sa, sb))
    return reports


def certify_theorem1(spec: DesignSpec, system: EstimableSystem,
                     space: EstimationSpace) -> CertificationReport:
    """Full-rank route: N_Q against the regularized weighted route.

    For a system whose rank equals dim(E), the positive spectrum of
    ``(Q~' C^+ Q~)^+`` must match that of ``W^{-1/2} C W^{-1/2}`` with
    ``W = s (I - P) + Q~ Q~'``, multiplicities included.  ``C`` vanishes
    off E, so any ``s > 0`` gives that spectrum; ``s`` is the power of two
    at the scale of the largest eigenvalue of ``Q~ Q~'``, so the deviation
    does not depend on the scale of ``b`` (exactly so under ``b -> 4^j b``).
    """
    return _theorem1([spec], [space], [system])[0]


def _theorem1(specs, spaces, systems, seeds=None):
    for system, space in zip(systems, spaces):
        if system.r < space.dim:
            raise RankError(
                f"system rank {system.r} is below dim(E) = {space.dim}; "
                "use certify_theorem3 for rank-deficient systems"
            )
    cs = _designs(specs)
    check_estimation_spaces(cs, spaces)
    qs = np.stack([scale_system(system) for system in systems])
    n = info_matrices(cs, qs)
    v = qs.shape[1]
    scales = [math.ldexp(1.0, math.frexp(eig_sym(system.W).eigenvalues[0])[1] - 1)
              for system in systems]
    wp = (np.array(scales)[:, None, None] * (np.eye(v) - _projectors(spaces))
          + qs @ qs.transpose(0, 2, 1))
    wph = SymStack(symmetrize(wp)).pinv_sqrt().entries
    cw = SymStack(symmetrize(wph @ cs.entries @ wph))
    return _spectral_reports("theorem1", _positive(n), _positive(cw))


def certify_theorem2(spec: DesignSpec, w_pd, space: EstimationSpace) -> CertificationReport:
    """Inverse problem, nonsingular W: C_W against N_R, full spectra.

    ``W^{-1/2} C W^{-1/2}`` and the information matrix for ``R tau`` with
    ``R = (P W^{-1} P)^{+1/2}`` are both ``v x v``; their spectra must agree
    including the zero multiplicities.  ``W`` is taken at ``4^-k``, ``k``
    half the binary exponent of its largest eigenvalue: both spectra scale
    by ``4^k`` exactly, so the deviation does not depend on the scale of
    ``W`` (to the bit under ``W -> 4^j W``), and ``R`` does not underflow
    when ``W`` is large.
    """
    return _theorem2([spec], [space], [w_pd])[0]


def _unit_weights(ws: list[WeightMatrix]) -> list[WeightMatrix]:
    """Each ``W`` at ``4^-k`` (``linalg.at_unit_scale``), its ``K`` at
    ``2^-k``: no product overflows, and deviations keep their bits."""
    return [WeightMatrix(m, w.d, np.ldexp(w.K, -k))
            for w in ws for m, k in [at_unit_scale(w.matrix)]]


def _theorem2(specs, spaces, ws, seeds=None):
    wms = SymStack.of([at_unit_scale(as_sym(w))[0] for w in ws])
    values, _, ranks, _ = wms.spectrum
    for rank, smallest in zip(ranks, values[:, -1].tolist()):
        if rank < values.shape[1] or smallest <= 0.0:
            raise SingularWeightError(
                "theorem2 needs a positive definite W; see certify_theorem4 for singular W"
            )
    cs = _designs(specs)
    check_estimation_spaces(cs, spaces)
    wph = wms.pinv_sqrt().entries
    cw = SymStack(symmetrize(wph @ cs.entries @ wph))
    n = info_matrices(cs, r_coefficients(wms, _projectors(spaces)))
    return _spectral_reports("theorem2", _full(n), _full(cw))


def certify_theorem3(spec: DesignSpec, system: EstimableSystem,
                     space: EstimationSpace | None = None) -> CertificationReport:
    """General route: N_Q against the weighted route of W = Q~ Q~'.

    Holds for any rank, including rank-deficient systems where ``N_Q``
    carries extra zeros; only the positive parts are compared.
    """
    return _theorem3([spec], [space], [system])[0]


def _theorem3(specs, spaces, systems, seeds=None):
    cs = _designs(specs)
    n = info_matrices(cs, np.stack([scale_system(system) for system in systems]))
    ws = [weight_matrix_from_system(system, space) for system, space in zip(systems, spaces)]
    # W = Q~ Q~' has the rank of Q, which the width of Q does not fix
    weighted = [None] * len(ws)
    for _, rows in rank_groups([w.d for w in ws]):
        _, cw = weighted_info_matrices(_designs([specs[i] for i in rows]),
                                       np.stack([ws[i].K for i in rows]))
        for row, positive in zip(rows, _positive(cw)):
            weighted[row] = positive
    return _spectral_reports("theorem3", _positive(n), weighted)


def certify_theorem4(spec: DesignSpec, w: WeightMatrix) -> CertificationReport:
    """Inverse problem, any rank: C_W against the system ``W^{1/2} tau``.

    The ``d x d`` weighted information matrix is zero-padded to ``v`` and
    compared with the full spectrum of ``N`` for ``W^{1/2} tau``.
    """
    return _theorem4([spec], [None], [w])[0]


def _theorem4(specs, spaces, ws, seeds=None):
    cs = _designs(specs)
    _, cw = weighted_info_matrices(cs, np.stack([w.K for w in ws]))
    n = info_matrices(cs, SymStack.of([w.matrix for w in ws]).sqrt_psd().entries)
    padded = []
    for w, values in zip(ws, cw.spectrum[0]):
        row = np.zeros(w.v)
        row[: w.d] = values
        padded.append(row)
    return _spectral_reports("theorem4", _full(n), padded)


@dataclass(frozen=True, eq=False)
class InterpretationReport:
    """Outcome of a variance-interpretation check of a weighted criterion."""

    name: str
    passed: bool
    deviation: float
    tolerance: float
    deviations: dict


def a_opt_interpretation_check(spec: DesignSpec, w: WeightMatrix,
                               seed: int = 0) -> InterpretationReport:
    """Averaged-variance reading of weighted A-optimality.

    (a) any ``Q = K Z`` with orthogonal ``Z`` satisfies ``Q Q' = W`` and the
    average weighted variance of its columns equals ``1 / Phi_AW``; (b) the
    same average is attained by ``d`` mutually W-orthogonal functions drawn
    inside the span of ``W``.  ``Z`` is the identity, then three rotations
    drawn from ``seed``.  The W-orthogonal functions are ``u = K a`` for
    orthogonal columns ``a``, since ``(K a)' W^+ (K b) = a' b``: the
    unnormalized Gram-Schmidt columns of a ``d x d`` normal draw, which are
    the columns of its ``Q`` scaled by the diagonal of its ``R``.
    """
    return _aopt([spec], [None], [w], [seed])[0]


def _full_rank(cw: SymStack, d: int) -> None:
    """RankError unless every row of ``C_W`` keeps all ``d`` eigenvalues
    above the rank cutoff, as the readings of A and E need."""
    if (rank := min(cw.spectrum[2])) < d:
        raise RankError(f"the weighted information matrix keeps rank {rank} of d = {d} "
                        "above the rank cutoff")


def _aopt(specs, spaces, ws, seeds):
    trials = 3  # rotations drawn from each seed, after the identity
    ws = _unit_weights(ws)
    cs = _designs(specs)
    ks = np.stack([w.K for w in ws])
    _, cw = weighted_info_matrices(cs, ks)
    _full_rank(cw, ks.shape[2])
    values, _, ranks, cutoffs = cw.spectrum
    count, v, d = ks.shape
    targets = [1.0 / _spectrum_value("A", values[i], ranks[i], cutoffs[i], d).value
               for i in range(count)]
    # each instance draws its rotations, then its W-orthogonal coefficients
    # (the first d columns of a (d, 2d + 4) draw, a width that keeps seeded
    # reports stable), from its seed; one QR factors them all
    normals = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        normals += [rng.standard_normal((d, d)) for _ in range(trials)]
        normals.append(rng.standard_normal((d, 2 * d + 4))[:, :d])
    q, r = np.linalg.qr(np.array(normals))
    q = q.reshape(count, trials + 1, d, d)
    diag = np.diagonal(r, axis1=1, axis2=2).reshape(count, trials + 1, 1, d)
    z = np.empty((count, trials + 1, d, d))
    z[:, 0] = np.eye(d)
    z[:, 1:] = q[:, :trials] * np.sign(diag[:, :trials])
    w_orthogonal = ks @ (q[:, trials] * diag[:, trials])
    rotated = np.repeat(ks, trials + 1, axis=0) @ z.reshape(-1, d, d)
    wm = np.stack([w.matrix.entries for w in ws])
    recon = np.abs(rotated @ rotated.transpose(0, 2, 1) - np.repeat(wm, trials + 1, axis=0))
    recon = recon.max(axis=(1, 2)).reshape(count, trials + 1).tolist()
    vectors = np.concatenate([rotated.transpose(0, 2, 1).reshape(count, -1, v),
                              w_orthogonal.transpose(0, 2, 1)], axis=1)
    variances = weighted_variances(cs, ws, vectors)
    reports = []
    for target, w_entries, errors, row in zip(targets, wm, recon, variances):
        w_scale = max_abs(w_entries)
        averages = [float(np.mean(row[i * d:(i + 1) * d])) for i in range(trials + 2)]
        deviations = {f"rotation_{idx}": max(abs(avg - target) / target, error / w_scale)
                      for idx, (avg, error) in enumerate(zip(averages, errors))}
        deviations["w_orthogonal"] = abs(averages[-1] - target) / target
        worst = max(deviations.values())
        reports.append(InterpretationReport("aopt", worst <= A_INTERPRETATION_TOL, worst,
                                            A_INTERPRETATION_TOL, deviations))
    return reports


def e_opt_interpretation_check(spec: DesignSpec, w: WeightMatrix) -> InterpretationReport:
    """Worst-case-variance reading of weighted E-optimality.

    ``1 / Phi_EW`` must equal the largest weighted variance over the span of
    ``W``, which is ``lambda_max(K' C^+ K)``, attained at ``q = K u`` for
    the top eigenvector ``u``.
    """
    return _eopt([spec], [None], [w])[0]


def _eopt(specs, spaces, ws, seeds=None):
    ws = _unit_weights(ws)
    cs = _designs(specs)
    ks = np.stack([w.K for w in ws])
    m, cw = weighted_info_matrices(cs, ks)
    _full_rank(cw, ks.shape[2])
    values, _, ranks, cutoffs = cw.spectrum
    m_values, m_vectors, _, _ = m.spectrum
    checks = []
    for i, lam_max in enumerate(m_values[:, 0].tolist()):
        phi_e = _spectrum_value("E", values[i], ranks[i], cutoffs[i], ks.shape[2]).value
        checks.append((lam_max, abs(1.0 / phi_e - lam_max) / lam_max))
    maximizers = (ks @ m_vectors[:, :, :1]).transpose(0, 2, 1)
    reports = []
    for (lam_max, dev_value), (variance,) in zip(
            checks, weighted_variances(cs, ws, maximizers).tolist()):
        deviations = {"value": dev_value, "maximizer": abs(variance - lam_max) / lam_max}
        worst = max(deviations.values())
        reports.append(InterpretationReport("eopt", worst <= E_INTERPRETATION_TOL, worst,
                                            E_INTERPRETATION_TOL, deviations))
    return reports


#: Certification kind -> its run over a stack of instances, called as
#: ``run(specs, spaces, targets, seeds)`` and returning one report per
#: instance; the functions above are its one-instance case.  ``aopt`` draws
#: its rotations from the seeds, which the other kinds do not use.
STACKED_CERTIFICATIONS = {
    "theorem1": _theorem1,
    "theorem2": _theorem2,
    "theorem3": _theorem3,
    "theorem4": _theorem4,
    "aopt": _aopt,
    "eopt": _eopt,
}


def _target_width(target) -> int:
    """Columns of a target: ``s`` of a system, ``d`` of a weight matrix, else ``v``."""
    if isinstance(target, EstimableSystem):
        return target.s
    if isinstance(target, WeightMatrix):
        return target.d
    return as_sym(target).dim


def certify_in_stacks(kind: str, instances) -> list:
    """Reports of one certification kind on ``(spec, space, target, seed)``
    instances, in their order.

    The instances are certified in stacks of one ``v`` and target width,
    each row bit-identical to its one-instance certification.  If a stack
    raises, the instances are certified again one at a time, in order, so
    the first instance that fails on its own raises its own error.
    """
    run = STACKED_CERTIFICATIONS[kind]
    groups = {}
    for index, (spec, _, target, _) in enumerate(instances):
        groups.setdefault((spec.v, _target_width(target)), []).append(index)
    reports = [None] * len(instances)
    try:
        for rows in groups.values():
            columns = [list(part) for part in zip(*(instances[i] for i in rows))]
            for row, report in zip(rows, run(*columns)):
                reports[row] = report
    except (WdesignError, ValueError, ArithmeticError):
        for instance in instances:
            run(*([part] for part in instance))
        raise
    return reports
