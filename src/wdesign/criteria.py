"""Eigenvalue-based optimality criteria and spectral-equivalence certificates.

D, A and E act on the spectrum of an information matrix (either ``N_Q`` for
a system of interest or the weighted ``C_W``); all are oriented so larger is
better.  The certification helpers verify, instance by instance, that the
system route and the weighted route produce the same nonzero spectrum, and
that the E/A criteria mean what they should in terms of weighted variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RankError, SingularWeightError
from .estimable import (
    EstimableSystem,
    info_matrix_for_system,
    scale_system,
    system_from_weight_matrix_R,
    system_from_weight_matrix_sqrt,
)
from .linalg import (
    DERIVED_RANK_RTOL,
    EPS,
    as_sym,
    eig_sym,
    max_abs,
    pinv_sqrt,
    symmetrized,
)
from .model import DesignSpec, EstimationSpace, _information, check_estimation_space
from .weighting import (
    WeightMatrix,
    _weighted_chain,
    weight_matrix_from_system,
    weighted_info_matrix,
    weighted_variance,
)

#: Pass threshold for spectral deviations in the theorem certifications.
SPECTRAL_TOL = 1e-8

#: Pass threshold of the averaged-variance reading of weighted A-optimality.
A_INTERPRETATION_TOL = 1e-8

#: Pass threshold of the worst-case-variance reading of weighted E-optimality.
E_INTERPRETATION_TOL = 1e-9


# ``np.mean`` and ``np.sum`` of a float64 vector are ``np.add.reduce`` (then
# ``/ size``) behind a Python wrapper; the reduction called directly gives the
# same bits at about half the cost.
def _geometric_mean(pos: np.ndarray) -> float:
    return float(np.exp(np.add.reduce(np.log(pos)) / pos.size))


def _harmonic_mean(pos: np.ndarray) -> float:
    return float(pos.size / np.add.reduce(1.0 / pos))


def _smallest(pos: np.ndarray) -> float:
    return float(pos[-1])


#: Eigenvalue-based criteria as functions of the positive spectrum
#: (descending).  The extension point: register a new name here and every
#: evaluation and search routine picks it up.
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
    """Criterion value computed from the positive eigenvalues alone."""
    fn = _criterion_function(name)
    pos = np.asarray(positive, dtype=float)
    if pos.size == 0:
        return 0.0
    pos = pos.copy()
    pos.sort()
    # the descending view, not a descending copy: ``np.log`` picks its inner
    # loop by stride, so a contiguous copy would move the last bit of D
    return fn(pos[::-1])


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
    smallest = float(spec.eigenvalues[-1])
    if smallest < -spec.cutoff:
        raise DomainError(
            f"criteria are defined on nonnegative definite matrices "
            f"(smallest eigenvalue {smallest:.3e})"
        )
    pos = spec.positive().copy()
    if name == "E":
        value = max(smallest, 0.0) if spec.numeric_rank == m.dim else 0.0
    else:
        value = value_from_positive_spectrum(name, pos)
    return CriterionValue(name, value, pos, spec.numeric_rank, m.dim)


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
    magnitude in either (floored at eps), so it does not depend on their scale.

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
    return max_abs(pa - pb) / max(top, EPS)


def certify_theorem1(spec: DesignSpec, system: EstimableSystem,
                     space: EstimationSpace, tol: float = SPECTRAL_TOL) -> CertificationReport:
    """Full-rank route: N_Q against the regularized weighted route.

    For a system whose rank equals dim(E), the positive spectrum of
    ``(Q~' C^+ Q~)^+`` must match that of ``W^{-1/2} C W^{-1/2}`` with
    ``W = I - P + Q~ Q~'``, multiplicities included.
    """
    if system.r < space.dim:
        raise RankError(
            f"system rank {system.r} is below dim(E) = {space.dim}; "
            "use certify_theorem3 for rank-deficient systems"
        )
    c = check_estimation_space(spec, space)
    n = info_matrix_for_system(c, system)
    qs = scale_system(system)
    wp = np.eye(space.v) - space.projector.entries + qs @ qs.T
    wph = pinv_sqrt(symmetrized(wp)).entries
    cw = symmetrized(wph @ c.entries @ wph, DERIVED_RANK_RTOL)
    sys_pos = eig_sym(n).positive().copy()
    w_pos = eig_sym(cw).positive().copy()
    dev = spectral_deviation(sys_pos, w_pos)
    return CertificationReport("theorem1", dev <= tol, dev, tol, sys_pos, w_pos)


def certify_theorem2(spec: DesignSpec, w_pd, space: EstimationSpace,
                     tol: float = SPECTRAL_TOL) -> CertificationReport:
    """Inverse problem, nonsingular W: C_W against N_R, full spectra.

    ``W^{-1/2} C W^{-1/2}`` and the information matrix for ``R tau`` with
    ``R = (P W^{-1} P)^{+1/2}`` are both ``v x v``; their spectra must agree
    including the zero multiplicities.
    """
    wm = as_sym(w_pd)
    ws = eig_sym(wm)
    if ws.numeric_rank < wm.dim or float(ws.eigenvalues[-1]) <= 0.0:
        raise SingularWeightError(
            "theorem2 needs a positive definite W; see certify_theorem4 for singular W"
        )
    c = check_estimation_space(spec, space)
    wph = pinv_sqrt(wm).entries
    cw = symmetrized(wph @ c.entries @ wph, DERIVED_RANK_RTOL)
    r_system = system_from_weight_matrix_R(wm, space)
    n = info_matrix_for_system(c, r_system)
    full_cw = eig_sym(cw).eigenvalues.copy()
    full_n = eig_sym(n).eigenvalues.copy()
    dev = spectral_deviation(full_n, full_cw)
    return CertificationReport("theorem2", dev <= tol, dev, tol, full_n, full_cw)


def certify_theorem3(spec: DesignSpec, system: EstimableSystem,
                     space: EstimationSpace | None = None,
                     tol: float = SPECTRAL_TOL) -> CertificationReport:
    """General route: N_Q against the weighted route of W = Q~ Q~'.

    Holds for any rank, including rank-deficient systems where ``N_Q``
    carries extra zeros; only the positive parts are compared.
    """
    c = _information(spec)
    n = info_matrix_for_system(c, system)
    w = weight_matrix_from_system(system, space)
    cw = weighted_info_matrix(c, w)
    sys_pos = eig_sym(n).positive().copy()
    w_pos = eig_sym(cw).positive().copy()
    dev = spectral_deviation(sys_pos, w_pos)
    return CertificationReport("theorem3", dev <= tol, dev, tol, sys_pos, w_pos)


def certify_theorem4(spec: DesignSpec, w: WeightMatrix,
                     tol: float = SPECTRAL_TOL) -> CertificationReport:
    """Inverse problem, any rank: C_W against the system ``W^{1/2} tau``.

    The ``d x d`` weighted information matrix is zero-padded to ``v`` and
    compared with the full spectrum of ``N`` for ``W^{1/2} tau``.
    """
    c = _information(spec)
    cw = weighted_info_matrix(c, w)
    sqrt_system = system_from_weight_matrix_sqrt(w)
    n = info_matrix_for_system(c, sqrt_system)
    padded_cw = np.zeros(w.v)
    padded_cw[: w.d] = eig_sym(cw).eigenvalues
    full_n = eig_sym(n).eigenvalues.copy()
    dev = spectral_deviation(full_n, padded_cw)
    return CertificationReport("theorem4", dev <= tol, dev, tol, full_n, padded_cw)


@dataclass(frozen=True, eq=False)
class InterpretationReport:
    """Outcome of a variance-interpretation check of a weighted criterion."""

    name: str
    passed: bool
    deviation: float
    tolerance: float
    deviations: dict


def _random_orthogonal(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _w_orthogonal_set(rng, w: WeightMatrix) -> np.ndarray:
    """d mutually W-orthogonal vectors inside the span of W.

    Gram-Schmidt in the inner product ``<a, b> = a' W^+ b``; draws are
    retried if a direction collapses.
    """
    d = w.d
    for _ in range(50):
        cols = []
        candidates = w.K @ rng.standard_normal((d, 2 * d + 4))
        for cand in candidates.T:
            u = cand.copy()
            for prev in cols:
                u -= (u @ w.Wplus @ prev) / (prev @ w.Wplus @ prev) * prev
            if float(np.sqrt(u @ w.Wplus @ u)) > 1e-6 * float(np.linalg.norm(u) + 1.0):
                cols.append(u)
            if len(cols) == d:
                return np.column_stack(cols)
    raise ValueError("could not build a W-orthogonal set; W is too ill-conditioned")


def a_opt_interpretation_check(spec: DesignSpec, w: WeightMatrix, seed: int = 0,
                               trials: int = 3,
                               tol: float = A_INTERPRETATION_TOL) -> InterpretationReport:
    """Averaged-variance reading of weighted A-optimality.

    (a) any ``Q = K Z`` with orthogonal ``Z`` satisfies ``Q Q' = W`` and the
    average weighted variance of its columns equals ``1 / Phi_AW``; (b) the
    same average is attained by ``d`` mutually W-orthogonal functions drawn
    inside the span of ``W``.
    """
    c = _information(spec)
    cw = weighted_info_matrix(c, w)
    target = 1.0 / criterion_value(cw, "A").value
    rng = np.random.default_rng(seed)
    scale = max(1.0, abs(target))
    deviations = {}
    rotations = [np.eye(w.d)] + [_random_orthogonal(rng, w.d) for _ in range(trials)]
    for idx, z in enumerate(rotations):
        q = w.K @ z
        recon = max_abs(q @ q.T - w.matrix.entries) / max(1.0, max_abs(w.matrix.entries))
        avg = float(np.mean([weighted_variance(c, w, q[:, i]) for i in range(w.d)]))
        deviations[f"rotation_{idx}"] = max(abs(avg - target) / scale, recon)
    q = _w_orthogonal_set(rng, w)
    avg = float(np.mean([weighted_variance(c, w, q[:, i]) for i in range(w.d)]))
    deviations["w_orthogonal"] = abs(avg - target) / scale
    worst = max(deviations.values())
    return InterpretationReport("aopt", worst <= tol, worst, tol, deviations)


def e_opt_interpretation_check(spec: DesignSpec, w: WeightMatrix,
                               tol: float = E_INTERPRETATION_TOL) -> InterpretationReport:
    """Worst-case-variance reading of weighted E-optimality.

    ``1 / Phi_EW`` must equal the largest weighted variance over the span of
    ``W``, which is ``lambda_max(K' C^+ K)``, attained at ``q = K u`` for
    the top eigenvector ``u``.
    """
    c = _information(spec)
    m, cw = _weighted_chain(c, w)
    phi_e = criterion_value(cw, "E").value
    ms = eig_sym(m)
    lam_max = float(ms.eigenvalues[0])
    scale = max(1.0, lam_max)
    dev_value = abs(1.0 / phi_e - lam_max) / scale
    q_star = w.K @ ms.eigenvectors[:, 0]
    dev_argmax = abs(weighted_variance(c, w, q_star) - lam_max) / scale
    deviations = {"value": dev_value, "maximizer": dev_argmax}
    worst = max(deviations.values())
    return InterpretationReport("eopt", worst <= tol, worst, tol, deviations)
