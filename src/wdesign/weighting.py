"""Weight matrices, weighted variances, and primary/secondary weights.

A weight matrix is any nonnegative definite ``W`` whose column space lies
inside the estimation space.  The weight it assigns to an estimable function
``q'tau`` is ``(q' W^+ q)^{-1}`` for ``q`` in the span of ``W`` and zero
outside (reported as an explicit ``None`` marker, since the only in-span
vector of zero weight is ``q = 0``).  ``W`` factors as ``K K'`` with ``K``
of full column rank ``d``, and the weighted information matrix of a design
is the ``d x d`` positive definite ``(K' C^+ K)^{-1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FeasibilityError,
    InternalConsistencyError,
    SpaceError,
)
from .estimable import EstimableSystem
from .linalg import SymMatrix, SymStack, as_sym, eig_sym, max_abs
from .model import EstimationSpace, _information, estimable_forms, first_infeasible, span_residuals

#: Relative tolerance of the proportionality test in estimation equivalence.
EQUIVALENCE_RTOL = 1e-8

#: Relative slack of the weight-dominance check: a secondary weight counts as
#: above (or below) its primary weight only by more than this share of the
#: larger of the two, so the verdict does not depend on the scale of ``b``.
DOMINANCE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Validated weight matrix with its full-column-rank factorization.

    ``K`` satisfies ``K K' = W`` and ``K' W^+ K = I_d``.  It is read-only,
    because what is built from it, such as a search problem's scorer, keeps
    it.  Every ``q' W^+ q`` and span test goes through
    ``model.estimable_forms`` on ``matrix``.  It records no estimation
    space: whoever needs the span inside one tests it there.
    """

    matrix: SymMatrix
    d: int
    K: np.ndarray

    @property
    def v(self) -> int:
        return self.matrix.dim

    def in_span(self, q) -> bool:
        """Whether ``q`` lies in the column space of ``W`` (``span_residuals``)."""
        q = np.asarray(q, dtype=float).reshape(1, -1, 1)
        return not estimable_forms(SymStack.of([self.matrix]), q)[0][0, 0]


def make_weight_matrix(w_raw, space: EstimationSpace | None = None) -> WeightMatrix:
    """Validate a symmetric matrix as a weight matrix and factor it.

    Checks nonnegative definiteness, and, when an estimation space is given,
    that the columns of ``W`` lie inside it (``span_residuals``).
    """
    wm = as_sym(w_raw)
    spec = eig_sym(wm)
    smallest = float(spec.eigenvalues[-1])
    if smallest < -spec.cutoff:
        raise DomainError(
            f"weight matrix must be nonnegative definite (smallest eigenvalue {smallest:.3e})"
        )
    if space is not None:
        if space.v != wm.dim:
            raise ValueError(f"W is {wm.dim} x {wm.dim}, space expects v={space.v}")
        resids, outside = span_residuals(wm.entries, space.projector.entries @ wm.entries)
        if outside.any():
            resid = float(resids.max())
            raise SpaceError(
                f"column space of W escapes the estimation space (residual {resid:.3e})",
                residual=resid,
            )
    d = spec.numeric_rank
    k = spec.basis() * np.sqrt(spec.eigenvalues[:d])
    k.flags.writeable = False
    return WeightMatrix(wm, d, k)


def weight_matrix_from_system(system: EstimableSystem,
                              space: EstimationSpace | None = None) -> WeightMatrix:
    """Weight matrix ``Q~ Q~'`` induced by a system with its primary weights:
    the system's own ``W``, whose spectrum it already holds."""
    return make_weight_matrix(system.W, space)


def _vector(q, v: int) -> np.ndarray:
    q = np.asarray(q, dtype=float).ravel()
    if q.shape != (v,):
        raise ValueError(f"expected a vector of length {v}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("vector entries must be finite")
    return q


def weight_of(w: WeightMatrix, q) -> float | None:
    """Weight ``(q' W^+ q)^{-1}`` of an estimable function, or None.

    ``None`` is the explicit zero-weight marker for vectors outside the span
    of ``W``; the zero vector is rejected because its weight is undefined.
    """
    q = _vector(q, w.v)
    return _raised(_weights([w], q[None, None])[0])


def _raised(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _weights(ws: list[WeightMatrix], q: np.ndarray) -> list:
    """``weight_of(ws[b], q[b, j])`` for the ``(B, N, v)`` stack ``q``, in row
    order, with the error a vector would raise in its place; the span test
    and ``q' W^+ q`` come from ``model.estimable_forms``.  A nonzero in-span
    ``q`` so short that ``q' W^+ q`` underflows has a weight past the
    largest float, which is a DomainError, not ``inf``."""
    bad, quads = estimable_forms(SymStack.of([w.matrix for w in ws]), q[..., None])
    out = []
    for nonzero, outside, val in zip(q.any(axis=2).ravel().tolist(), bad.ravel().tolist(),
                                     quads.ravel().tolist()):
        if not nonzero:
            out.append(DomainError("the weight of the zero function is undefined"))
        elif outside:
            out.append(None)
        elif val < 0.0:
            out.append(InternalConsistencyError(
                f"q' W^+ q = {val:.3e} for an in-span q; weight must be positive"))
        elif val == 0.0 or 1.0 / val == math.inf:
            out.append(DomainError(
                f"the weight of q overflows a float (q' W^+ q = {val:.3e})"))
        else:
            out.append(1.0 / val)
    return out


def weighted_variance(spec_or_C, w: WeightMatrix, q) -> float:
    """Weighted variance ``(q' W^+ q)^{-1} (q' C^+ q)`` of the estimate of q'tau.

    It is ``weighted_variances`` of a one-row stack.
    """
    q = _vector(q, w.v)
    cs = SymStack.of([_information(spec_or_C)])
    return float(weighted_variances(cs, [w], q[None, None])[0, 0])


def weighted_variances(cs: SymStack, ws: list[WeightMatrix], q: np.ndarray) -> np.ndarray:
    """``weighted_variance`` of each vector of a stack: entry ``(b, j)`` is
    that of ``q[b, j]`` (``q`` is ``(B, N, v)``) under row ``b`` of ``cs``
    and ``ws[b]``; each row keeps the rank cutoff of its own ``W``.

    Every vector's two quadratic forms are ``(1, v) @ (v, v) @ (v, 1)``
    slices, the operations it goes through alone; ``model.estimable_forms``
    builds the ``F diag(1/lambda) F'`` of a row, of ``C`` and of ``W``, once
    for all its vectors, and tests each vector against that row's ``F`` on
    its own scale.  The first vector, in row order, that
    ``weighted_variance`` would reject raises its error.
    """
    weights = _weights(ws, q)
    bad, forms = estimable_forms(cs, q[..., None])
    for wt, out in zip(weights, bad.ravel().tolist()):
        if _raised(wt) is None:
            raise SpaceError("q lies outside the span of the weight matrix")
        if out:
            raise FeasibilityError("q'tau is not estimable under the design", columns=(0,))
    quads = forms.ravel().tolist()
    return np.array([wt * quad for wt, quad in zip(weights, quads)]).reshape(q.shape[:2])


def weighted_info_matrix(spec_or_C, w: WeightMatrix) -> SymMatrix:
    """Weighted information matrix ``(K' C^+ K)^{-1}``, ``d x d`` positive definite.

    Requires every weighted function to be estimable, i.e. the span of ``W``
    inside the column space of ``C``.  It is ``weighted_info_matrices`` of a
    one-row stack.
    """
    c = _information(spec_or_C)
    return weighted_info_matrices(SymStack.of([c]), w.K[None])[1].matrix(0)


def weighted_info_matrices(cs: SymStack, ks: np.ndarray) -> tuple[SymStack, SymStack]:
    """``(K' C^+ K, (K' C^+ K)^{-1})`` of each row of a stack: ``C`` from
    ``cs`` and the factors ``K`` of one rank ``d`` from ``ks`` (``(B, v, d)``).

    The one implementation of the ``C_W`` route; see ``weighted_info_matrix``.
    """
    if ks.shape[2] == 0:
        raise DomainError("weight matrix of rank zero weights nothing")
    bad, forms = estimable_forms(cs, ks)
    if columns := first_infeasible(bad):
        raise FeasibilityError(
            "weighted functions are not estimable under this design "
            f"(K columns {list(columns)})",
            columns=columns,
        )
    m = SymStack(forms)
    if min(m.spectrum[2]) < ks.shape[2]:
        raise FeasibilityError(
            "K' C^+ K is numerically singular; the design sits on the feasibility boundary"
        )
    return m, m.pinv()


def variance_decomposition(spec_or_C, w: WeightMatrix, q) -> tuple[np.ndarray, np.ndarray]:
    """Convex-combination view of the weighted variance.

    Returns ``(coefficients, eigenvalues)`` for the weighted information
    matrix: the coefficients are nonnegative, sum to one, and the weighted
    variance equals ``sum(coefficients / eigenvalues)``.
    """
    q = _vector(q, w.v)
    if not w.in_span(q):
        raise SpaceError("q lies outside the span of the weight matrix")
    cw = weighted_info_matrix(spec_or_C, w)
    h = np.linalg.lstsq(w.K, q, rcond=None)[0]
    spec = eig_sym(cw)
    g = spec.eigenvectors.T @ h
    total = float(g @ g)
    if total <= 0.0:
        raise InternalConsistencyError("in-span q produced a zero coordinate vector")
    return g**2 / total, spec.eigenvalues.copy()


def estimation_equivalent(w1: WeightMatrix, w2: WeightMatrix,
                          on: EstimationSpace | None = None) -> tuple[bool, float]:
    """Do two weight matrices assign proportional weights on a common span?

    By default the column spaces must agree (each basis inside the other's
    span, by ``span_residuals``) and the comparison space is that common
    span.  Passing ``on`` compares on an estimation space contained in both
    spans instead, which covers pairs like a rank-deficient ``W`` against
    its full-rank regularization.
    Returns ``(equivalent, c)`` with ``q'W1^- q = c q'W2^- q`` on the span.
    """
    if w1.v != w2.v:
        raise ValueError("weight matrices must share dimensions")
    f1, f2 = (eig_sym(w.matrix).basis() for w in (w1, w2))
    if on is not None:
        p = on.projector.entries
        for name, f in (("W1", f1), ("W2", f2)):
            resids, outside = span_residuals(p, f @ (f.T @ p))
            if outside.any():
                resid = float(resids.max())
                raise SpaceError(
                    f"comparison space is not weighted by {name} (residual {resid:.3e})",
                    residual=resid,
                )
    else:
        r12, out12 = span_residuals(f2, f1 @ (f1.T @ f2))
        r21, out21 = span_residuals(f1, f2 @ (f2.T @ f1))
        if out12.any() or out21.any():
            r12, r21 = max_abs(r12), max_abs(r21)
            raise SpaceError(
                "weight matrices span different sets of functions "
                f"(residuals {r12:.3e}, {r21:.3e})",
                residual=max(r12, r21),
            )
        p = f1 @ f1.T
    m1, m2 = (estimable_forms(SymStack.of([w.matrix]), p)[1][0] for w in (w1, w2))
    s1, s2 = max_abs(m1), max_abs(m2)
    if not (s1 and s2):
        raise InternalConsistencyError("projected W^+ vanished on the comparison span")
    # compared at unit scale, so no product underflows whatever the scale of W
    u1, u2 = m1 / s1, m2 / s2
    ratio = float(np.sum(u1 * u2)) / float(np.sum(u2 * u2))
    return bool(max_abs(u1 - ratio * u2) <= EQUIVALENCE_RTOL), ratio * (s1 / s2)


@dataclass(frozen=True, eq=False)
class WeightRecord:
    """One function's weights: primary (assigned) and secondary (implied)."""

    q: np.ndarray
    primary: float | None
    secondary: float | None
    in_span: bool


@dataclass(frozen=True, eq=False)
class WeightReport:
    """Primary/secondary weight analysis of a system plus queried vectors."""

    weight_matrix: WeightMatrix
    records: tuple[WeightRecord, ...]


def secondary_weights(system: EstimableSystem, queries=()) -> WeightReport:
    """Secondary (implied) weights under the system's own weight matrix.

    The system's columns are always included, carrying their primary
    weights; each query vector gets its span status and, when inside the
    span of ``Q``, the implied weight ``(q' W^+ q)^{-1}``.  A system whose
    ``W`` falls below the rank cutoff is a DomainError.
    """
    if system.r == 0:
        raise DomainError("a system of rank zero weights nothing")
    w = weight_matrix_from_system(system)
    records = []
    for j in range(system.s):
        qj = system.Q[:, j].copy()
        records.append(WeightRecord(qj, float(system.b[j]), weight_of(w, qj), True))
    for q in queries:
        q = _vector(q, system.v)
        secondary = weight_of(w, q)
        records.append(WeightRecord(q, None, secondary, secondary is not None))
    return WeightReport(w, tuple(records))


def check_weight_dominance(system: EstimableSystem) -> tuple[bool, ...]:
    """Verify each secondary weight ``w(q_i) >= b_i``; return strictness flags.

    A violation beyond tolerance cannot come from the model, only from a
    numerical defect, so it raises InternalConsistencyError; a system of
    rank zero is a DomainError, as in ``secondary_weights``.  Columns that
    are linear combinations of the others pick up extra implied weight and
    get flagged strict.
    """
    report = secondary_weights(system)
    flags = []
    for j in range(system.s):
        secondary = report.records[j].secondary
        primary = float(system.b[j])
        if secondary is None:
            raise InternalConsistencyError(f"column {j} has no secondary weight")
        slack = DOMINANCE_RTOL * max(primary, secondary)
        if secondary < primary - slack:
            raise InternalConsistencyError(
                f"secondary weight {secondary} of column {j} fell below its "
                f"primary weight {primary}"
            )
        flags.append(bool(secondary > primary + slack))
    return tuple(flags)
