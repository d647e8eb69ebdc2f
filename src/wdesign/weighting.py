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
from .estimable import EstimableSystem, scale_system
from .linalg import (
    EPS,
    SymMatrix,
    SymStack,
    as_sym,
    eig_sym,
    max_abs,
    stack_arrays,
    symmetrize,
    symmetrized,
)
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

    ``K`` satisfies ``K K' = W`` and ``K' W^+ K = I_d``; ``F`` is the
    orthonormal basis of the span of ``W`` and ``Wplus`` its pseudoinverse,
    kept because nearly every weighting formula needs them.  All three are
    read-only, because what is built from them, such as a search problem's
    scorer, keeps them.  ``space_check`` records whether the inclusion of
    the span in an estimation space was verified at construction.
    """

    matrix: SymMatrix
    d: int
    K: np.ndarray
    F: np.ndarray
    Wplus: np.ndarray
    space_check: bool

    @property
    def v(self) -> int:
        return self.matrix.dim

    def in_span(self, q) -> bool:
        """Whether ``q`` lies in the column space of ``W`` (``span_residuals``)."""
        q = np.asarray(q, dtype=float).ravel()
        return _in_spans(self.F[None], q[None])[0]


def _in_spans(fs: np.ndarray, q: np.ndarray) -> list[bool]:
    """Whether each row ``q[i]`` lies in the span of the orthonormal ``fs[i]``."""
    col = q[:, :, None]
    return (~span_residuals(col, fs @ (fs.transpose(0, 2, 1) @ col))[1][:, 0]).tolist()


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
    checked = False
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
        checked = True
    d = spec.numeric_rank
    f = spec.eigenvectors[:, :d].copy()
    k = f * np.sqrt(spec.eigenvalues[:d])
    if d:
        wplus = symmetrize((f / spec.eigenvalues[:d]) @ f.T)
    else:
        wplus = np.zeros((wm.dim, wm.dim))
    for factor in (k, f, wplus):
        factor.flags.writeable = False
    return WeightMatrix(wm, d, k, f, wplus, checked)


def weight_matrix_from_system(system: EstimableSystem,
                              space: EstimationSpace | None = None) -> WeightMatrix:
    """Weight matrix ``Q~ Q~'`` induced by a system with its primary weights."""
    qs = scale_system(system)
    return make_weight_matrix(symmetrized(qs @ qs.T), space)


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
    return _raised(_weights([w], q[None])[0])


def _raised(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _weights(ws: list[WeightMatrix], q: np.ndarray) -> list:
    """``weight_of(ws[i], q[i])`` for the rows of ``q``, with the error a row
    would raise in its place; the weight matrices share one rank.  A nonzero
    in-span ``q`` so short that ``q' W^+ q`` underflows has a weight past the
    largest float, which is a DomainError, not ``inf``."""
    wplus = stack_arrays([w.Wplus for w in ws])
    quads = (q[:, None, :] @ wplus @ q[:, :, None]).ravel().tolist()
    spans = _in_spans(stack_arrays([w.F for w in ws]), q)
    out = []
    for nonzero, inside, val in zip(q.any(axis=1).tolist(), spans, quads):
        if not nonzero:
            out.append(DomainError("the weight of the zero function is undefined"))
        elif not inside:
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
    and ``ws[b]``, weight matrices of one rank.

    Every vector's two quadratic forms are ``(1, v) @ (v, v) @ (v, 1)``
    slices, the operations it goes through alone; ``model.estimable_forms``
    builds the ``F diag(1/lambda) F'`` of a row once for all its vectors,
    and tests each vector against that row's ``F`` on its own scale.
    The first vector, in row order, that ``weighted_variance`` would reject
    raises its error.
    """
    count = q.shape[1]
    flat = np.ascontiguousarray(q).reshape(-1, q.shape[2])
    weights = _weights([w for w in ws for _ in range(count)], flat)
    bad, forms = estimable_forms(cs, q[:, :, :, None])
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
    if on is not None:
        p = on.projector.entries
        for name, w in (("W1", w1), ("W2", w2)):
            resids, outside = span_residuals(p, w.F @ (w.F.T @ p))
            if outside.any():
                resid = float(resids.max())
                raise SpaceError(
                    f"comparison space is not weighted by {name} (residual {resid:.3e})",
                    residual=resid,
                )
    else:
        r12, out12 = span_residuals(w2.F, w1.F @ (w1.F.T @ w2.F))
        r21, out21 = span_residuals(w1.F, w2.F @ (w2.F.T @ w1.F))
        if out12.any() or out21.any():
            r12, r21 = max_abs(r12), max_abs(r21)
            raise SpaceError(
                "weight matrices span different sets of functions "
                f"(residuals {r12:.3e}, {r21:.3e})",
                residual=max(r12, r21),
            )
        p = w1.F @ w1.F.T
    m1 = p @ w1.Wplus @ p
    m2 = p @ w2.Wplus @ p
    denom = float(np.sum(m2 * m2))
    if denom <= 0.0:
        raise InternalConsistencyError("projected W2^+ vanished on the comparison span")
    c = float(np.sum(m1 * m2)) / denom
    equivalent = max_abs(m1 - c * m2) <= EQUIVALENCE_RTOL * max(max_abs(m1), EPS)
    return bool(equivalent), c


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
    span of ``Q``, the implied weight ``(q' W^+ q)^{-1}``.
    """
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
    numerical defect, so it raises InternalConsistencyError.  Columns that
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
