"""Systems of estimable functions and their information matrices.

A system is a ``v x s`` coefficient matrix ``Q`` (one column per function of
interest) with positive primary weights ``b``.  The information matrix of a
feasible design for the scaled system ``Q~ = Q diag(sqrt(b))`` is
``(Q~' C^+ Q~)^+``, which covers full-rank and rank-deficient systems alike.
Weight matrices can be turned back into systems through ``(P W^{-1} P)^{+1/2}``
(nonsingular ``W``) or the symmetric square root ``W^{1/2}`` (any rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError, SingularWeightError
from .linalg import SymMatrix, SymStack, as_sym, eig_sym, eigh_desc_stack, symmetrize
from .model import EstimationSpace, _information, estimable_forms, first_infeasible

#: Unit-norm slack below which a system counts as normalized.
NORMALIZED_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class EstimableSystem:
    """Coefficient matrix ``Q`` (columns are functions) with primary weights.

    ``r`` is the numeric rank of the system's weight matrix
    ``W = Q~ Q~'`` at ``DERIVED_RANK_RTOL``, decided on the same bits by the
    same spectral kernel as ``weighting.weight_matrix_from_system``, so
    ``r`` is always the rank ``d`` of that weight matrix.  ``normalized``
    records whether every column has unit length.  Neither is enforced:
    scaled systems are legitimate, and both values are reported rather than
    policed.
    """

    Q: np.ndarray
    b: np.ndarray | None = None
    r: int = field(init=False)
    normalized: bool = field(init=False)

    def __post_init__(self):
        q = np.array(self.Q, dtype=float)
        if q.ndim == 1:
            q = q[:, None]
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
            raise ValueError(f"Q must be a v x s matrix, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("Q entries must be finite")
        s = q.shape[1]
        b = np.ones(s) if self.b is None else np.array(self.b, dtype=float).ravel()
        if b.shape != (s,):
            raise ValueError(f"need one weight per function, got {b.shape[0]} for s={s}")
        if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
            raise ValueError("primary weights must be positive and finite")
        q.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "b", b)
        qs = scale_system(self)
        object.__setattr__(self, "r", eigh_desc_stack(symmetrize(qs @ qs.T)[None])[2][0])
        norms = np.linalg.norm(q, axis=0)
        object.__setattr__(
            self, "normalized", bool(np.max(np.abs(norms - 1.0)) <= NORMALIZED_ATOL)
        )

    @property
    def v(self) -> int:
        return self.Q.shape[0]

    @property
    def s(self) -> int:
        return self.Q.shape[1]


def validate_system(system: EstimableSystem, space: EstimationSpace) -> bool:
    """Whether every column of ``Q`` lies in the estimation space."""
    if system.v != space.v:
        raise ValueError(f"system has {system.v} rows, space expects {space.v}")
    return space.contains(system.Q)


def scale_system(system: EstimableSystem) -> np.ndarray:
    """Scaled coefficients ``Q~ = Q diag(sqrt(b))``; column i is sqrt(b_i) q_i."""
    return system.Q * np.sqrt(system.b)


def info_matrix_for_system(spec_or_C, system: EstimableSystem) -> SymMatrix:
    """Information matrix ``(Q~' C^+ Q~)^+`` for estimating the system.

    Accepts a design or a precomputed information matrix.  Raises
    FeasibilityError naming the offending columns when part of the system is
    not estimable.  It is ``info_matrices`` of a one-row stack.
    """
    c = _information(spec_or_C)
    return info_matrices(SymStack.of([c]), scale_system(system)[None]).matrix(0)


def info_matrices(cs: SymStack, qs: np.ndarray) -> SymStack:
    """``(Q~' C^+ Q~)^+`` of each row of a stack: ``C`` from ``cs`` and the
    scaled coefficients from ``qs`` (``(B, v, s)``).

    The one implementation of the ``N_Q`` route.  FeasibilityError names the
    offending columns of the first row that has any.
    """
    bad, forms = estimable_forms(cs, qs)
    if columns := first_infeasible(bad):
        raise FeasibilityError(
            f"system not estimable under the design; offending columns {list(columns)}",
            columns=columns,
        )
    return SymStack(forms).pinv()


def system_from_weight_matrix_R(w, space: EstimationSpace) -> EstimableSystem:
    """System ``R tau`` with ``R = (P W^{-1} P)^{+1/2}``, for nonsingular W.

    ``R`` is symmetric with column space equal to the estimation space; the
    full ``v x v`` coefficient matrix is kept and its rank reported.  A
    singular ``W`` corresponds to the system ``W^{1/2} tau`` instead; see
    ``system_from_weight_matrix_sqrt``.  ``w`` is a WeightMatrix, a
    SymMatrix or an array.
    """
    wm = as_sym(getattr(w, "matrix", w))
    if wm.dim != space.v:
        raise ValueError(f"W is {wm.dim} x {wm.dim}, space expects v={space.v}")
    spec = eig_sym(wm)
    if spec.numeric_rank < wm.dim or float(spec.eigenvalues[-1]) <= 0.0:
        raise SingularWeightError(
            "W is singular; use system_from_weight_matrix_sqrt for the W^{1/2} system"
        )
    return EstimableSystem(r_coefficients(SymStack.of([wm]), space.projector.entries[None])[0])


def r_coefficients(ws: SymStack, projectors: np.ndarray) -> np.ndarray:
    """``R = (P W^{-1} P)^{+1/2}`` of each row of a stack of nonsingular
    ``W`` and the projectors ``P`` of their estimation spaces."""
    return SymStack(estimable_forms(ws, projectors)[1]).pinv_sqrt().entries


def system_from_weight_matrix_sqrt(w) -> EstimableSystem:
    """System ``W^{1/2} tau`` matching the weight matrix ``W`` (any rank);
    ``w`` is a WeightMatrix, a SymMatrix or an array."""
    return EstimableSystem(SymStack.of([as_sym(getattr(w, "matrix", w))]).sqrt_psd().entries[0])
