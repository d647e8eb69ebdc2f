"""Treatment-plus-nuisance linear models and their information matrices.

A design assigns one of ``v`` treatments to each of ``n`` experimental
units; nuisance effects enter through an intercept, block indicators, or an
explicit covariate matrix.  The information matrix for the treatment effects
is ``X'(I - P_L)X``, i.e. the treatment indicators with the nuisance
projected out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceError
from .linalg import (
    SymMatrix,
    SymStack,
    as_sym,
    max_abs,
    projector,
    rank_groups,
    symmetrize,
    symmetrized,
    take_rows,
)

#: Residual cutoff, relative to ``max|Q|``, of the one span-membership test.
FEASIBILITY_RTOL = 1e-8

NUISANCE_KINDS = ("intercept", "blocks", "explicit")


@dataclass(frozen=True, eq=False)
class DesignSpec:
    """An exact design: per-unit treatment assignment plus nuisance structure.

    ``assignment`` holds treatment indices in ``1..v``, one per unit.  The
    nuisance is an intercept column, consecutive blocks of the given sizes,
    or an explicit ``n x m`` matrix ``L``.  The information matrix at the
    default rank cutoff is built on first use and kept on the spec.
    """

    v: int
    assignment: tuple[int, ...]
    nuisance_kind: str = "intercept"
    block_sizes: tuple[int, ...] | None = None
    L: np.ndarray | None = None
    _information_matrix: SymMatrix | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if int(self.v) < 1:
            raise ValueError("v must be at least 1")
        object.__setattr__(self, "v", int(self.v))
        assignment = tuple(int(t) for t in self.assignment)
        if not assignment:
            raise ValueError("assignment must list at least one unit")
        if any(t < 1 or t > self.v for t in assignment):
            raise ValueError(f"treatment indices must lie in 1..{self.v}")
        object.__setattr__(self, "assignment", assignment)
        n = len(assignment)
        if self.nuisance_kind not in NUISANCE_KINDS:
            raise ValueError(f"unknown nuisance kind {self.nuisance_kind!r}")
        if self.nuisance_kind == "blocks":
            if not self.block_sizes:
                raise ValueError("blocks nuisance needs block sizes")
            sizes = tuple(int(s) for s in self.block_sizes)
            if any(s < 1 for s in sizes):
                raise ValueError("block sizes must be positive")
            if sum(sizes) != n:
                raise ValueError(f"block sizes sum to {sum(sizes)}, expected n={n}")
            object.__setattr__(self, "block_sizes", sizes)
        elif self.block_sizes is not None:
            raise ValueError("block sizes only apply to the blocks nuisance")
        if self.nuisance_kind == "explicit":
            if self.L is None:
                raise ValueError("explicit nuisance needs the matrix L")
            ell = np.array(self.L, dtype=float)
            if ell.ndim != 2 or ell.shape[0] != n or ell.shape[1] < 1:
                raise ValueError(f"L must be n x m with n={n}, got shape {ell.shape}")
            if not np.all(np.isfinite(ell)):
                raise ValueError("L entries must be finite")
            ell.flags.writeable = False
            object.__setattr__(self, "L", ell)
        elif self.L is not None:
            raise ValueError("L only applies to the explicit nuisance")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def replications(self) -> np.ndarray:
        """Replication count per treatment, length ``v``."""
        r = np.zeros(self.v, dtype=int)
        for t in self.assignment:
            r[t - 1] += 1
        return r

    @classmethod
    def from_replications(cls, v, replications, nuisance_kind="intercept",
                          block_sizes=None, L=None):
        """Design assigning treatment ``t`` to ``replications[t-1]`` units in order."""
        reps = [int(r) for r in replications]
        if len(reps) != v or any(r < 0 for r in reps):
            raise ValueError("replications must be nonnegative, one per treatment")
        assignment = tuple(t for t, r in enumerate(reps, start=1) for _ in range(r))
        return cls(v, assignment, nuisance_kind, block_sizes, L)


def design_matrix(spec: DesignSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(X, L)``: 0/1 treatment indicators and the nuisance matrix,
    an explicit ``L`` with its columns scaled to unit length (same span)."""
    return _indicators(spec), _nuisance_matrix(spec)


def _indicators(spec: DesignSpec) -> np.ndarray:
    n = spec.n
    x = np.zeros((n, spec.v))
    x[np.arange(n), np.asarray(spec.assignment) - 1] = 1.0
    return x


def block_ranges(n: int, nuisance_kind: str,
                 block_sizes: tuple[int, ...] | None) -> tuple[tuple[int, int], ...]:
    """Unit ranges ``(start, end)`` of the blocks; any nuisance other than
    blocks (an intercept) is one block of all ``n`` units."""
    sizes = block_sizes if nuisance_kind == "blocks" else (n,)
    ends = tuple(itertools.accumulate(sizes))
    return tuple(zip((0,) + ends[:-1], ends))


def _nuisance_matrix(spec: DesignSpec) -> np.ndarray:
    if spec.nuisance_kind == "explicit":
        # only the span of L enters C; unit columns keep the Gram matrix of
        # its projector well conditioned whatever the scale of each column.
        # A power of two takes each column near unit scale first, so its
        # norm neither overflows nor underflows and no bit moves
        ell = np.ldexp(spec.L, -np.frexp(np.max(np.abs(spec.L), axis=0))[1])
        norms = np.linalg.norm(ell, axis=0)
        return ell / np.where(norms > 0.0, norms, 1.0)
    blocks = block_ranges(spec.n, spec.nuisance_kind, spec.block_sizes)
    ell = np.zeros((spec.n, len(blocks)))
    for j, (start, end) in enumerate(blocks):
        ell[start:end, j] = 1.0
    return ell


def _residual(spec: DesignSpec) -> np.ndarray:
    return np.eye(spec.n) - projector(_nuisance_matrix(spec)).entries


def nuisance_residual(spec: DesignSpec) -> np.ndarray:
    """``I - P_L``, the projector onto the complement of the nuisance span.

    For an intercept or blocks, ``P_L`` averages within each block, so its
    entries are ``1 / size`` on each block and zero elsewhere; written in
    that closed form, it has the bits of the projector route, since ``B'B``
    is diagonal and every product of that route is exact.  An explicit
    ``L`` goes through ``projector``.  Each call builds a new array.
    """
    if spec.nuisance_kind == "explicit":
        return _residual(spec)
    p = np.zeros((spec.n, spec.n))
    for start, end in block_ranges(spec.n, spec.nuisance_kind, spec.block_sizes):
        p[start:end, start:end] = 1.0 / (end - start)
    return np.eye(spec.n) - p


def information_matrix(spec: DesignSpec) -> SymMatrix:
    """Information matrix ``X'(I - P_L)X`` for the treatment effects.

    Nonnegative definite by construction; when the nuisance contains the
    intercept its rows sum to zero, so the all-ones vector is in its null
    space.  ``I - P_L`` comes from ``nuisance_residual``, in closed form
    for an intercept or blocks.  Each call builds a new matrix; the
    certification routes build it once per spec and keep it on the spec.
    """
    x = _indicators(spec)
    return symmetrized(x.T @ nuisance_residual(spec) @ x)


def span_residuals(q: np.ndarray, projected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one span-membership test: ``q`` is a ``(..., v, s)`` stack of
    systems and ``projected`` their projections onto the span tested.

    Returns the max-abs residual of each column, ``(..., s)``, and whether
    it exceeds ``FEASIBILITY_RTOL * max|q|``, ``max|q|`` taken over the
    whole system: whether the column lies outside the span.  There is no
    floor, so the test does not depend on the scale of ``q``; a zero
    column lies in every span.
    """
    worst = np.abs(q - projected).max(axis=-2)
    scales = np.abs(q).max(axis=(-2, -1), initial=0.0)
    return worst, worst > FEASIBILITY_RTOL * scales[..., None]


@dataclass(frozen=True, eq=False)
class EstimationSpace:
    """Common column space of the competing designs' information matrices."""

    v: int
    kind: str
    projector: SymMatrix
    dim: int

    def contains(self, vectors) -> bool:
        """Whether every column lies in the space (``span_residuals``)."""
        q = np.asarray(vectors, dtype=float)
        if q.ndim == 1:
            q = q[:, None]
        return not span_residuals(q, self.projector.entries @ q)[1].any()


def estimation_space(kind: str, v: int, basis=None) -> EstimationSpace:
    """Build the estimation space: ``full``, ``contrasts`` or ``explicit``.

    ``contrasts`` is the orthogonal complement of the all-ones vector, the
    estimation space of treatment models whose nuisance absorbs the
    intercept.
    """
    if v < 1:
        raise ValueError("v must be at least 1")
    if kind == "full":
        return EstimationSpace(v, kind, SymMatrix(np.eye(v)), v)
    if kind == "contrasts":
        p = SymMatrix(np.eye(v) - np.ones((v, v)) / v)
        return EstimationSpace(v, kind, p, v - 1)
    if kind == "explicit":
        if basis is None:
            raise ValueError("explicit estimation space needs a basis")
        b = np.asarray(basis, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[0] != v:
            raise ValueError(f"basis must have {v} rows, got {b.shape[0]}")
        norms = np.linalg.norm(b, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("basis columns must be nonzero")
        p = projector(b / norms)  # unit columns, as for an explicit L
        dim = int(round(float(np.trace(p.entries))))
        return EstimationSpace(v, kind, p, dim)
    raise ValueError(f"unknown estimation space kind {kind!r}")


def _information(spec_or_matrix) -> SymMatrix:
    """``C`` of a design, built once per DesignSpec, or a given matrix as SymMatrix."""
    if isinstance(spec_or_matrix, DesignSpec):
        c = spec_or_matrix._information_matrix
        if c is None:
            c = information_matrix(spec_or_matrix)
            object.__setattr__(spec_or_matrix, "_information_matrix", c)
        return c
    return as_sym(spec_or_matrix)


def infeasible_columns(spec_or_C, Q) -> tuple[int, ...]:
    """Indices of columns of ``Q`` outside the column space of ``C``.

    The test is ``span_residuals`` against the column-space projector of
    ``C``.  It is ``estimable_forms`` of a one-row stack.
    """
    c = _information(spec_or_C)
    q = np.asarray(Q, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    # the test does not depend on the scale of Q; near unit scale, the forms
    # it discards do not overflow
    q = np.ldexp(q, -np.frexp(max_abs(q))[1])
    return first_infeasible(estimable_forms(SymStack.of([c]), q[None])[0])


def estimable_forms(cs: SymStack, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(bad, forms)``: estimability and ``q' A^+ q`` of each row of a
    stack in one pass, the chain of the ``N_Q`` and ``C_W`` routes, ``R``,
    the weighted variances and the search scorer.

    ``q`` is a ``(B, ..., v, s)`` stack, or one ``(v, s)`` matrix for every
    row.  ``bad`` (``(B, ..., s)``) marks the columns outside the span of
    the eigenvectors ``F`` of their row above the cutoff (``span_residuals``,
    each ``(v, s)`` block on its own scale).  The forms, finite on every
    row, apply ``A^+ = F diag(1/lambda) F'`` as ``(q' @ A^+) @ q``, exactly
    symmetrized.  The rows of one rank go through in one stack.
    """
    dim = cs.entries.shape[1]
    if q.shape[-2] != dim:
        raise ValueError(f"Q must have {dim} rows, got {q.shape[-2]}")
    w, vectors, ranks, _ = cs.spectrum
    count = len(ranks)
    bad = forms = None
    for rank, rows in rank_groups(ranks):
        f = take_rows(vectors, rows, count)[:, :, :rank]
        g = (f / take_rows(w, rows, count)[:, None, :rank]) @ f.transpose(0, 2, 1)
        sub = q if q.ndim == 2 else take_rows(q, rows, count)
        # a row's F and A^+ serve every (v, s) block of that row
        lift = (1,) * (sub.ndim - 3)
        f, g = (a.reshape(a.shape[:1] + lift + a.shape[1:]) for a in (f, g))
        over = span_residuals(sub, f @ (f.swapaxes(-1, -2) @ sub))[1]
        m = symmetrize(sub.swapaxes(-1, -2) @ g @ sub)
        if len(rows) == count:
            return over, m
        if forms is None:
            bad = np.empty((count,) + over.shape[1:], dtype=bool)
            forms = np.empty((count,) + m.shape[1:])
        bad[rows] = over
        forms[rows] = m
    return bad, forms


def first_infeasible(bad: np.ndarray) -> tuple[int, ...]:
    """The columns outside the span in the first row of a ``(B, s)`` ``bad``
    that has any, as ``estimable_forms`` gives it; ``()`` when none has."""
    rows = np.flatnonzero(bad.any(axis=1))
    return tuple(np.flatnonzero(bad[rows[0]]).tolist()) if len(rows) else ()


def check_estimation_spaces(cs: SymStack, spaces) -> None:
    """Verify that the column space of each ``C`` of a stack is the declared
    estimation space of its row, rank and span; SpaceError otherwise.

    Cross-design comparisons assume all competing designs share this column
    space; operations that rely on it call this check instead of assuming.
    """
    projectors = np.stack([space.projector.entries for space in spaces])
    resids, outside = span_residuals(cs.entries, projectors @ cs.entries)
    for rank, space, resid, out in zip(cs.spectrum[2], spaces, resids.max(axis=1).tolist(),
                                       outside.any(axis=1).tolist()):
        if rank != space.dim or out:
            raise SpaceError(
                "information matrix column space does not match the estimation space "
                f"(rank {rank} vs dim {space.dim}, residual {resid:.3e})",
                residual=resid,
            )
