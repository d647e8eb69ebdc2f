"""Deterministic dense symmetric linear algebra with explicit rank control.

Every matrix that matters downstream (information matrices, weight matrices,
projectors) is symmetric, so this module fixes a single spectral convention
for all of them: eigenvalues are sorted in descending order, and an
eigenvalue counts as nonzero when it exceeds ``tol_rank * max(|lambda|_max,
eps)``.  Pseudoinverses, square roots, factors and projectors all derive
from that one cutoff, which keeps rank decisions consistent everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

EPS = float(np.finfo(float).eps)

#: Relative asymmetry allowed on construction of a SymMatrix.
SYMMETRY_RTOL = 1e-12

#: Relative rank cutoff for matrices assembled from chains of products
#: (information matrices, Gram matrices of systems).  Looser than the bare
#: ``dim * eps`` default so that formation roundoff in structurally singular
#: matrices is never mistaken for signal.
DERIVED_RANK_RTOL = 1e-12


def default_tol_rank(dim: int) -> float:
    """Relative eigenvalue cutoff used when none is supplied."""
    return dim * EPS


class SymMatrix:
    """Dense real symmetric matrix plus the rank tolerance attached to it.

    Parameters
    ----------
    entries : array_like
        Square array, symmetric to ``1e-12`` relative to its largest entry.
        The stored copy is exactly symmetrized and marked read-only.
    tol_rank : float, optional
        Relative eigenvalue cutoff; defaults to ``dim * eps``.
    """

    __slots__ = ("entries", "dim", "tol_rank")

    def __init__(self, entries, tol_rank: float | None = None):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = float(np.max(np.abs(a)))
        if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        self.entries = a
        self.dim = int(a.shape[0])
        tol = default_tol_rank(self.dim) if tol_rank is None else float(tol_rank)
        if tol < 0:
            raise ValueError("tol_rank must be nonnegative")
        self.tol_rank = tol

    def __repr__(self):
        return f"SymMatrix(dim={self.dim}, tol_rank={self.tol_rank:.3g})"


def as_sym(a, tol_rank: float | None = None) -> SymMatrix:
    """Coerce an array (or pass a SymMatrix through) to SymMatrix."""
    if isinstance(a, SymMatrix):
        if tol_rank is None or tol_rank == a.tol_rank:
            return a
        return SymMatrix(a.entries, tol_rank)
    return SymMatrix(a, tol_rank)


def symmetrized(a: np.ndarray, tol_rank: float | None = None) -> SymMatrix:
    """SymMatrix from a product that is symmetric only up to roundoff."""
    return SymMatrix(0.5 * (a + a.T), tol_rank)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with a numerical-rank decision baked in.

    ``eigenvalues`` are descending; column ``i`` of ``eigenvectors`` pairs
    with ``eigenvalues[i]``.  ``numeric_rank`` counts eigenvalues above
    ``cutoff``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    numeric_rank: int
    cutoff: float

    def positive(self) -> np.ndarray:
        """Eigenvalues counted as nonzero, descending."""
        return self.eigenvalues[: self.numeric_rank]

    def basis(self) -> np.ndarray:
        """Orthonormal basis of the span of the counted eigenvalues."""
        return self.eigenvectors[:, : self.numeric_rank]


def eig_sym(A) -> Spectrum:
    """Spectral decomposition of a symmetric matrix, eigenvalues descending.

    The rank cutoff is ``tol_rank * max(|lambda|_max, eps)``.  Within ties
    the eigenvector order is solver-dependent; only spectra and spanned
    subspaces are contractual.
    """
    A = as_sym(A)
    return eigh_desc(A.entries, A.tol_rank)


def eigh_desc(a: np.ndarray, tol_rank: float) -> Spectrum:
    """Spectrum of an exactly symmetric array, with no input checks.

    The one place the spectral convention is written: descending
    eigenvalues and the cutoff ``tol_rank * max(|lambda|_max, eps)``.
    ``eig_sym`` calls it after validating its input; chains that symmetrize
    their own products (the search scorer) call it directly.
    """
    try:
        w, s = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed ({exc}); offending matrix:\n{a!r}",
            matrix=a,
        ) from exc
    w = w[::-1].copy()
    s = s[:, ::-1].copy()
    cutoff = tol_rank * max(float(np.max(np.abs(w))), EPS)
    rank = int(np.count_nonzero(w > cutoff))
    return Spectrum(w, s, rank, cutoff)


def _require_psd(spec: Spectrum, op: str) -> None:
    smallest = float(spec.eigenvalues[-1])
    if smallest < -spec.cutoff:
        raise DomainError(
            f"{op} requires a nonnegative definite matrix "
            f"(smallest eigenvalue {smallest:.3e}, cutoff {spec.cutoff:.3e})"
        )


def _rebuild(spec: Spectrum, values: np.ndarray, tol_rank: float) -> SymMatrix:
    m = (spec.eigenvectors * values) @ spec.eigenvectors.T
    return symmetrized(m, tol_rank)


def pinv(A) -> SymMatrix:
    """Moore-Penrose pseudoinverse of a symmetric matrix, spectral route.

    Eigenvalues whose magnitude clears the rank cutoff are inverted, the
    rest are zeroed; the four Penrose identities then hold to working
    precision, and ``pinv(pinv(A))`` recovers ``A``.
    """
    A = as_sym(A)
    spec = eig_sym(A)
    w = spec.eigenvalues
    keep = np.abs(w) > spec.cutoff
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return _rebuild(spec, inv, A.tol_rank)


def pinv_sqrt(A) -> SymMatrix:
    """``(A^+)^{1/2}`` for nonnegative definite ``A``."""
    A = as_sym(A)
    spec = eig_sym(A)
    _require_psd(spec, "pinv_sqrt")
    w = spec.eigenvalues
    vals = np.zeros_like(w)
    keep = w > spec.cutoff
    vals[keep] = 1.0 / np.sqrt(w[keep])
    return _rebuild(spec, vals, A.tol_rank)


def sqrt_psd(A) -> SymMatrix:
    """Symmetric square root ``A^{1/2}`` of a nonnegative definite ``A``."""
    A = as_sym(A)
    spec = eig_sym(A)
    _require_psd(spec, "sqrt_psd")
    w = spec.eigenvalues
    vals = np.zeros_like(w)
    keep = w > spec.cutoff
    vals[keep] = np.sqrt(w[keep])
    return _rebuild(spec, vals, A.tol_rank)


def sqrt_factor(A) -> np.ndarray:
    """Full-column-rank factor ``K`` with ``K @ K.T == A`` (``A`` psd).

    Stacks the eigenvectors of the positive eigenvalues scaled by their
    square roots, columns in descending eigenvalue order; ``K`` has
    ``numeric_rank(A)`` columns.
    """
    A = as_sym(A)
    spec = eig_sym(A)
    _require_psd(spec, "sqrt_factor")
    d = spec.numeric_rank
    return spec.eigenvectors[:, :d] * np.sqrt(spec.eigenvalues[:d])


def projector(columns) -> SymMatrix:
    """Orthogonal projector onto the column space of ``columns``.

    Computed as ``B (B'B)^+ B'``, so rank-deficient input is handled by the
    pseudoinverse; ``P @ columns == columns`` to working precision.
    """
    b = np.asarray(columns, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if b.ndim != 2 or b.shape[1] < 1 or b.shape[0] < 1:
        raise ValueError(f"projector needs a nonempty set of columns, got shape {b.shape}")
    g = pinv(symmetrized(b.T @ b))
    return symmetrized(b @ g.entries @ b.T, default_tol_rank(b.shape[0]))


def column_space_projector(A) -> SymMatrix:
    """Orthogonal projector onto the column space of a symmetric matrix."""
    A = as_sym(A)
    f = eig_sym(A).basis()
    if f.shape[1] == 0:
        return SymMatrix(np.zeros((A.dim, A.dim)), A.tol_rank)
    return symmetrized(f @ f.T, A.tol_rank)


def generalized_inverse_sample(A, rng, scale: float = 1.0) -> np.ndarray:
    """Random generalized inverse ``A^+ + Z - A^+ A Z A A^+`` of symmetric A.

    Satisfies ``A G A = A`` for any ``Z``; used to verify that quantities
    defined through an arbitrary generalized inverse do not depend on the
    choice.
    """
    A = as_sym(A)
    z = scale * rng.standard_normal((A.dim, A.dim))
    ap = pinv(A).entries
    a = A.entries
    return ap + z - ap @ a @ z @ a @ ap


def max_abs(a) -> float:
    """Largest absolute entry; 0.0 for empty input."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0
