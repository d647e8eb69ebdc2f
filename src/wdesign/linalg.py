"""Deterministic dense symmetric linear algebra with explicit rank control.

Every matrix that matters downstream (information matrices, weight matrices,
projectors) is symmetric, so this module fixes a single spectral convention
for all of them: eigenvalues are sorted in descending order, and an
eigenvalue counts as nonzero when it exceeds ``max(tol * |lambda|_max,
TINY)`` (see ``eigh_desc_stack``), ``tol`` being ``DERIVED_RANK_RTOL``, or
``FILE_RANK_RTOL`` for a matrix typed into a problem file (``typed``).
Pseudoinverses, square roots and projectors all derive from the spectrum a
matrix keeps, so every use of a matrix makes the same rank decisions.  A
SymMatrix keeps only its spectrum; its pseudoinverse, square roots and
projectors are formed afresh on each call.  The one product with a
pseudoinverse, ``Q' A^+ Q``, is written once, with the estimability test it
needs, in ``model.estimable_forms``; every route forms it there and none
forms ``C^+``.

Input is validated once, at the boundary: ``SymMatrix(...)``, ``typed`` and
``as_sym`` on an array check shape, finiteness and symmetry.  Products the
package forms itself go through ``symmetrized``, which makes them exactly
symmetric and so skips the symmetry test, which could not fail on them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

#: Smallest normal float: the floor of every rank cutoff, so a subnormal
#: eigenvalue, which keeps too few bits to invert, never counts.
TINY = float(np.finfo(float).tiny)

#: Relative asymmetry allowed on construction of a SymMatrix.
SYMMETRY_RTOL = 1e-12

#: Relative rank cutoff of every matrix not typed into a problem file:
#: information matrices, weight matrices, Gram matrices of systems and their
#: products.  Loose enough that formation roundoff in structurally singular
#: matrices is never mistaken for signal.
DERIVED_RANK_RTOL = 1e-12

#: Relative rank cutoff of a matrix typed into a problem file as 12-digit decimals.
FILE_RANK_RTOL = 1e-9


def _square_finite(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


class SymMatrix:
    """Dense real symmetric matrix.

    Parameters
    ----------
    entries : array_like
        Square array, symmetric to ``1e-12`` relative to its largest entry.
        The stored copy is exactly symmetrized and marked read-only.

    The matrix never changes, so ``eig_sym`` decomposes it once and keeps
    its spectrum on the object; nothing else is kept.
    """

    __slots__ = ("entries", "dim", "_spectrum")

    def __init__(self, entries):
        a = _square_finite(np.array(entries, dtype=float))
        scale = float(np.max(np.abs(a)))
        if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        self._fill(0.5 * (a + a.T))

    @classmethod
    def _trusted(cls, a: np.ndarray) -> SymMatrix:
        """SymMatrix taking ``a``, an exactly symmetric array, as its entries.

        No symmetry test and no copy: ``a`` is marked read-only and kept.
        Shape and finiteness are still checked.
        """
        m = cls.__new__(cls)
        m._fill(_square_finite(a))
        return m

    def _fill(self, a: np.ndarray) -> None:
        a.flags.writeable = False
        self.entries = a
        self.dim = int(a.shape[0])
        self._spectrum = None

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


def typed(entries) -> SymMatrix:
    """SymMatrix of a matrix typed into a problem file, validated as
    ``SymMatrix(...)`` validates it, whose spectrum is cut at
    ``FILE_RANK_RTOL`` here and kept for every later use."""
    m = SymMatrix(entries)
    m._spectrum = _spectrum(m.entries, FILE_RANK_RTOL)
    return m


def at_unit_scale(m: SymMatrix) -> tuple[SymMatrix, int]:
    """``(4^-k m, k)``, ``k`` half the binary exponent of the largest
    eigenvalue: exact while the entries stay normal, and the spectrum kept
    on ``m``, with its rank decisions, is scaled alike."""
    s = eig_sym(m)
    k = math.frexp(s.eigenvalues[0])[1] // 2
    w = np.ldexp(s.eigenvalues, -2 * k)
    w.flags.writeable = False
    out = SymMatrix._trusted(np.ldexp(m.entries, -2 * k))
    out._spectrum = Spectrum(w, s.eigenvectors, s.numeric_rank, math.ldexp(s.cutoff, -2 * k))
    return out, k


def as_sym(a) -> SymMatrix:
    """Coerce an array (or pass a SymMatrix through) to SymMatrix."""
    return a if isinstance(a, SymMatrix) else SymMatrix(a)


def symmetrized(a: np.ndarray) -> SymMatrix:
    """SymMatrix from a product the package formed, symmetric up to roundoff.

    ``0.5 * (a + a')`` is exactly symmetric, because floating-point addition
    commutes, so it is taken as the entries without the symmetry test that
    ``SymMatrix(...)`` applies to outside input.  Its shape and finiteness
    are still checked.  The entries equal those of
    ``SymMatrix(0.5 * (a + a'))`` bit for bit.
    """
    return SymMatrix._trusted(np.asarray(0.5 * (a + a.T), dtype=float))


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

    The rank cutoff is that of ``eigh_desc_stack`` at ``DERIVED_RANK_RTOL``,
    but for a matrix from ``typed``.  Within ties the eigenvector order is
    solver-dependent; only spectra and spanned subspaces are contractual.
    The spectrum is computed once per SymMatrix and shared by every later
    call, so its arrays are read-only.
    """
    A = as_sym(A)
    if A._spectrum is None:
        A._spectrum = _spectrum(A.entries, DERIVED_RANK_RTOL)
    return A._spectrum


def _spectrum(a: np.ndarray, tol_rank: float) -> Spectrum:
    [w], [s], [rank], [cutoff] = eigh_desc_stack(a[None], tol_rank)
    w = w.copy()
    w.flags.writeable = False
    s.flags.writeable = False
    return Spectrum(w, s, rank, cutoff)


def eigh_desc_stack(a: np.ndarray, tol_rank: float = DERIVED_RANK_RTOL):
    """Descending spectra of a ``(B, v, v)`` stack of exactly symmetric arrays.

    The one place the spectral convention is written: descending
    eigenvalues and the cutoff ``max(tol_rank * |lambda|_max, TINY)``,
    relative above the subnormal range.  A row with a subnormal eigenvalue
    above ``tol_rank * |lambda|_max`` has rank 0 (cutoff ``|lambda|_max``),
    so no rank is cut short by the floor.  Returns the eigenvalues ``(B,
    v)`` (a descending view of the solver's array), the matching
    eigenvectors ``(B, v, v)`` (a copy), and lists of the numeric ranks and
    the cutoffs.  One solver call decomposes each
    matrix of the stack on its own, so a row's result does not depend on the
    stack it came in.  No input is checked.  The cutoffs are taken on Python
    floats, which is exact and cheaper than array reductions on rows this
    short.  The solver returns each row ascending, so its largest magnitude
    is at one end and its rank is the count of entries after the last one at
    or below the cutoff.
    """
    try:
        w, s = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed ({exc}); offending matrices:\n{a!r}",
            matrix=a,
        ) from exc
    ranks = []
    cutoffs = []
    size = w.shape[1]
    for row in w.tolist():
        top = max(-row[0], row[-1])
        cutoff = tol_rank * top
        if cutoff < TINY:
            # dropping a subnormal eigenvalue alone would cut the rank silently
            straddles = bisect.bisect_right(row, TINY) > bisect.bisect_right(row, cutoff)
            cutoff = top if straddles else TINY
        cutoffs.append(cutoff)
        ranks.append(size - bisect.bisect_right(row, cutoff))
    return w[:, ::-1], s[:, :, ::-1].copy(), ranks, cutoffs


def rank_groups(ranks: list[int]):
    """``(rank, rows)`` pairs that cover a stack, one per distinct rank."""
    if ranks.count(ranks[0]) == len(ranks):
        return ((ranks[0], list(range(len(ranks)))),)
    groups = {}
    for row, rank in enumerate(ranks):
        groups.setdefault(rank, []).append(row)
    return groups.items()


def take_rows(stack: np.ndarray, rows: list[int], count: int) -> np.ndarray:
    """The given rows of a ``count``-row stack; all of them without a copy."""
    return stack if len(rows) == count else stack[rows]


def stack_arrays(arrays) -> np.ndarray:
    """``np.stack(arrays)``; a view when there is one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``0.5 * (a + a')`` of each slice of a stack: exactly symmetric."""
    return 0.5 * (a + a.swapaxes(-1, -2))


class SymStack:
    """``B`` exactly symmetric ``v x v`` arrays.

    The stacked counterpart of SymMatrix and the one implementation of the
    spectral maps: ``pinv`` of a SymMatrix is that of its one-row stack;
    ``model.estimable_forms`` forms ``Q' A^+ Q`` on its spectrum.  The
    spectrum, unless given, is decomposed
    once, in one solver call, at ``DERIVED_RANK_RTOL``, and every slice goes
    through the operations it would go through alone, so a row's result
    does not depend on the stack it came in.  The entries are products the
    package formed, so only their finiteness is checked.
    """

    __slots__ = ("entries", "_spectrum")

    def __init__(self, entries: np.ndarray, spectrum=None):
        if not np.isfinite(entries).all():
            raise ValueError("matrix entries must be finite")
        self.entries = entries
        self._spectrum = spectrum

    @classmethod
    def of(cls, mats) -> SymStack:
        """The stack of SymMatrix objects of one size.

        Their spectra are shared with the matrices: each is taken through
        ``eig_sym``, which decomposes a matrix once and keeps its spectrum,
        so each row keeps the cutoff of its own matrix.
        """
        if any(m.dim != mats[0].dim for m in mats):
            raise ValueError("a stack holds matrices of one size")
        spectra = [eig_sym(m) for m in mats]
        return cls(stack_arrays([m.entries for m in mats]),
                   (stack_arrays([s.eigenvalues for s in spectra]),
                    stack_arrays([s.eigenvectors for s in spectra]),
                    [s.numeric_rank for s in spectra], [s.cutoff for s in spectra]))

    @property
    def spectrum(self):
        """``(eigenvalues, eigenvectors, ranks, cutoffs)`` as ``eigh_desc_stack`` gives them."""
        if self._spectrum is None:
            self._spectrum = eigh_desc_stack(self.entries)
        return self._spectrum

    def matrix(self, row: int) -> SymMatrix:
        """Row ``row`` as a SymMatrix."""
        return SymMatrix._trusted(self.entries[row])

    def pinv(self) -> SymStack:
        """Moore-Penrose pseudoinverses: eigenvalues whose magnitude clears
        the cutoff are inverted, the rest zeroed."""
        w, vectors, _, cutoffs = self.spectrum
        inv = np.zeros(w.shape)
        np.divide(1.0, w, out=inv, where=np.abs(w) > np.array(cutoffs)[:, None])
        return SymStack(_rebuild(vectors, inv))

    def pinv_sqrt(self) -> SymStack:
        """``(A^+)^{1/2}`` of nonnegative definite matrices."""
        return self._psd_map("pinv_sqrt", lambda w: 1.0 / np.sqrt(w))

    def sqrt_psd(self) -> SymStack:
        """Symmetric square roots ``A^{1/2}`` of nonnegative definite matrices."""
        return self._psd_map("sqrt_psd", np.sqrt)

    def _psd_map(self, op: str, fn) -> SymStack:
        w, vectors, _, cutoffs = self.spectrum
        for smallest, cutoff in zip(w[:, -1].tolist(), cutoffs):
            if smallest < -cutoff:
                raise DomainError(
                    f"{op} requires a nonnegative definite matrix "
                    f"(smallest eigenvalue {smallest:.3e}, cutoff {cutoff:.3e})"
                )
        vals = np.zeros(w.shape)
        keep = w > np.array(cutoffs)[:, None]
        vals[keep] = fn(w[keep])
        return SymStack(_rebuild(vectors, vals))


def _rebuild(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``V diag(values) V'`` of each slice, exactly symmetrized."""
    return symmetrize((vectors * values[:, None, :]) @ vectors.transpose(0, 2, 1))


def pinv(A) -> SymMatrix:
    """Moore-Penrose pseudoinverse of a symmetric matrix, spectral route.

    Eigenvalues whose magnitude clears the rank cutoff are inverted, the
    rest are zeroed; the four Penrose identities then hold to working
    precision, and ``pinv(pinv(A))`` recovers ``A``.
    """
    return SymStack.of([as_sym(A)]).pinv().matrix(0)


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
    return symmetrized(b @ g.entries @ b.T)


def max_abs(a) -> float:
    """Largest absolute entry; 0.0 for empty input."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0
