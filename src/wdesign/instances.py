"""Seeded random designs, systems and weight matrices for certification runs.

Everything here takes a ``numpy.random.Generator`` so batches are exactly
reproducible.  Draws are retried until the instance is comfortably
conditioned (``_accepts``); the certifications assert agreement to 1e-8, so
instances near a feasibility or rank boundary are not interesting, only
fragile.
"""

from __future__ import annotations

import functools

import numpy as np

from .estimable import EstimableSystem
from .linalg import SymMatrix, eig_sym, symmetrized
from .model import DesignSpec, EstimationSpace, _information, estimation_space
from .weighting import WeightMatrix, make_weight_matrix

#: Smallest accepted ratio of extreme positive eigenvalues in drawn instances.
CONDITION_FLOOR = 1e-4

#: Shortest drawn system column that is normalized: normalizing a shorter
#: one blows its roundoff out of the estimation space.
SHORTEST_COLUMN = 1e-8


def _accepts(matrix: SymMatrix, rank: int) -> bool:
    """Whether ``matrix`` has numeric rank ``rank`` and its smallest kept
    eigenvalue is at least ``CONDITION_FLOOR`` of its largest; the spectrum
    stays on the matrix."""
    s = eig_sym(matrix)
    pos = s.positive()
    return s.numeric_rank == rank and pos[-1] >= CONDITION_FLOOR * pos[0]


def _partition(rng, n: int, parts: int) -> tuple[int, ...]:
    cuts = np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
    edges = np.concatenate([[0], cuts, [n]])
    return tuple(int(b - a) for a, b in zip(edges[:-1], edges[1:]))


def random_design(rng) -> DesignSpec:
    """Connected design: every treatment used, information matrix of rank v-1."""
    v = int(rng.integers(3, 9))
    n = int(rng.integers(v, 15))
    for _ in range(500):
        # a connected block design needs n >= v + (#blocks - 1)
        kind = "blocks" if n > v and rng.integers(0, 2) else "intercept"
        assignment = np.concatenate(
            [rng.permutation(v) + 1, rng.integers(1, v + 1, size=n - v)]
        )
        rng.shuffle(assignment)
        sizes = None
        if kind == "blocks":
            # n > v >= 3, so there are at least two parts
            sizes = _partition(rng, n, min(int(rng.integers(2, 4)), n - v + 1, n - 1))
        spec = DesignSpec(v, tuple(int(t) for t in assignment), kind, sizes)
        if _accepts(_information(spec), v - 1):
            return spec
    raise ValueError(f"failed to draw a well-conditioned connected design (v={v}, n={n})")


def random_system(rng, space: EstimationSpace, s: int | None = None,
                  full_rank: bool = True, scaled: bool = False) -> EstimableSystem:
    """System with normalized columns inside the estimation space.

    ``full_rank=False`` appends columns that are combinations of the base
    ones, producing ``s > r``.  A draw is accepted on the ``W = QQ'`` of its
    unit columns, whose eigenvalues are the squared singular values of
    ``Q``.  ``scaled`` then draws primary weights in ``[0.5, 2]`` instead of
    all ones.
    """
    e = space.dim
    if e < 1:
        raise ValueError("estimation space is trivial")
    for _ in range(500):
        if full_rank:
            count = int(rng.integers(1, e + 1)) if s is None else int(s)
            q = space.projector.entries @ rng.standard_normal((space.v, count))
        else:
            base = int(rng.integers(1, e + 1))
            extras = int(rng.integers(1, 3))
            q0 = space.projector.entries @ rng.standard_normal((space.v, base))
            q = np.column_stack([q0, q0 @ rng.standard_normal((base, extras))])
            count = base
        norms = np.linalg.norm(q, axis=0)
        if np.any(norms < SHORTEST_COLUMN):
            continue
        system = EstimableSystem(q / norms)
        if not _accepts(system.W, count):
            continue
        if not scaled:
            return system
        return EstimableSystem(system.Q, rng.uniform(0.5, 2.0, size=system.s))
    raise ValueError("failed to draw a well-conditioned system")


def random_weight_matrix(rng, space: EstimationSpace) -> WeightMatrix:
    """Weight matrix of random rank ``d`` with column space inside the estimation space."""
    e = space.dim
    if e < 1:
        raise ValueError("estimation space is trivial")
    d = int(rng.integers(1, e + 1))
    for _ in range(500):
        k = space.projector.entries @ rng.standard_normal((space.v, d))
        w = symmetrized(k @ k.T / d)
        if _accepts(w, d):
            return make_weight_matrix(w, space)
    raise ValueError("failed to draw a well-conditioned weight matrix")


def random_pd_matrix(rng, v: int) -> SymMatrix:
    """Well-conditioned positive definite v x v matrix."""
    a = rng.standard_normal((v, v)) / np.sqrt(v)
    ridge = 0.5 + float(rng.uniform())
    return symmetrized(a @ a.T + ridge * np.eye(v))


@functools.lru_cache(maxsize=6)
def _contrasts(v: int) -> EstimationSpace:
    """The contrasts space of ``v`` treatments, built once per ``v`` of the
    generator's range 3-8; it is immutable and its projector read-only."""
    return estimation_space("contrasts", v)


def random_instance(rng, kind: str):
    """One certification instance: ``(spec, space, target)``.

    ``kind`` selects the target shape: ``theorem1`` draws a full-rank system
    spanning the estimation space, ``theorem3`` any system (possibly
    rank-deficient or scaled), ``theorem2`` a positive definite matrix, and
    ``theorem4``/``aopt``/``eopt`` a weight matrix of any admissible rank.
    """
    spec = random_design(rng)
    space = _contrasts(spec.v)
    if kind == "theorem1":
        target = random_system(rng, space, s=space.dim, full_rank=True,
                               scaled=bool(rng.integers(0, 2)))
    elif kind == "theorem3":
        target = random_system(rng, space, full_rank=bool(rng.integers(0, 2)),
                               scaled=bool(rng.integers(0, 2)))
    elif kind == "theorem2":
        target = random_pd_matrix(rng, spec.v)
    elif kind in ("theorem4", "aopt", "eopt"):
        target = random_weight_matrix(rng, space)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return spec, space, target
