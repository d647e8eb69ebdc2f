"""Shared fixtures (the two-test-treatments-vs-control setting reused throughout)
and the Hypothesis profile of the suite."""

import numpy as np
import pytest
from hypothesis import settings

from wdesign import DesignSpec, EstimableSystem, estimation_space
from wdesign.linalg import as_sym, pinv

# Property tests draw the same few examples on every run, so the suite stays
# reproducible and quick; nothing is written to an example database.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=25,
                          database=None)
settings.load_profile("tier1")

SQRT2 = np.sqrt(2.0)


def contrast(v, i, j):
    """Normalized elementary contrast comparing treatments i and j (1-based)."""
    q = np.zeros(v)
    q[i - 1], q[j - 1] = -1.0, 1.0
    return q / SQRT2


def generalized_inverse_sample(A, rng, scale=1.0):
    """Random generalized inverse ``A^+ + Z - A^+ A Z A A^+`` of symmetric A.

    Satisfies ``A G A = A`` for any ``Z``; the oracle for quantities defined
    through an arbitrary generalized inverse, which must not depend on the
    choice.
    """
    A = as_sym(A)
    z = scale * rng.standard_normal((A.dim, A.dim))
    ap = pinv(A).entries
    a = A.entries
    return ap + z - ap @ a @ z @ a @ ap


@pytest.fixture
def q1():
    return contrast(3, 1, 2)


@pytest.fixture
def q2():
    return contrast(3, 1, 3)


@pytest.fixture
def q3():
    return contrast(3, 2, 3)


@pytest.fixture
def control_system(q1, q2):
    """Two test treatments compared against the first (the control)."""
    return EstimableSystem(np.column_stack([q1, q2]))


@pytest.fixture
def contrasts3():
    return estimation_space("contrasts", 3)


@pytest.fixture
def full3():
    return estimation_space("full", 3)


@pytest.fixture
def balanced_design():
    """v=3, n=6, two replicates per treatment, intercept nuisance."""
    return DesignSpec.from_replications(3, [2, 2, 2])


@pytest.fixture
def unit_weight_pair():
    """Two positive definite matrices giving both control contrasts weight 1.

    They disagree on other contrasts, so they are not estimation equivalent.
    With ``Q = [q1 q2]``, ``Q'W_a^{-1}Q = I`` while ``Q'W_b^{-1}Q`` has
    off-diagonal -1/2; as ``q3 = q2 - q1``, ``q3`` has weight 1/2 under
    ``w_a`` and 1/3 under ``w_b``.
    """
    w_a = np.array([[1.5, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    w_b = np.array([[2.5, -1.0, -1.0], [-1.0, 2 / 3, 1 / 3], [-1.0, 1 / 3, 2 / 3]])
    return w_a, w_b
