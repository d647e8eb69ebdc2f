"""Hypothesis properties of the model: invariances the paper's math implies."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from wdesign import (
    DesignSpec,
    EstimableSystem,
    eig_sym,
    info_matrix_for_system,
    information_matrix,
    weight_matrix_from_system,
)
from wdesign.instances import random_instance


@given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-3.0, 3.0))
def test_scaling_the_system_scales_the_spectrum_of_n_q(seed, log_c):
    # N_Q = (Q~'C^+Q~)^+, so Q -> cQ scales its positive spectrum by 1/c^2
    spec, _, system = random_instance(np.random.default_rng(seed), "theorem3")
    c = 10.0**log_c
    scaled = EstimableSystem(c * system.Q, system.b)
    base = eig_sym(info_matrix_for_system(spec, system)).positive()
    after = eig_sym(info_matrix_for_system(spec, scaled)).positive()
    np.testing.assert_allclose(after, base / c**2, rtol=1e-9)


@given(seed=st.integers(0, 2**32 - 1), v=st.integers(2, 6), s=st.integers(1, 5),
       log_b=st.lists(st.floats(0.0, 14.0), min_size=5, max_size=5))
def test_a_system_has_the_rank_of_its_weight_matrix(seed, v, s, log_b):
    # primary weights spread up to 1e14 put eigenvalues of Q~ Q~' on both
    # sides of the rank cutoff
    q = np.random.default_rng(seed).standard_normal((v, s))
    system = EstimableSystem(q, 10.0 ** np.array(log_b[:s]))
    assert system.r == weight_matrix_from_system(system).d


@given(st.data())
def test_permuting_units_within_a_block_keeps_the_spectrum_of_c(data):
    v = data.draw(st.integers(2, 5), label="v")
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4), label="sizes")
    n = sum(sizes)
    assignment = data.draw(st.lists(st.integers(1, v), min_size=n, max_size=n),
                           label="assignment")
    order, start = [], 0
    for size in sizes:
        order += [start + i for i in data.draw(st.permutations(range(size)))]
        start += size
    permuted = [assignment[i] for i in order]
    base = eig_sym(information_matrix(DesignSpec(v, assignment, "blocks", sizes)))
    after = eig_sym(information_matrix(DesignSpec(v, permuted, "blocks", sizes)))
    assert after.numeric_rank == base.numeric_rank
    scale = max(1.0, float(np.max(np.abs(base.eigenvalues))))
    np.testing.assert_allclose(after.eigenvalues, base.eigenvalues, rtol=0, atol=1e-12 * scale)


@given(st.data())
def test_relabelling_the_treatments_permutes_c(data):
    v = data.draw(st.integers(2, 5), label="v")
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="sizes")
    n = sum(sizes)
    assignment = data.draw(st.lists(st.integers(1, v), min_size=n, max_size=n),
                           label="assignment")
    perm = data.draw(st.permutations(range(v)), label="perm")
    relabelled = [perm[t - 1] + 1 for t in assignment]
    for kind, blocks in (("intercept", None), ("blocks", sizes)):
        base = information_matrix(DesignSpec(v, assignment, kind, blocks)).entries
        after = information_matrix(DesignSpec(v, relabelled, kind, blocks)).entries
        # treatment t is now perm[t-1]+1: C'[perm[i], perm[j]] = C[i, j]
        np.testing.assert_allclose(after[np.ix_(perm, perm)], base, rtol=0, atol=1e-12 * n)


@given(seed=st.integers(0, 2**32 - 1),
       log_factors=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
def test_rescaling_the_columns_of_l_keeps_c(seed, log_factors, signs):
    # C depends on L only through its column space
    rng = np.random.default_rng(seed)
    v, n = 4, 9
    assignment = rng.integers(1, v + 1, size=n).tolist()
    ell = rng.standard_normal((n, 3))
    scaled = ell * (np.array(signs) * 10.0 ** np.array(log_factors))
    base = information_matrix(DesignSpec(v, assignment, "explicit", L=ell)).entries
    after = information_matrix(DesignSpec(v, assignment, "explicit", L=scaled)).entries
    np.testing.assert_allclose(after, base, rtol=0, atol=1e-12 * n)
