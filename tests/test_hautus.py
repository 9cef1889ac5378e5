import itertools

import numpy as np
import pytest

from conftest import random_exact_matrix, random_unimodular, rng
from cyclica.algebra import GeneratorSet
from cyclica.hautus import (
    GENERIC_CYCLIC_SUBSPACE,
    NECESSARY_HOLDS_ONLY,
    NO_CYCLIC_SUBSPACE,
    hautus_necessary,
    hautus_verdict,
    is_solvable,
    lie_closure,
    rank_drop_locus,
)
from cyclica.linalg import EXACT, Matrix, rank
from cyclica.scalars import DEFAULT_TOL, QQi, ToleranceContext


def stacked_block(G, mu):
    """[A_1 - mu_1 I | ... | A_m - mu_m I] for direct rank evaluation."""
    n = G.n
    eye = Matrix.identity(n, G.backend, G.tol)
    cols = []
    for A, m in zip(G.gens, mu):
        S = A - eye.scale(m)
        cols.extend(S.col(j) for j in range(n))
    return Matrix.from_cols(cols, G.backend, tol=G.tol)


def test_locus_commuting_diagonals():
    G = GeneratorSet(2, [Matrix.exact([[1, 0], [0, 2]]), Matrix.exact([[3, 0], [0, 4]])])
    locus = rank_drop_locus(G)
    mus = sorted(
        (tuple(complex(v) for v in e.mu) for e in locus.entries),
        key=lambda t: t[0].real,
    )
    assert mus == [(1 + 0j, 3 + 0j), (2 + 0j, 4 + 0j)]
    assert all(e.dim_p == 1 for e in locus.entries)
    assert all(e.exact for e in locus.entries)


def test_locus_identity_generator():
    G = GeneratorSet(3, [Matrix.identity(3)])
    locus = rank_drop_locus(G)
    assert len(locus.entries) == 1
    e = locus.entries[0]
    assert e.dim_p == 3 and complex(e.mu[0]) == 1 + 0j and e.rank_value == 0


def test_locus_first_row_generators():
    G = GeneratorSet(3, [Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                         Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])])
    locus = rank_drop_locus(G)
    assert locus.max_drop == 2
    assert not hautus_necessary(G, 1)
    assert hautus_necessary(G, 2)


def test_locus_soundness_direct_rank():
    r = rng(31)
    for _ in range(20):
        n = int(r.integers(2, 5))
        m = int(r.integers(1, 4))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(m)])
        locus = rank_drop_locus(G)
        for e in locus.entries:
            if e.exact:
                S = stacked_block(G, e.mu)
                assert rank(S) == e.rank_value == n - e.dim_p
            else:
                Gf = G.to_float()
                S = stacked_block(Gf, [complex(v) for v in e.mu])
                assert rank(S) == e.rank_value


def test_locus_completeness_off_spectrum():
    r = rng(33)
    for _ in range(10):
        n = int(r.integers(2, 5))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(2)])
        for _ in range(20):
            mu = tuple(QQi(int(r.integers(6, 30)), int(r.integers(1, 5))) for _ in range(2))
            assert rank(stacked_block(G, mu)) == n


def test_locus_shift_equivariance():
    r = rng(35)
    G = GeneratorSet(3, [random_exact_matrix(r, 3, 3) for _ in range(2)])
    locus = rank_drop_locus(G)
    c = QQi(7)
    eye = Matrix.identity(3)
    G_shift = GeneratorSet(3, [G.gens[0] + eye.scale(c), G.gens[1]])
    locus_s = rank_drop_locus(G_shift)
    assert len(locus.entries) == len(locus_s.entries)
    assert locus.max_drop == locus_s.max_drop
    keyf = lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag)
    shifted = sorted(
        ((complex(e.mu[0]) + 7, complex(e.mu[1]), e.dim_p) for e in locus.entries),
        key=keyf,
    )
    direct = sorted(
        ((complex(e.mu[0]), complex(e.mu[1]), e.dim_p) for e in locus_s.entries),
        key=keyf,
    )
    for a, b in zip(shifted, direct):
        assert abs(a[0] - b[0]) < 1e-7 and abs(a[1] - b[1]) < 1e-7 and a[2] == b[2]


def test_lie_closure_triangular_solvable():
    u1 = Matrix.exact([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    u2 = Matrix.exact([[4, 0, 1], [0, 5, 1], [0, 0, 6]])
    L = lie_closure(GeneratorSet(3, [u1, u2]))
    assert is_solvable(L)
    assert L.derived_dims[-1] == 0
    assert all(a >= b for a, b in zip(L.derived_dims, L.derived_dims[1:]))


def test_lie_closure_sl2_not_solvable():
    G = GeneratorSet(2, [Matrix.exact([[0, 1], [0, 0]]), Matrix.exact([[0, 0], [1, 0]])])
    L = lie_closure(G)
    assert L.dim == 3
    assert not is_solvable(L)
    # derived series stabilizes at the traceless part
    assert L.derived_dims[-1] == 3


def test_lie_closure_single_generator_abelian():
    r = rng(37)
    A = random_exact_matrix(r, 4, 4)
    L = lie_closure(GeneratorSet(4, [A]))
    assert L.dim == 1
    assert is_solvable(L)


def test_lie_closure_bracket_closed():
    r = rng(39)
    G = GeneratorSet(3, [random_exact_matrix(r, 3, 3) for _ in range(2)])
    L = lie_closure(G)
    for A in G.gens:
        for M in L.basis:
            C = (A @ M) - (M @ A)
            assert L.span.contains(C.flatten())


def test_verdicts():
    d1 = Matrix.exact([[1, 0], [0, 2]])
    d2 = Matrix.exact([[3, 0], [0, 4]])
    assert hautus_verdict(GeneratorSet(2, [d1, d2]), 1) == GENERIC_CYCLIC_SUBSPACE
    e12 = Matrix.exact([[0, 1], [0, 0]])
    e21 = Matrix.exact([[0, 0], [1, 0]])
    # transitive: rank condition holds, not solvable
    assert hautus_verdict(GeneratorSet(2, [e12, e21]), 1) == NECESSARY_HOLDS_ONLY
    E12 = Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    E13 = Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert hautus_verdict(GeneratorSet(3, [E12, E13]), 1) == NO_CYCLIC_SUBSPACE
    assert hautus_verdict(GeneratorSet(3, [E12, E13]), 2) == GENERIC_CYCLIC_SUBSPACE


def test_verdict_r_range_checked():
    G = GeneratorSet(2, [Matrix.identity(2)])
    with pytest.raises(ValueError):
        hautus_verdict(G, 0)
    with pytest.raises(ValueError):
        hautus_necessary(G, 3)


def test_stacked_rank_disjoint_axis_pair():
    from cyclica.mrb import InertiaSpec, axis_operator

    C = InertiaSpec(4, [1, 2, 3, 4])
    G = GeneratorSet(6, [axis_operator(C, (1, 2)), axis_operator(C, (3, 4))])
    S = stacked_block(G, (QQi(0), QQi(0)))
    assert (S.rows, S.cols) == (6, 12)
    from cyclica.linalg import rank as _rank

    assert _rank(S) == 4  # 6 - (2-dim common covector space)


def test_float_backend_locus():
    G = GeneratorSet(
        2,
        [Matrix.from_float([[1.0, 0], [0, 2.0]]), Matrix.from_float([[3.0, 0], [0, 4.0]])],
    )
    locus = rank_drop_locus(G)
    assert locus.max_drop == 1
    assert len(locus.entries) == 2


def test_float_generators_take_the_set_tolerance():
    loose = ToleranceContext(tau_rank=1e-3)
    A = Matrix.from_float([[1.0, 0], [0, 2.0]])
    B = Matrix.from_float([[3.0, 1e-5], [1e-5, 4.0]])
    G = GeneratorSet(2, [A, B], tol=loose)
    assert all(g.tol == G.tol for g in G.gens)
    assert all(g.tol == DEFAULT_TOL for g in GeneratorSet(2, [A, B]).gens)
    assert all(g.tol == loose for g in GeneratorSet(2, [A, B]).to_float(loose).gens)
    # the left eigencovectors of B lean 1e-5 off those of A: one common
    # covector per eigenvalue pair within 1e-3, none within the default
    assert rank_drop_locus(GeneratorSet(2, [A, B])).max_drop == 0
    assert [e.dim_p for e in rank_drop_locus(G)] == [1, 1]


def test_all_exact_locus_builds_no_float_kernels(monkeypatch):
    from cyclica import hautus

    built = []
    original = hautus._shifted_left_kernel

    def counting(A, mu):
        built.append(A.backend)
        return original(A, mu)

    monkeypatch.setattr(hautus, "_shifted_left_kernel", counting)
    T1 = Matrix.exact([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    T2 = Matrix.exact([[2, 0, 1], [0, 1, 1], [0, 0, -1]])
    G = GeneratorSet(6, [Matrix.block_diag([T1, T1]), Matrix.block_diag([T2, T2])])
    locus = rank_drop_locus(G)
    assert locus.entries and all(e.exact for e in locus.entries)
    assert built and set(built) == {EXACT}
