"""Closures and orbits certified full over GF(p), against the same loop run
in the generators' own field."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_exact_matrix, random_exact_vector, random_unimodular, rng
from cyclica.algebra import (
    GeneratorSet,
    _field_closure,
    _field_orbit,
    _stabilize,
    closure,
    orbit,
)
from cyclica import linalg
from cyclica.linalg import MOD_P, Matrix, ModPSpan, SpanBuilder, Subspace, kernel, mod_p, rank
from cyclica.scalars import QQi


def _assert_same_closure(G):
    fast, field = closure(G), _field_closure(G)
    assert fast.dim == field.dim
    assert fast.span == field.span
    return fast, field


def _assert_same_orbits(G, r):
    eye = Matrix.identity(G.n)
    seeds = [[eye.row(i)] for i in range(G.n)]
    seeds += [[random_exact_vector(r, G.n)], [random_exact_vector(r, G.n) for _ in range(2)]]
    for vecs in seeds:
        B = Subspace.from_vectors(G.n, vecs)
        assert orbit(G, B) == _field_orbit(G, B)


def _gaussian_matrix(r, n):
    re = r.integers(-3, 4, size=(n, n))
    im = r.integers(-2, 3, size=(n, n))
    den = r.integers(1, 4, size=(n, n))
    return Matrix.exact([[QQi(Fraction(int(re[i, j]), int(den[i, j])), int(im[i, j]))
                          for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_random_integer_pairs_match_the_field_loop(n):
    r = rng(700 + n)
    G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(2)])
    fast, _ = _assert_same_closure(G)
    assert fast.dim == n * n
    _assert_same_orbits(G, r)


def test_full_closure_basis_is_the_unit_matrices():
    r = rng(710)
    G = GeneratorSet(3, [random_exact_matrix(r, 3, 3) for _ in range(2)])
    cl = closure(G)
    assert cl.dim == 9
    units = [Matrix.exact([[int(k == 3 * i + j) for j in range(3)] for i in range(3)])
             for k in range(9)]
    assert list(cl.matrices) == units


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gaussian_rational_generators_match_the_field_loop(n):
    r = rng(720 + n)
    G = GeneratorSet(n, [_gaussian_matrix(r, n) for _ in range(2)])
    assert any(not x.is_real() for A in G.gens for x in A.data.ravel())
    fast, _ = _assert_same_closure(G)
    assert fast.dim == n * n
    _assert_same_orbits(G, r)


def test_reducible_block_pair_is_decided_by_the_field_loop():
    r = rng(730)
    U = random_unimodular(r, 5)
    U_inv = U.inverse()
    gens = []
    for _ in range(2):
        A = r.integers(-3, 4, size=(5, 5))
        A[2:, :2] = 0
        gens.append(U @ Matrix.exact(A.tolist()) @ U_inv)
    G = GeneratorSet(5, gens)
    fast, field = _assert_same_closure(G)
    assert fast.dim < 25
    # a closure short of full keeps the words that enlarged the span
    assert fast.matrices == field.matrices
    _assert_same_orbits(G, r)


def test_denominator_divisible_by_p_takes_the_field_loop():
    r = rng(740)
    A = random_exact_matrix(r, 3, 3)
    B = Matrix.exact([[QQi(Fraction(1, MOD_P)) if (i, j) == (0, 1) else int(x)
                       for j, x in enumerate(row)]
                      for i, row in enumerate(r.integers(-4, 5, size=(3, 3)))])
    assert mod_p(B.data) is None
    G = GeneratorSet(3, [A, B])
    fast, field = _assert_same_closure(G)
    assert fast.dim == 9
    # the words, not the unit matrices: the result came from the field loop
    assert fast.matrices == field.matrices
    _assert_same_orbits(G, r)


def test_orbit_short_of_full_mod_p_is_full_over_qi():
    # v = (1, p) reduces to (1, 0), whose orbit mod p is a line; over Q(i)
    # v and Av = (0, p) span the plane
    G = GeneratorSet(2, [Matrix.exact([[0, 0], [0, 1]])])
    B = Subspace.from_vectors(2, [(1, MOD_P)])
    assert orbit(G, B).is_full()
    assert orbit(G, B) == _field_orbit(G, B)


def test_float_generators_have_no_image_mod_p():
    assert mod_p(Matrix.from_float([[1.0, 2.0], [3.0, 4.0]]).data) is None
    G = GeneratorSet(2, [Matrix.from_float([[0, 1], [1, 0]]),
                         Matrix.from_float([[1, 0], [0, 2]])])
    cl = closure(G)
    assert cl.dim == 4
    assert cl.matrices == _field_closure(G).matrices


def test_i_maps_to_a_square_root_of_minus_one():
    i = int(mod_p([QQi(0, 1)])[0])
    assert i * i % MOD_P == MOD_P - 1
    half = int(mod_p([QQi(Fraction(1, 2))])[0])
    assert 2 * half % MOD_P == 1


def test_mod_p_span_dimension_never_exceeds_the_exact_one():
    r = rng(750)
    for _ in range(20):
        vecs = [random_exact_vector(r, 4, -2, 2) for _ in range(3)]
        vecs.append(tuple(a + b for a, b in zip(vecs[0], vecs[1])))
        vecs.append(tuple(x * MOD_P for x in vecs[2]))  # zero mod p
        sb = ModPSpan(4)
        for v in vecs:
            sb.add(mod_p(v))
        assert sb.dim <= Subspace.from_vectors(4, vecs).dim


def test_stabilize_stops_once_the_span_is_full():
    r = rng(760)
    G = GeneratorSet(3, [random_exact_matrix(r, 3, 3) for _ in range(2)])
    sb = SpanBuilder(9, G.backend)
    dims_at_step = []

    def step(A, M):
        dims_at_step.append(sb.dim)
        return A @ M

    members = _stabilize(sb, [Matrix.identity(3), *G.gens], G.gens, step, Matrix.flatten)
    assert len(members) == sb.dim == 9
    assert max(dims_at_step) < 9
    assert members == list(_field_closure(G).matrices)


def test_mod_p_span_rejects_ambient_sizes_that_could_overflow():
    with pytest.raises(ValueError):
        ModPSpan(2**11 + 1)
    assert np.iinfo(np.int64).max > 2**11 * (MOD_P - 1) ** 2


def _rank_kernel_matrices():
    """Integer, rational and Gaussian-rational matrices of several shapes,
    rank-deficient ones among them (products through a narrower space), and
    two whose image over GF(p) is short of full or missing."""
    r = rng(19)

    def rational(rows, cols):
        num = r.integers(-4, 5, size=(rows, cols))
        den = r.integers(1, 5, size=(rows, cols))
        return Matrix.exact([[Fraction(int(a), int(b)) for a, b in zip(nr, dr)]
                             for nr, dr in zip(num, den)])

    def gaussian(rows, cols):
        re = r.integers(-3, 4, size=(rows, cols))
        im = r.integers(-2, 3, size=(rows, cols))
        den = r.integers(1, 4, size=(rows, cols))
        return Matrix.exact([[QQi(Fraction(int(re[i, j]), int(den[i, j])), int(im[i, j]))
                              for j in range(cols)] for i in range(rows)])

    def integer(rows, cols):
        return random_exact_matrix(r, rows, cols)

    for make in (integer, rational, gaussian):
        for rows, cols in ((3, 3), (5, 3), (3, 5), (6, 6), (8, 4)):
            yield make(rows, cols)
        for rows, inner, cols in ((4, 2, 4), (6, 3, 4), (5, 4, 5), (3, 1, 3)):
            yield make(rows, inner) @ make(inner, cols)
    # full over Q, singular mod p
    yield Matrix.exact([[1, 0], [0, MOD_P]])
    # no image mod p
    yield Matrix.exact([[1, Fraction(1, MOD_P)], [2, 3], [0, 1]])


def test_rank_and_kernel_match_elimination_over_qi(monkeypatch):
    matrices = list(_rank_kernel_matrices())
    shortcut = [linalg._full_rank_mod_p(M) for M in matrices]
    got = [(rank(M), kernel(M)) for M in matrices]
    # the same matrices with GF(p) deciding nothing: SpanBuilder elimination
    monkeypatch.setattr(linalg, "_full_rank_mod_p", lambda M: False)
    want = [(rank(M), kernel(M)) for M in matrices]
    for M, (rk, K), (rk_want, K_want) in zip(matrices, got, want):
        assert rk == rk_want and K == K_want, M
    # GF(p) decided every full rank of the random matrices and none short
    # of full; the last two are full but not decided there
    full = [rk == min(M.rows, M.cols) for M, (rk, _) in zip(matrices, got)]
    assert shortcut[:-2] == full[:-2] and any(full) and not all(full)
    assert shortcut[-2:] == [False, False]
    assert [rk for rk, _ in got[-2:]] == [2, 2]
    assert all(K.is_zero() for _, K in got[-2:])
