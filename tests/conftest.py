import numpy as np
import pytest

from cyclica.linalg import EXACT, Matrix
from cyclica.scalars import QQi


def rng(seed):
    return np.random.default_rng(seed)


def random_exact_matrix(r, rows, cols, lo=-4, hi=4):
    return Matrix.exact(
        [[int(x) for x in row] for row in r.integers(lo, hi + 1, size=(rows, cols))]
    )


def random_exact_vector(r, n, lo=-5, hi=5):
    return tuple(QQi(int(x)) for x in r.integers(lo, hi + 1, size=n))


def random_unimodular(r, n, ops=None):
    """Integer matrix with determinant +-1, via random elementary row ops."""
    ops = ops if ops is not None else 3 * n
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = r.integers(0, n, size=2)
        if i == j:
            continue
        c = int(r.integers(-2, 3))
        for k in range(n):
            M[j][k] += c * M[i][k]
        if r.integers(0, 4) == 0:
            a, b = r.integers(0, n, size=2)
            M[a], M[b] = M[b], M[a]
    return Matrix.exact(M)


def jordan_block(lam, size):
    return [[lam if i == j else (1 if j == i + 1 else 0) for j in range(size)]
            for i in range(size)]


def random_jordan_matrix(r, n, eig_pool=(-2, -1, 0, 1, 2)):
    """Random Jordan structure conjugated by a unimodular integer matrix.

    Returns (matrix, is_nonderogatory): the latter is True when every
    eigenvalue has a single block, i.e. minimal = characteristic polynomial.
    """
    blocks = []
    remaining = n
    while remaining > 0:
        size = int(r.integers(1, remaining + 1))
        lam = int(r.choice(eig_pool))
        blocks.append((lam, size))
        remaining -= size
    eigs = [lam for lam, _ in blocks]
    nonderogatory = len(eigs) == len(set(eigs))
    J = Matrix.block_diag([Matrix.exact(jordan_block(lam, s)) for lam, s in blocks])
    U = random_unimodular(r, n)
    return U @ J @ U.inverse(), nonderogatory


def doubled_triangular_family(r, k, m):
    """A_j = U (T_j + T_j) U^-1, j = 1..m, with U unimodular of size 2k and
    T_j upper triangular k x k with distinct diagonal entries in [-3, 3].

    Returns (generators, diagonals).  The Lie algebra is solvable, and every
    rank drop sits on the product of the diagonals, with dimension 2 or more.
    """
    n = 2 * k
    U = random_unimodular(r, n)
    U_inv = U.inverse()
    diagonals, gens = [], []
    for _ in range(m):
        diag = [int(x) for x in r.choice(np.arange(-3, 4), size=k, replace=False)]
        upper = [[int(x) for x in row] for row in r.choice([-1, 0, 0, 1], size=(k, k))]
        T = Matrix.exact([[diag[i] if i == j else upper[i][j] * (j > i) for j in range(k)]
                          for i in range(k)])
        diagonals.append(diag)
        gens.append(U @ Matrix.block_diag([T, T]) @ U_inv)
    return gens, diagonals
