"""Arithmetic the benchmark checks verdicts with, written apart from cyclica.

Two kinds of computation live here:

- linear algebra over GF(p), p = 2147483629 (a prime with p = 1 mod 4, so
  i lies in GF(p)).  After denominators are cleared, a rank or a span
  dimension computed mod p can only undercount the one over Q(i), so a
  full dimension mod p proves a full dimension over Q(i);
- exact rational and integer arithmetic (``fractions.Fraction``, Python
  ints) for the checks that must be exact both ways: ranks by fraction-free
  elimination, characteristic polynomials by interpolation, and covector
  identities p (A - mu I) = 0.

Matrices are lists of rows of ints or Fractions; nothing here imports
cyclica.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

P = 2147483629
_LIMB = (1 << 11) - 1


def _sqrt_minus_one(p):
    for g in range(2, 100):
        r = pow(g, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError("no square root of -1 found")


I_MOD_P = _sqrt_minus_one(P)


# ---------------------------------------------------------------------------
# reduction of rationals and Gaussian rationals mod p
# ---------------------------------------------------------------------------


def as_fraction(x):
    """Real part of a scalar that must be real: int, Fraction, or an object
    with Fraction ``re``/``im`` attributes whose imaginary part is zero."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if getattr(x, "im", 0):
        raise ValueError(f"expected a real scalar, got {x!r}")
    return Fraction(x.re)


def parse_json_scalar(v):
    """A report scalar: int, "p/q" string, or [re, im]; real only."""
    if isinstance(v, list):
        re, im = (parse_json_scalar(t) for t in v)
        if im:
            raise ValueError(f"expected a real scalar, got {v!r}")
        return re
    if isinstance(v, float):
        raise ValueError(f"float scalar {v!r} in an exact report")
    return Fraction(v)


def to_mod_p(x):
    """A rational as an element of GF(p)."""
    f = Fraction(x)
    return f.numerator % P * pow(f.denominator % P, -1, P) % P


def _parts(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return Fraction(x.re), Fraction(x.im)


def cleared(vec):
    """The vector times the lcm of its denominators, mod p: a nonzero
    rescaling, so the span it generates is unchanged."""
    parts = [_parts(x) for x in vec]
    d = lcm(*(f.denominator for pair in parts for f in pair)) if parts else 1
    return np.array([(to_mod_p(re * d) + to_mod_p(im * d) * I_MOD_P) % P
                     for re, im in parts], dtype=np.int64)


def matrix_mod_p(rows):
    """Rows of rationals as an int64 array mod p, scaled by the lcm of all
    denominators."""
    flat = cleared([x for row in rows for x in row])
    return flat.reshape(len(rows), len(rows[0]) if rows else 0)


def _matmul(a, b):
    """a @ b mod p, exactly, through float64 BLAS: a is split into 11-bit
    limbs, so every partial sum stays below 2^53 for inner dimensions up
    to 2048."""
    if a.shape[-1] > 2048:
        raise ValueError("inner dimension too large for exact float products")
    bf = b.astype(np.float64)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for shift in (22, 11, 0):
        limb = ((a >> shift) & _LIMB).astype(np.float64)
        part = (limb @ bf).astype(np.int64) % P
        acc = (acc * (1 << 11) + part) % P
    return acc


class EchelonModP:
    """Reduced row echelon span over GF(p), grown one vector at a time."""

    def __init__(self, ambient):
        self.ambient = ambient
        self._rows = np.zeros((ambient, ambient), dtype=np.int64)
        self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    def add(self, vec):
        v = np.asarray(vec, dtype=np.int64) % P
        k = self.dim
        rows = self._rows[:k]
        if k:
            v = (v - _matmul(v[self.pivots][None, :], rows)[0]) % P
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = v * pow(int(v[piv]), -1, P) % P
        if k:
            col = rows[:, piv].copy()
            rows -= (col[:, None] * v[None, :]) % P
            rows %= P
        self._rows[k] = v
        self.pivots.append(piv)
        return True


def closure_dim_mod_p(gens):
    """Dimension over GF(p) of the unital algebra the int64 matrices span."""
    n = gens[0].shape[0]
    span = EchelonModP(n * n)
    frontier = []
    for M in [np.eye(n, dtype=np.int64), *gens]:
        if span.add(M.ravel()):
            frontier.append(M)
    while frontier and span.dim < n * n:
        new = []
        for A in gens:
            for M in frontier:
                Q = _matmul(A, M)
                if span.add(Q.ravel()):
                    new.append(Q)
        frontier = new
    return span.dim


def orbit_dim_mod_p(gens, vectors):
    """Dimension over GF(p) of the smallest invariant subspace containing
    the given int64 vectors."""
    n = gens[0].shape[0]
    span = EchelonModP(n)
    frontier = [v for v in vectors if span.add(v)]
    while frontier and span.dim < n:
        new = []
        for A in gens:
            for v in frontier:
                w = _matmul(A, v[:, None])[:, 0]
                if span.add(w):
                    new.append(w)
        frontier = new
    return span.dim


# ---------------------------------------------------------------------------
# exact integer and rational arithmetic
# ---------------------------------------------------------------------------


def int_rank(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    M = [list(r) for r in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        p = M[rank][col]
        for i in range(rank + 1, nrows):
            a = M[i][col]
            M[i] = [(p * M[i][j] - a * M[rank][j]) // prev for j in range(ncols)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def int_det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    M = [list(r) for r in rows]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            M[i] = [(M[k][k] * M[i][j] - M[i][k] * M[k][j]) // prev for j in range(n)]
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def frac_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def frac_inverse(a):
    """Inverse by Gauss-Jordan over Q; raises on a singular matrix."""
    n = len(a)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[k], M[piv] = M[piv], M[k]
        inv = 1 / M[k][k]
        M[k] = [x * inv for x in M[k]]
        for i in range(n):
            if i != k and M[i][k]:
                c = M[i][k]
                M[i] = [x - c * y for x, y in zip(M[i], M[k])]
    return [row[n:] for row in M]


def char_poly(a):
    """Coefficients (ascending) of det(xI - A) for a rational matrix A,
    by exact interpolation of integer determinants at x = 0..n."""
    n = len(a)
    d = lcm(*(Fraction(x).denominator for row in a for x in row)) if n else 1
    scaled = [[int(Fraction(x) * d) for x in row] for row in a]
    xs = list(range(n + 1))
    # det(d x I - dA) = d^n det(xI - A)
    ys = [Fraction(int_det([[d * x * (i == j) - scaled[i][j] for j in range(n)]
                            for i in range(n)]), d ** n) for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for k, xk in enumerate(xs):
        # Lagrange basis polynomial for node xk, ascending coefficients
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == k:
                continue
            basis = [(basis[i - 1] if i else 0) - xj * (basis[i] if i < len(basis) else 0)
                     for i in range(len(basis) + 1)]
            denom *= xk - xj
        for i, c in enumerate(basis):
            coeffs[i] += ys[k] * c / denom
    return coeffs


def left_kernel_dim(mats, mus):
    """dim { p : p (A_j - mu_j I) = 0 for all j } for integer A_j, mu_j."""
    n = len(mats[0])
    stacked = [[(mats[j][i][c] - (mus[j] if i == c else 0))
                for j in range(len(mats)) for c in range(n)] for i in range(n)]
    return n - int_rank(stacked)


def annihilates(covector, mats, mus):
    """p (A_j - mu_j I) == 0 exactly for every j (rationals)."""
    n = len(covector)
    for A, mu in zip(mats, mus):
        for c in range(n):
            s = sum((covector[i] * A[i][c] for i in range(n)), Fraction(0)) - mu * covector[c]
            if s:
                return False
    return True
