import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_exact_matrix,
    random_exact_vector,
    random_jordan_matrix,
    random_unimodular,
    rng,
)
from cyclica.linalg import (
    EXACT,
    FLOAT,
    Matrix,
    Polynomial,
    Subspace,
    annihilator,
    char_poly,
    eigenvalues,
    kernel,
    min_poly,
    rank,
)
from cyclica.scalars import QQi, ToleranceContext


J3 = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 5)) == 0


def test_rank_float_svd_threshold():
    M = Matrix.from_float([[1.0, 2.0], [2.0, 4.0 + 1e-13]])
    assert rank(M) == 1
    assert rank(Matrix.from_float(np.zeros((3, 3)))) == 0


def test_kernel_trivial_cases():
    assert kernel(Matrix.identity(3)).dim == 0
    assert kernel(Matrix.zeros(3, 3)) == Subspace.full(3)


def test_kernel_jordan_block():
    K = kernel(J3)
    assert K.dim == 1
    assert K.basis[0] == (QQi(1), QQi(0), QQi(0))


def test_kernel_vectors_annihilated():
    r = rng(11)
    for _ in range(20):
        M = random_exact_matrix(r, 4, 5)
        K = kernel(M)
        assert K.dim == 5 - rank(M)
        for v in K.basis:
            assert all(x.is_zero() for x in M.apply(v))


def test_annihilator_examples():
    assert annihilator(Subspace.full(3)).dim == 0
    A = annihilator(Subspace.from_vectors(3, [[1, 0, 0]]))
    assert A == Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])


def test_annihilator_pairing_and_involution():
    r = rng(23)
    for _ in range(10):
        S = Subspace.from_vectors(5, [random_exact_vector(r, 5) for _ in range(2)])
        A = annihilator(S)
        assert A.dim == 5 - S.dim
        for p in A.basis:
            for v in S.basis:
                assert sum((a * b for a, b in zip(p, v)), QQi(0)).is_zero()
        assert annihilator(A) == S


def test_char_min_poly_jordan():
    cp, mp = char_poly(J3), min_poly(J3)
    x3 = Polynomial([0, 0, 0, 1])
    assert cp == x3 and mp == x3


def test_char_min_poly_repeated_diagonal():
    lam = 3
    D = Matrix.exact([[lam, 0], [0, lam]])
    assert char_poly(D) == Polynomial([lam * lam, -2 * lam, 1])
    assert min_poly(D) == Polynomial([-lam, 1])


def test_min_poly_divides_char_and_annihilates():
    r = rng(3)
    for _ in range(25):
        n = int(r.integers(2, 6))
        A = random_exact_matrix(r, n, n)
        mp, cp = min_poly(A), char_poly(A)
        assert mp.divides(cp)
        assert mp(A).is_zero()
        assert cp(A).is_zero()  # Cayley-Hamilton


def test_rank_exact_vs_float_agreement():
    r = rng(17)
    for _ in range(200):
        n = int(r.integers(1, 7))
        m = int(r.integers(1, 7))
        A = random_exact_matrix(r, n, m)
        assert rank(A) == rank(A.to_float())


def test_eigenvalues_grouping():
    A = Matrix.exact([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    assert eigenvalues(A) == [(2 + 0j, 2), (5 + 0j, 1)]
    B = Matrix.exact([[0, -1], [1, 0]])
    ev = eigenvalues(B)
    assert sorted(m for _, m in ev) == [1, 1]
    assert any(abs(v - 1j) < 1e-9 for v, _ in ev)


def test_polynomial_arithmetic():
    p = Polynomial([1, 1])  # 1 + x
    q = Polynomial([-1, 1])  # -1 + x
    assert p * q == Polynomial([-1, 0, 1])
    quo, rem = Polynomial([-1, 0, 1]).divmod(p)
    assert quo == q and rem.is_zero()
    assert p(QQi(2)) == QQi(3)


def test_polynomial_helpers():
    i = QQi(0, 1)
    p = Polynomial([1, 0, 1])  # x^2 + 1 = (x - i)(x + i)
    assert p + Polynomial([-1, 2]) == Polynomial([0, 2, 1])
    assert p.derivative() == Polynomial([0, 2])
    assert p.shift(i) == Polynomial([0, 2 * i, 1])  # (x + i)^2 + 1
    assert Polynomial([i, 1]).conjugate() == Polynomial([-i, 1])
    assert p.gcd(Polynomial([-2 * i, 2])) == Polynomial([-i, 1])
    assert p.gcd(Polynomial([1, 1])) == Polynomial([1])
    assert Polynomial([]).gcd(Polynomial([])).is_zero()


def test_matrix_inverse_roundtrip():
    r = rng(9)
    count = 0
    while count < 10:
        A = random_exact_matrix(r, 4, 4)
        if rank(A) < 4:
            continue
        count += 1
        assert (A @ A.inverse()) == Matrix.identity(4)


def test_subspace_canonical_equality():
    S1 = Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]])
    S2 = Subspace.from_vectors(3, [[2, 2, 0], [1, 2, 1]])
    assert S1 == S2
    assert hash(S1) == hash(S2)


def test_float_subspace_operations():
    tol = ToleranceContext()
    S = Subspace.from_vectors(3, [[1.0, 0, 0], [0, 1.0, 0]], FLOAT, tol)
    A = annihilator(S)
    assert A.dim == 1
    assert abs(A.basis[0][2]) > 0.9


def test_backend_mixing_rejected():
    with pytest.raises(TypeError):
        Matrix.identity(2) @ Matrix.identity(2, FLOAT)


# ---------------------------------------------------------------------------
# the fraction-free exact product against an entrywise reference
# ---------------------------------------------------------------------------

# pairwise coprime denominators, so common denominators grow as products
_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


def _dot(row, col):
    """Reference dot product, one QQi operation at a time."""
    return sum((x * y for x, y in zip(row, col)), QQi(0))


@st.composite
def _exact_rows(draw, rows, cols):
    """rows x cols QQi entries, often zero; the imaginary parts are all zero
    or drawn like the real ones, one choice per operand."""
    part = st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENOMINATORS)))
    imag = part if draw(st.booleans()) else st.just(Fraction(0))
    entry = st.builds(QQi, part, imag)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _assert_canonical(entries):
    for x in entries:
        assert isinstance(x, QQi)
        for part in (x.re, x.im):
            assert type(part) is Fraction
            assert part.denominator > 0 and gcd(part.numerator, part.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_product_matches_entrywise_reference(data):
    m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(_exact_rows(m, k))
    A = Matrix(a, EXACT, cols=k)
    if data.draw(st.booleans()):
        b = data.draw(_exact_rows(1, k))[0]
        got, want = A.apply(b), tuple(_dot(row, b) for row in a)
        assert len(got) == m
    else:
        b = data.draw(_exact_rows(k, n))
        P = A @ Matrix(b, EXACT, cols=n)
        cols = [[row[j] for row in b] for j in range(n)]
        want = Matrix([[_dot(row, col) for col in cols] for row in a], EXACT, cols=n)
        assert (P.rows, P.cols) == (m, n)
        assert P == want and hash(P) == hash(want)
        got, want = tuple(P.data.ravel()), tuple(want.data.ravel())
    assert got == want
    _assert_canonical(got)


def test_exact_apply_coerces_plain_numbers():
    A = Matrix.exact([[1, 2], [0, QQi(1, 1)]])
    img = A.apply([3, Fraction(1, 2)])
    assert img == (QQi(4), QQi(Fraction(1, 2), Fraction(1, 2)))
    _assert_canonical(img)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from(["jordan", "random"]))
def test_inverse_roundtrip_or_singular(seed, n, family):
    r = rng(seed)
    A = random_jordan_matrix(r, n)[0] if family == "jordan" else random_exact_matrix(r, n, n)
    if rank(A) < n:
        with pytest.raises(ValueError, match="singular"):
            A.inverse()
    else:
        eye = Matrix.identity(n)
        assert A @ A.inverse() == eye and A.inverse() @ A == eye
    U = random_unimodular(r, n)
    assert U @ U.inverse() == Matrix.identity(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from(["jordan", "random"]))
def test_min_poly_annihilates_with_no_lower_dependence(seed, n, family):
    r = rng(seed)
    if family == "jordan":
        A, nonderogatory = random_jordan_matrix(r, n)
    else:
        A, nonderogatory = random_exact_matrix(r, n, n), None
    mp = min_poly(A)
    assert mp.coeffs[-1] == QQi(1)
    assert mp(A).is_zero()
    powers = [Matrix.identity(n)]
    for _ in range(mp.degree - 1):
        powers.append(powers[-1] @ A)
    assert rank(Matrix.from_rows([P.flatten() for P in powers], EXACT)) == mp.degree
    if nonderogatory is not None:
        assert (mp == char_poly(A)) == nonderogatory



def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_det(rows):
    """Determinant of a matrix of (re, im) Fraction pairs, by elimination."""
    rows = [list(r) for r in rows]
    det = (Fraction(1), Fraction(0))
    for j in range(len(rows)):
        p = next((i for i in range(j, len(rows)) if rows[i][j] != (0, 0)), None)
        if p is None:
            return (Fraction(0), Fraction(0))
        if p != j:
            rows[j], rows[p] = rows[p], rows[j]
            det = (-det[0], -det[1])
        a, b = rows[j][j]
        det = _gauss_mul(det, (a, b))
        inv = (a / (a * a + b * b), -b / (a * a + b * b))
        for i in range(j + 1, len(rows)):
            f = _gauss_mul(rows[i][j], inv)
            rows[i] = [(x[0] - y[0], x[1] - y[1])
                       for x, y in zip(rows[i], [_gauss_mul(f, v) for v in rows[j]])]
    return det


def _char_poly_reference(entries):
    """Ascending (re, im) coefficients of det(xI - A): the coefficient of
    x^(n-k) is (-1)^k times the sum of the k x k principal minors."""
    n = len(entries)
    coeffs = []
    for k in range(n + 1):
        re = im = Fraction(0)
        for S in itertools.combinations(range(n), k):
            d = _gauss_det([[entries[i][j] for j in S] for i in S])
            re, im = re + d[0], im + d[1]
        coeffs.append(((-1) ** k * re, (-1) ** k * im))
    return coeffs[::-1]


@pytest.mark.parametrize("n", range(10))
def test_char_poly_matches_a_fraction_reference(n):
    r = rng(100 + n)

    def entry(gaussian):
        re = Fraction(int(r.integers(-4, 5)), int(r.choice([1, 1, 2, 3, 5])))
        im = Fraction(int(r.integers(-3, 4)), int(r.choice([1, 2, 7]))) if gaussian else 0
        return (Fraction(re), Fraction(im))

    for gaussian in (False, True):
        entries = [[entry(gaussian) for _ in range(n)] for _ in range(n)]
        A = Matrix.exact([[QQi(a, b) for a, b in row] for row in entries])
        ref = Polynomial([QQi(a, b) for a, b in _char_poly_reference(entries)])
        assert char_poly(A) == ref
        assert char_poly(A).degree == n
