"""Dense linear algebra over two scalar fields.

The exact backend works over the Gaussian rationals and decides rank, span
and divisibility questions with no tolerance at all.  The float backend
works over complex128 and pushes every such decision through an explicit
:class:`~cyclica.scalars.ToleranceContext`; the residual of a computed
product is measured relative to its factors (:meth:`SpanBuilder.add`).

Everything above this module builds matrices, vectors and scalars through
the constructors here (:class:`Matrix`, :func:`vector`, :func:`scalar`) and
tests for zero with :func:`is_negligible`, so most choices of field are
made here: coercion, zero and pivot tests, elimination versus SVD in
``rank``/``kernel``, ``inverse``, ``char_poly``, ``min_poly`` and hashing.
The layers above branch on the backend only where the methods differ:
random samples, eigen-probes, verified spectra and the perturbation
analysis.

Exact matrix products (``@``, ``apply`` and everything built on them:
brackets, polynomial evaluation, conjugation) are fraction-free: each
operand becomes arrays of Python-int numerators over its least common
denominator, those are multiplied as integers, and the result holds one QQi
per distinct value.  On a 2-vCPU Xeon under Python 3.11 a 10 x 10 integer
product takes about 0.4 ms this way, against 8 to 10 ms as an object-array
product of QQi.  ``char_poly`` runs its whole recurrence on those integer
arrays and builds QQi only for the n coefficients: 0.3 ms for the 10 x 10
axis operator of so(5) and 3 ms for the 21 x 21 one of so(7), against 13 and
73 ms with QQi matrices.

:class:`Polynomial` holds the exact polynomial arithmetic the library needs
(sum, product, division, gcd, derivative, Taylor shift, conjugation), all
in QQi; the factoring over Q(i) built on it lives in ``decomp``.

Exact data also has an image over the prime field GF(p) (:func:`mod_p`,
:class:`ModPSpan`).  Spans there are cheap and bound spans over Q(i) from
below, so a span that is full over GF(p) is full over Q(i); nothing short of
full is ever concluded from them.  Exact ``rank`` and ``kernel`` use this:
a matrix of full rank over GF(p) has full rank, and with at least as many
rows as columns the zero kernel, with no elimination over Q(i).

Subspaces are kept in a canonical form (reduced row echelon, pivots
normalized to 1, zero rows dropped) so two subspaces are equal exactly when
their stored bases are equal entrywise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import DEFAULT_TOL, QQI_ONE, QQI_ZERO, QQi, ToleranceContext, as_qqi

EXACT = "exact"
FLOAT = "float"

# array dtype of each backend: QQi objects or complex128
_DTYPE = {EXACT: object, FLOAT: np.complex128}


class BackendMixError(TypeError):
    """Raised when exact and float objects meet in one operation."""


def _same_backend(*objs):
    backends = {o.backend for o in objs}
    if len(backends) != 1:
        raise BackendMixError(f"mixed scalar backends: {sorted(backends)}")
    return backends.pop()


# ---------------------------------------------------------------------------
# scalars, vectors and zero tests of each backend
# ---------------------------------------------------------------------------


def field_tol(backend, tol=None):
    """The tolerance an object of this backend carries: tol or the default
    on the float backend, None on the exact one."""
    return (tol or DEFAULT_TOL) if backend == FLOAT else None


def scalar(x, backend):
    """x as a scalar of the backend: QQi (exact) or complex (float)."""
    return as_qqi(x) if backend == EXACT else complex(x)


def vector(entries, backend):
    """Entries as a vector of the backend: a tuple of QQi (exact) or a new
    complex128 array (float)."""
    if backend == EXACT:
        return tuple(as_qqi(x) for x in entries)
    return np.array(entries, dtype=np.complex128)


def is_negligible(values, backend, tol, scale=1.0):
    """Whether every entry is zero: exactly on the exact backend, within
    tol.tau_rank * scale in absolute value on the float backend."""
    if backend == EXACT:
        return all(x.is_zero() for x in values)
    return _magnitude(values) <= tol.tau_rank * scale


def _magnitude(x) -> float:
    """Largest entry magnitude of a Matrix, array or vector."""
    values = np.asarray(x.data if isinstance(x, Matrix) else x, dtype=np.complex128)
    return float(np.abs(values).max(initial=0.0))


def _full(shape, x, backend):
    return np.full(shape, scalar(x, backend), dtype=_DTYPE[backend])


def _array(data, backend, cols=None):
    """Nested rows (or an array) as a 2-D array of the backend's dtype;
    cols fixes the width when there are no rows."""
    if backend not in _DTYPE:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == EXACT:
        rows = [[as_qqi(x) for x in row] for row in data]
        ncols = len(rows[0]) if rows else (cols or 0)
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix data")
        arr = np.empty((len(rows), ncols), dtype=object)
        if rows:
            arr[...] = rows
        return arr
    arr = np.array(data, dtype=np.complex128)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, cols or 0)
    if arr.ndim != 2:
        raise ValueError("matrix data must be two-dimensional")
    return arr


def _split(arr):
    """Exact entries as integer numerators over their least common
    denominator: (re, im, den), re and im object arrays of Python ints in
    arr's shape, im None when every entry is real."""
    flat = vector(arr.ravel(), EXACT)
    parts = [x.re for x in flat], [x.im for x in flat]
    den = math.lcm(*(q.denominator for part in parts for q in part))

    def numerators(part):
        return np.array([q.numerator * (den // q.denominator) for q in part],
                        dtype=object).reshape(arr.shape)

    return numerators(parts[0]), numerators(parts[1]) if any(parts[1]) else None, den


def _gaussian_product(ar, ai, br, bi):
    """(ar + i ai) @ (br + i bi) on integer arrays, as (re, im) with im None
    when the product is real: one integer product for real operands, two or
    four for Gaussian ones."""
    re, im = ar @ br, None
    if ai is not None:
        im = ai @ br
        if bi is not None:
            re = re - ai @ bi
    if bi is not None:
        im = ar @ bi if im is None else im + ar @ bi
    return re, im


def _product(a, b, backend):
    """a @ b.  Exact operands are multiplied fraction-free: an integer
    product of the numerators, and one QQi per distinct value of the result
    over the product of the two denominators."""
    if backend == FLOAT:
        return a @ b
    ar, ai, da = _split(a)
    br, bi, db = _split(b)
    re, im = _gaussian_product(ar, ai, br, bi)
    keys = list(zip(re.flat, im.flat)) if im is not None else [(x, 0) for x in re.flat]
    den = da * db
    values = {(0, 0): QQI_ZERO}
    for key in keys:
        if key not in values:
            values[key] = QQi._raw(Fraction(key[0], den), Fraction(key[1], den))
    out = np.empty(len(keys), dtype=object)
    out[:] = [values[key] for key in keys]
    return out.reshape(re.shape)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Dense rows x cols matrix over one backend.  Instances are immutable.

    ``data`` is a read-only 2-D numpy array for both backends: dtype object
    holding QQi entries on the exact backend, complex128 on the float
    backend, so arithmetic, slicing and comparison have one code path.
    Entries come back as QQi or complex128 scalars; rows, columns, matrix
    images and flattenings as :func:`vector` values.
    """

    __slots__ = ("rows", "cols", "backend", "data", "tol")

    def __init__(self, data, backend, tol=None, cols=None):
        self._set(_array(data, backend, cols), backend, tol)

    def _set(self, arr, backend, tol):
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "rows", arr.shape[0])
        object.__setattr__(self, "cols", arr.shape[1])
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "tol", field_tol(backend, tol))

    @classmethod
    def _wrap(cls, arr, backend, tol):
        """A Matrix around an array already of the backend's dtype."""
        self = object.__new__(cls)
        self._set(arr, backend, tol)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, data):
        return cls(data, EXACT)

    @classmethod
    def from_float(cls, data, tol=None):
        return cls(data, FLOAT, tol=tol)

    @classmethod
    def identity(cls, n, backend=EXACT, tol=None):
        arr = _full((n, n), 0, backend)
        np.fill_diagonal(arr, scalar(1, backend))
        return cls._wrap(arr, backend, tol)

    @classmethod
    def zeros(cls, rows, cols, backend=EXACT, tol=None):
        return cls._wrap(_full((rows, cols), 0, backend), backend, tol)

    @classmethod
    def from_rows(cls, vectors, backend, tol=None):
        return cls(list(vectors), backend, tol=tol)

    @classmethod
    def from_cols(cls, vectors, backend, tol=None):
        return cls.from_rows(vectors, backend, tol=tol).transpose()

    # -- element access -----------------------------------------------------

    def entry(self, i, j):
        return self.data[i, j]

    def row(self, i):
        return vector(self.data[i], self.backend)

    def col(self, j):
        return vector(self.data[:, j], self.backend)

    def row_vectors(self):
        return [self.row(i) for i in range(self.rows)]

    # -- arithmetic -----------------------------------------------------------

    def _like(self, arr):
        return Matrix._wrap(arr, self.backend, self.tol)

    def __add__(self, other):
        _same_backend(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return self._like(self.data + other.data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(-self.data)

    def scale(self, s):
        return self._like(self.data * scalar(s, self.backend))

    def __matmul__(self, other):
        _same_backend(self, other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return self._like(_product(self.data, other.data, self.backend))

    def apply(self, vec):
        """Matrix-vector product."""
        v = np.asarray(vec, dtype=self.data.dtype)
        return vector(_product(self.data, v, self.backend), self.backend)

    def kron(self, other):
        """Kronecker product."""
        _same_backend(self, other)
        return self._like(np.kron(self.data, other.data))

    def transpose(self):
        return self._like(self.data.T.copy())

    @property
    def T(self):
        return self.transpose()

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return scalar(np.trace(self.data), self.backend)

    def is_zero(self):
        return is_negligible(self.data.ravel(), self.backend, self.tol)

    def flatten(self):
        """Row-major flattening into an ambient rows*cols vector."""
        return vector(self.data.ravel(), self.backend)

    @classmethod
    def unflatten(cls, vec, rows, cols, backend, tol=None):
        return cls([vec[i * cols : (i + 1) * cols] for i in range(rows)], backend,
                   tol=tol, cols=cols)

    def block(self, r0, r1, c0, c1):
        """Submatrix with rows r0:r1 and columns c0:c1."""
        return self._like(self.data[r0:r1, c0:c1].copy())

    @classmethod
    def block_diag(cls, blocks, backend=None, tol=None):
        blocks = list(blocks)
        backend = backend or blocks[0].backend
        n = sum(b.rows for b in blocks)
        out = _full((n, n), 0, backend)
        at = 0
        for b in blocks:
            out[at : at + b.rows, at : at + b.cols] = b.data
            at += b.rows
        return cls._wrap(out, backend, tol or blocks[0].tol)

    def to_float(self, tol=None):
        if self.backend == FLOAT:
            return self
        return Matrix(self.data, FLOAT, tol=tol)

    def with_tol(self, tol):
        """This matrix carrying the tolerance tol (on the exact backend,
        which carries none, the matrix itself)."""
        tol = field_tol(self.backend, tol)
        return self if tol == self.tol else Matrix._wrap(self.data, self.backend, tol)

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        if self.backend == FLOAT:
            return self._like(np.linalg.inv(self.data))
        # the reduced row echelon form of [A | I] is [I | A^-1] exactly when
        # A is invertible
        sb = SpanBuilder(2 * n, EXACT)
        sb.add_all(np.hstack([self.data, Matrix.identity(n).data]))
        if sb.pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in sb.rows], EXACT, cols=n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.backend == other.backend and bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        # equal entries hash alike on both backends (complex hashing ignores
        # the sign of zero, as array_equal does)
        return hash((self.data.shape, tuple(self.data.ravel().tolist())))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols} {self.backend}: {body}]"


# ---------------------------------------------------------------------------
# echelon spans
# ---------------------------------------------------------------------------


class SpanBuilder:
    """Incrementally maintained reduced row echelon span.

    Rows are kept fully reduced and pivot-normalized at all times, so the
    basis is canonical after every insertion and membership tests are a
    single reduction pass.  Exact rows are tuples of QQi reduced by a loop
    over Python sequences (faster than object arrays at these sizes);
    float rows are complex arrays.
    """

    def __init__(self, ambient, backend, tol=None):
        self.ambient = ambient
        self.backend = backend
        self.tol = field_tol(backend, tol)
        self.rows = []  # list of vectors, sorted by pivot column
        self.pivots = []  # pivot column of each row

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        """Eliminate existing pivots from vec; returns the residual."""
        if self.backend == EXACT:
            v = list(vec)
            for row, p in zip(self.rows, self.pivots):
                c = v[p]
                if not c.is_zero():
                    for j in range(p, self.ambient):
                        v[j] = v[j] - c * row[j]
            return v
        v = np.array(vec, dtype=np.complex128)
        for row, p in zip(self.rows, self.pivots):
            v = v - v[p] * row
        return v

    def _pivot_of(self, v, vec, scale=None):
        """Pivot column of the residual v of vec, or None when v is zero:
        exactly, or within tau_rank relative to scale (see add)."""
        if self.backend == EXACT:
            return next((j for j, x in enumerate(v) if not x.is_zero()), None)
        mags = np.abs(v)
        if not mags.size:
            return None
        j = int(np.argmax(mags))
        if scale is None:
            scale = max(_magnitude(vec), 1.0)
        if mags[j] <= self.tol.tau_rank * scale:
            return None
        return j

    def add(self, vec, scale=None):
        """Insert vec's direction into the span; returns True if dim grew.
        A float residual is negligible within tau_rank relative to scale, by
        default max(1, vec's largest entry).  A product passes the product
        of its factors' magnitudes, so that at any scale of the factors its
        round-off is never taken for a new direction."""
        v = self._reduce(vec)
        p = self._pivot_of(v, vec, scale)
        if p is None:
            return False
        if self.backend == EXACT:
            inv = QQI_ONE / v[p]
            v = tuple(inv * x for x in v)
            # clear the new pivot column from existing rows
            new_rows = []
            for row in self.rows:
                c = row[p]
                if c.is_zero():
                    new_rows.append(row)
                else:
                    new_rows.append(tuple(x - c * y for x, y in zip(row, v)))
            self.rows = new_rows
        else:
            v = v / v[p]
            v = np.where(np.abs(v) <= self.tol.tau_rank, 0.0, v)
            self.rows = [row - row[p] * v for row in self.rows]
        # insert keeping pivot order
        at = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    def magnitude(self, x):
        """The largest entry magnitude of a float Matrix or vector x; 1 on
        the exact backend, which has no round-off."""
        return 1.0 if self.backend == EXACT else _magnitude(x)

    def add_all(self, vectors):
        for v in vectors:
            self.add(v)

    def contains(self, vec):
        return self._pivot_of(self._reduce(vec), vec) is None

    def subspace(self):
        return Subspace._from_canonical(
            self.ambient, self.rows, self.backend, self.tol, self.pivots
        )


# ---------------------------------------------------------------------------
# images over GF(p)
# ---------------------------------------------------------------------------

# A prime p = 1 (mod 4), so that i has an image in GF(p).  Residues are below
# 2**26, so a product of two is below 2**52, and an int64 dot product of up
# to MOD_P_MAX_AMBIENT such products cannot overflow.
MOD_P = 67108837
MOD_P_MAX_AMBIENT = 2**11
# p = 5 (mod 8), so 2 is not a square mod p and 2^((p-1)/4) squares to -1
_MOD_P_I = pow(2, (MOD_P - 1) // 4, MOD_P)


def mod_p(values):
    """Image of exact entries over GF(MOD_P), as an int64 array of values'
    shape (a list of equal-shape arrays or vectors is imaged stacked); None
    when the entries are not exact or a denominator is divisible by MOD_P.

    The map is the ring homomorphism Z[i]_(pi) -> GF(MOD_P) sending i to a
    square root of -1, where pi is the Gaussian prime above MOD_P that it
    kills.  Z[i]_(pi) is a discrete valuation ring: a Q(i)-linear
    dependence among vectors over it can be scaled until one coefficient is
    a unit, and then maps to a dependence over GF(MOD_P).  So vectors whose
    images are independent are independent over Q(i): a span that is full
    over GF(MOD_P) is full over Q(i), and one that is not says nothing.
    """
    arr = np.asarray(values)
    if arr.size and (arr.dtype != object or not all(isinstance(x, QQi) for x in arr.flat)):
        return None
    # MOD_P is prime, so it divides the common denominator exactly when it
    # divides one of the entries' denominators
    re, im, den = _split(arr)
    if den % MOD_P == 0:
        return None
    num = (re if im is None else re + _MOD_P_I * im) % MOD_P
    # residues and the inverse are below 2**26, so their product fits int64
    return num.astype(np.int64) * pow(den, -1, MOD_P) % MOD_P


def mod_p_product(a, b):
    """a @ b over GF(MOD_P) for residue arrays with an inner dimension of at
    most MOD_P_MAX_AMBIENT."""
    return a @ b % MOD_P


class ModPSpan:
    """Reduced row echelon span of residue vectors over GF(MOD_P).

    It decides dimensions only, and soundly only one way (see
    :func:`mod_p`): full here proves full over Q(i).  The ambient dimension
    is at most MOD_P_MAX_AMBIENT, so that reducing a vector against all rows
    at once is one int64 product that cannot overflow.
    """

    def __init__(self, ambient):
        if ambient > MOD_P_MAX_AMBIENT:
            raise ValueError(f"ambient dimension {ambient} exceeds {MOD_P_MAX_AMBIENT}")
        self.ambient = ambient
        self.rows = np.zeros((0, ambient), dtype=np.int64)
        self.pivots = []  # pivot column of each row

    @property
    def dim(self):
        return len(self.pivots)

    def add(self, vec, scale=None):
        """Insert vec's direction into the span; returns True if dim grew.
        Residues are exact, so scale (see SpanBuilder.add) is unused."""
        # rows are fully reduced, so vec's coordinates at the pivots are the
        # coefficients that clear them
        v = (vec - vec[self.pivots] @ self.rows) % MOD_P
        nonzero = np.flatnonzero(v)
        if not nonzero.size:
            return False
        p = int(nonzero[0])
        v = v * pow(int(v[p]), -1, MOD_P) % MOD_P
        self.rows = np.vstack([(self.rows - np.outer(self.rows[:, p], v)) % MOD_P, v])
        self.pivots.append(p)
        return True


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of the ambient coordinate space, stored canonically.

    The basis rows are in reduced row echelon form with pivots 1, so
    equality of subspaces is equality of bases.
    """

    __slots__ = ("ambient_dim", "backend", "tol", "_rows", "_pivots")

    def __init__(self, *args, **kwargs):
        raise TypeError("use Subspace.from_vectors / zero / full")

    @classmethod
    def _from_canonical(cls, ambient, rows, backend, tol, pivots):
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", ambient)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "tol", field_tol(backend, tol))
        object.__setattr__(self, "_rows", tuple(vector(r, backend) for r in rows))
        object.__setattr__(self, "_pivots", tuple(pivots))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient, vectors, backend=EXACT, tol=None):
        sb = SpanBuilder(ambient, backend, tol)
        sb.add_all(vector(v, backend) for v in vectors)
        return sb.subspace()

    @classmethod
    def zero(cls, ambient, backend=EXACT, tol=None):
        return cls._from_canonical(ambient, [], backend, tol, [])

    @classmethod
    def full(cls, ambient, backend=EXACT, tol=None):
        eye = Matrix.identity(ambient, backend, tol)
        return cls._from_canonical(ambient, eye.row_vectors(), backend, tol, range(ambient))

    @property
    def dim(self):
        return len(self._rows)

    @property
    def basis(self):
        return self._rows

    @property
    def pivots(self):
        """Pivot column of each basis row."""
        return self._pivots

    def basis_matrix(self):
        return Matrix(list(self._rows), self.backend, tol=self.tol, cols=self.ambient_dim)

    def builder(self):
        sb = SpanBuilder(self.ambient_dim, self.backend, self.tol)
        sb.rows = list(self._rows)
        sb.pivots = list(self._pivots)
        return sb

    def contains(self, vec):
        return self.builder().contains(vec)

    def contains_subspace(self, other):
        b = self.builder()
        return all(b.contains(v) for v in other.basis)

    def is_full(self):
        return self.dim == self.ambient_dim

    def is_zero(self):
        return self.dim == 0

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.backend != other.backend or self.ambient_dim != other.ambient_dim:
            return False
        if self.dim != other.dim:
            return False
        if self.backend == EXACT:
            return self._rows == other._rows
        tol = self.tol.tau_rank
        return all(
            bool(np.allclose(a, b, atol=10 * tol)) for a, b in zip(self._rows, other._rows)
        )

    def __hash__(self):
        if self.backend == EXACT:
            return hash((self.ambient_dim, self._rows))
        return hash((self.ambient_dim, self.dim))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim}, {self.backend})"


# ---------------------------------------------------------------------------
# rank / kernel / duality
# ---------------------------------------------------------------------------


def _full_rank_mod_p(M: Matrix) -> bool:
    """Whether the rows of the exact M span a space of dimension
    min(rows, cols) over GF(p), which proves that rank over Q(i) (see
    mod_p).  False when they fall short or M has no image over GF(p)."""
    if M.cols > MOD_P_MAX_AMBIENT:
        return False
    rows = mod_p(M.data)
    if rows is None:
        return False
    span = ModPSpan(M.cols)
    target = min(M.rows, M.cols)
    for row in rows:
        if span.dim == target:
            break
        span.add(row)
    return span.dim == target


def rank(M: Matrix) -> int:
    """Row rank.  An exact M whose image over GF(p) has full rank has full
    rank, with no elimination over Q(i); any other exact rank comes from
    elimination over Q(i).  The float backend thresholds singular values at
    tau_rank relative to the largest one."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.backend == EXACT:
        if _full_rank_mod_p(M):
            return min(M.rows, M.cols)
        sb = SpanBuilder(M.cols, EXACT)
        sb.add_all(M.row_vectors())
        return sb.dim
    s = np.linalg.svd(M.data, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > M.tol.tau_rank * s[0]))


def kernel(M: Matrix) -> Subspace:
    """Canonical right kernel {v : Mv = 0}.  An exact M with at least as
    many rows as columns whose image over GF(p) has rank cols has the zero
    kernel, decided without elimination over Q(i); every other exact kernel
    is read off the reduced row echelon form over Q(i)."""
    if M.backend == EXACT:
        if M.rows >= M.cols and _full_rank_mod_p(M):
            return Subspace.zero(M.cols, EXACT)
        return _field_kernel(M)
    if M.rows == 0:
        return Subspace.full(M.cols, FLOAT, M.tol)
    u, s, vh = np.linalg.svd(M.data, full_matrices=True)
    cutoff = M.tol.tau_rank * (s[0] if s.size and s[0] > 0 else 1.0)
    r = int(np.sum(s > cutoff))
    return Subspace.from_vectors(M.cols, [vh[i].conj() for i in range(r, M.cols)],
                                 FLOAT, M.tol)


def _field_kernel(M: Matrix) -> Subspace:
    """kernel of an exact M computed over Q(i), read off its reduced row
    echelon form."""
    sb = SpanBuilder(M.cols, EXACT)
    sb.add_all(M.row_vectors())
    pivots = set(sb.pivots)
    basis = []
    for f in (j for j in range(M.cols) if j not in pivots):
        v = [QQI_ZERO] * M.cols
        v[f] = QQI_ONE
        for row, p in zip(sb.rows, sb.pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return Subspace.from_vectors(M.cols, basis, EXACT)


def annihilator(S: Subspace) -> Subspace:
    """Covectors p with p.v = 0 for every basis v of S, under the bilinear
    (unconjugated) pairing."""
    if S.dim == 0:
        return Subspace.full(S.ambient_dim, S.backend, S.tol)
    return kernel(S.basis_matrix())


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Coefficients in ascending degree order over one backend."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs, backend=EXACT):
        cs = [scalar(c, backend) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self.backend = backend

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return scalar(0, self.backend)

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs], self.backend)

    def __add__(self, other):
        k = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(j) + other.coeff(j) for j in range(k)], self.backend)

    def derivative(self):
        return Polynomial([c * k for k, c in enumerate(self.coeffs)][1:], self.backend)

    def conjugate(self):
        """The polynomial with conjugated coefficients; exact backend only."""
        return Polynomial([QQi._raw(c.re, -c.im) for c in self.coeffs], EXACT)

    def shift(self, s):
        """The Taylor shift x -> x + s: the polynomial p(x + s)."""
        step = Polynomial([s, 1], self.backend)
        acc = Polynomial([], self.backend)
        for c in reversed(self.coeffs):
            acc = acc * step + Polynomial([c], self.backend)
        return acc

    def gcd(self, other):
        """Monic greatest common divisor by Euclid's algorithm; exact backend
        only.  Zero when both are zero."""
        a, b = self.monic(), other.monic()
        while not b.is_zero():
            a, b = b, a.divmod(b)[1].monic()
        return a

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Polynomial([], self.backend)
        out = [scalar(0, self.backend)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out, self.backend)

    def divmod(self, other):
        """Exact-backend polynomial division."""
        if self.backend != EXACT or other.backend != EXACT:
            raise ValueError("polynomial division requires the exact backend")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [QQI_ZERO] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(not c.is_zero() for c in rem):
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * c
            while rem and rem[-1].is_zero():
                rem.pop()
        return Polynomial(q, EXACT), Polynomial(rem, EXACT)

    def divides(self, other) -> bool:
        _, r = other.divmod(self)
        return r.is_zero()

    def __call__(self, x):
        """Evaluate at a scalar or a square Matrix (Horner)."""
        if isinstance(x, Matrix):
            n = x.rows
            acc = Matrix.zeros(n, n, x.backend, x.tol)
            eye = Matrix.identity(n, x.backend, x.tol)
            for c in reversed(self.coeffs):
                acc = (x @ acc) + eye.scale(c)
            return acc
        acc = scalar(0, self.backend)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = [f"({c})x^{k}" for k, c in enumerate(self.coeffs)]
        return "Polynomial(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# polynomial invariants of a matrix
# ---------------------------------------------------------------------------


def char_poly(A: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - A), degree n.

    Exact matrices run Faddeev-LeVerrier in Python ints on the numerator
    matrix B = den * A of :func:`_split`: M_k = B (M_{k-1} + c_{k-1} I) and
    c_k = -tr(M_k) / k give det(xI - B) = sum c_k x^(n-k).  Those c_k are
    Gaussian integers, so every division by k is exact, and det(xI - A)
    has c_k / den^k at x^(n-k)."""
    if A.rows != A.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = A.rows
    if A.backend == EXACT:
        br, bi, den = _split(A.data)
        diagonal = np.diag_indices(n)
        mr = np.zeros((n, n), dtype=object)
        mi = None if bi is None else np.zeros((n, n), dtype=object)
        c = (1, 0)
        coeffs = [QQI_ONE]  # of x^n
        for k in range(1, n + 1):
            mr[diagonal] += c[0]
            if mi is not None:
                mi[diagonal] += c[1]
            mr, mi = _gaussian_product(br, bi, mr, mi)
            c = (-(np.trace(mr) // k), 0 if mi is None else -(np.trace(mi) // k))
            coeffs.append(QQi._raw(Fraction(c[0], den**k), Fraction(c[1], den**k)))
        return Polynomial(coeffs[::-1], EXACT)
    eig = np.linalg.eigvals(A.data)
    cs = np.poly(eig)  # descending
    return Polynomial(cs[::-1].tolist(), FLOAT)


def min_poly(A: Matrix) -> Polynomial:
    """Monic minimal polynomial; exact backend only (its degree is a rank
    decision)."""
    if A.rows != A.cols:
        raise ValueError("minimal polynomial of non-square matrix")
    if A.backend != EXACT:
        raise ValueError("minimal polynomial requires the exact backend")
    n = A.rows
    sb = SpanBuilder(n * n, EXACT)
    powers = [Matrix.identity(n, EXACT)]
    while sb.add(powers[-1].flatten()):
        powers.append(powers[-1] @ A)
    # the last power is the first that depends on the earlier ones, so the
    # kernel of the stacked powers is one line, never zero, and no GF(p)
    # pass can decide it: the minimal polynomial's coefficients up to scale
    relation = _field_kernel(Matrix.from_cols([P.flatten() for P in powers], EXACT))
    return Polynomial(relation.basis[0], EXACT).monic()


def eigenvalues(A: Matrix, tol: ToleranceContext | None = None):
    """Eigenvalues with multiplicities, grouped within tau_gap.

    Returns a list of (value: complex, multiplicity: int) sorted by
    (real, imag) of the value.
    """
    if A.rows != A.cols:
        raise ValueError("eigenvalues of non-square matrix")
    tol = tol or A.tol or DEFAULT_TOL
    vals = np.linalg.eigvals(A.to_float().data)
    return cluster_values(vals.tolist(), tol.tau_gap)


def cluster_values(values, gap):
    """Group complex values by single-linkage within the given gap.

    Returns [(cluster mean, cluster size)] sorted by (real, imag).
    """
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(values[i])
    out = [(complex(np.mean(g)), len(g)) for g in groups.values()]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out
