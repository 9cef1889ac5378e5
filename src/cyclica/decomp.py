"""Block-triangular decomposition and isotypic classification.

Every unital matrix algebra admits a basis in which all its elements are
simultaneously block upper-triangular with irreducible diagonal blocks (a
composition series of the natural module).  The block count and the multiset
of block dimensions are invariants of the input; the diagonal blocks group
into isomorphism classes, and comparing each class's block dimension with
its multiplicity is the d >= k sufficiency test for dense cyclic vectors.

The splitter spins vectors before it proves anything, as the MeatAxe does:
orbits of coordinate vectors and covectors first, then eigenvectors of
generators, products and random algebra elements, then random vectors, with
a fixed budget (RETRIES) for the random stages.  The first proper orbit is
the split.  Irreducibility of a diagonal block is certified only through
the closure dimension (dim d^2 iff the block acts irreducibly), and the
closure is computed only once the coordinate orbits find no split; a failed
random search never certifies anything.  When the budget runs out on a
reducible input the splitter raises :class:`InconclusiveError` instead of
guessing.

On exact inputs the eigen-probes need the irreducible factors over Q(i) of
minimal polynomials.  They come from Trager's norm method on
:class:`~cyclica.linalg.Polynomial` arithmetic, which leaves to sympy only
the factoring of one integer polynomial; sympy is imported on the first
such call, not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .algebra import (
    GeneratorSet,
    _trial_rng,
    closure,
    find_cyclic_vector,
    is_cyclic_vector,
    sample_vector,
    vector_orbit,
)
from .linalg import (
    EXACT,
    FLOAT,
    Matrix,
    Polynomial,
    Subspace,
    annihilator,
    eigenvalues,
    is_negligible,
    kernel,
    min_poly,
    rank,
)
from .scalars import QQi


class InconclusiveError(RuntimeError):
    """Probing budget exhausted without a verdict; never a wrong answer."""


RETRIES = 20  # random algebra elements, and random vectors, per search


# ---------------------------------------------------------------------------
# invariant subspace search
# ---------------------------------------------------------------------------


def _factor_exact(p: Polynomial):
    """Irreducible factors over the Gaussian rationals of an exact
    polynomial: monic, each once, by degree and then by coefficient text.

    Trager's norm method (1976).  With g the square-free part of p, take
    the first s >= 0 for which the norm N = h * conj(h) of h(x) = g(x + si)
    is square-free, which for a square-free h is when h and conj(h) are
    coprime.  N has rational coefficients, and for each irreducible factor
    N_j of N over Z, gcd(h, N_j) is an irreducible factor of h over Q(i);
    shifted back by -si it is one of g."""
    if p.degree < 1:
        return []
    g = p.divmod(p.gcd(p.derivative()))[0].monic()
    for s in count():
        h = g.shift(QQi(0, s))
        h_bar = h.conjugate()
        if h.gcd(h_bar).degree == 0:
            break
    out = [h.gcd(N_j).shift(QQi(0, -s)) for N_j in _integer_factors(h * h_bar)]
    out.sort(key=lambda q: (q.degree, str([str(c) for c in q.coeffs])))
    return out


def _integer_factors(N: Polynomial):
    """The irreducible factors over Z of a polynomial with rational
    coefficients, each once; the one use of sympy."""
    import sympy

    den = math.lcm(*(c.re.denominator for c in N.coeffs))
    ints = [int(c.re * den) for c in reversed(N.coeffs)]
    _, factors = sympy.Poly(ints, sympy.Symbol("x"), domain=sympy.ZZ).factor_list()
    return [Polynomial([int(c) for c in reversed(f.all_coeffs())], EXACT)
            for f, _mult in factors]


def _split(G, G_t, vectors, covectors):
    """The first proper orbit of a vector, else the annihilator of the first
    proper orbit of a covector under the transposed generators, else None.
    The covectors are not touched while a vector can still split."""
    for v in vectors:
        O = vector_orbit(G, v)
        if 0 < O.dim < G.n:
            return O
    for p in covectors:
        O = vector_orbit(G_t, p)
        if 0 < O.dim < G.n:
            return annihilator(O)
    return None


def _kernel_basis(M):
    """The kernel basis of M, computed on first use."""
    yield from kernel(M).basis


def _eigen_matrices(G, R):
    """Matrices M whose kernels hold the eigenvectors of R, one at a time:
    f(R) for every irreducible factor f over Q(i) of R's minimal polynomial
    m on exact inputs, R - lambda I for every eigenvalue on float ones.  The
    kernel of M^T holds the matching left eigenvectors, as f(R)^T = f(R^T).
    An exact f(R) is zero exactly when f = m, and the kernels of a zero
    matrix and of its transpose are spanned by the coordinate frame, which
    the search spins first; so f = m is skipped, and a minimal polynomial of
    degree 1 is not factored at all."""
    if G.backend == EXACT:
        m = min_poly(R)
        if m.degree > 1:
            for f in _factor_exact(m):
                if f != m:
                    yield f(R)
    else:
        for lam, _mult in eigenvalues(R, G.tol):
            yield Matrix(R.to_float().data - lam * np.eye(G.n), FLOAT, tol=G.tol)


def _random_algebra_element(basis_matrices, rng, backend, tol):
    """Small-integer (exact) or standard normal (float) combination."""
    n = basis_matrices[0].rows
    acc = Matrix.zeros(n, n, backend, tol)
    for M in basis_matrices:
        if backend == EXACT:
            c = int(rng.integers(-3, 4))
        else:
            c = rng.standard_normal()
        acc = acc + M.scale(c)
    return acc


def find_invariant_subspace(G: GeneratorSet, seed=0):
    """A proper nonzero subspace invariant under every generator, or None.

    The search spins vectors and covectors and takes the first orbit that
    is proper, in this order: coordinate vectors; eigenvectors of the
    generators, their pairwise products and RETRIES random algebra
    elements; RETRIES random vectors.  A split is returned only when an
    orbit is proper.  None is certified: the algebra closure is computed
    only after the coordinate orbits fail, and None is returned only when
    it has full dimension n^2, which happens exactly for irreducible
    inputs.  A reducible input that survives every stage raises
    InconclusiveError.
    """
    G_t = G.transposed()
    coordinate = Matrix.identity(G.n, G.backend, G.tol).row_vectors()
    hit = _split(G, G_t, coordinate, coordinate)
    if hit is not None:
        return hit
    cl = closure(G)
    if cl.dim == G.n * G.n:
        return None
    probes = chain(
        G.gens,
        (A @ B for A in G.gens for B in G.gens),
        (_random_algebra_element(cl.matrices, _trial_rng(seed, t), G.backend, G.tol)
         for t in range(RETRIES)),
    )
    seen = set()
    for R in probes:
        if R in seen:
            continue  # equal probes give equal answers
        seen.add(R)
        for M in _eigen_matrices(G, R):
            hit = _split(G, G_t, kernel(M).basis, _kernel_basis(M.T))
            if hit is not None:
                return hit
    for t in range(RETRIES):
        v = sample_vector(G, _trial_rng(seed, 10_000 + t))
        hit = _split(G, G_t, [v], [v])
        if hit is not None:
            return hit
    raise InconclusiveError(
        "input is reducible (closure dimension below n^2) but no invariant "
        "subspace was found within the probing budget"
    )


# ---------------------------------------------------------------------------
# block triangular form
# ---------------------------------------------------------------------------


@dataclass
class BlockTriangularForm:
    generators: GeneratorSet
    change_of_basis: Matrix  # columns are the new basis, first blocks first
    block_dims: list
    transformed: list  # P^-1 A P for each generator

    @property
    def k(self):
        return len(self.block_dims)

    def offsets(self):
        offs = [0]
        for d in self.block_dims:
            offs.append(offs[-1] + d)
        return offs

    def diagonal_block_family(self, i):
        """The i-th diagonal block of every transformed generator."""
        offs = self.offsets()
        a, b = offs[i], offs[i + 1]
        return [T.block(a, b, a, b) for T in self.transformed]

    def lower_blocks_vanish(self):
        return _upper_blocks_vanish(self, [T.T for T in self.transformed])


def _upper_blocks_vanish(btf: BlockTriangularForm, matrices) -> bool:
    """Whether every matrix vanishes to the right of each of btf's diagonal
    blocks: exactly, or within 100 tau_rank of the generators' tolerance."""
    G, offs = btf.generators, btf.offsets()
    return all(is_negligible(M.block(a, b, b, offs[-1]).flatten(), G.backend, G.tol, 100)
               for M in matrices for a, b in zip(offs, offs[1:]))


def _completion_basis(W: Subspace):
    """Columns: the subspace basis followed by unit vectors at free
    coordinates; always invertible."""
    n = W.ambient_dim
    cols = list(W.basis)
    eye = Matrix.identity(n, W.backend, W.tol)
    for j in range(n):
        if j not in W.pivots:
            cols.append(eye.row(j))
    return Matrix.from_cols(cols, W.backend, tol=W.tol)


def block_triangularize(G: GeneratorSet, seed=0) -> BlockTriangularForm:
    """Composition series: recursive splitting along invariant subspaces."""
    P, dims = _triangularize_rec(G, seed)
    P_inv = P.inverse()
    transformed = [P_inv @ A @ P for A in G.gens]
    return BlockTriangularForm(G, P, dims, transformed)


def _triangularize_rec(G, seed):
    n = G.n
    if n == 0:
        return Matrix.identity(0, G.backend, G.tol), []
    W = find_invariant_subspace(G, seed)
    if W is None:
        return Matrix.identity(n, G.backend, G.tol), [n]
    P = _completion_basis(W)
    P_inv = P.inverse()
    conj = [P_inv @ A @ P for A in G.gens]
    w = W.dim
    top = GeneratorSet(w, [A.block(0, w, 0, w) for A in conj], tol=G.tol)
    bottom = GeneratorSet(n - w, [A.block(w, n, w, n) for A in conj], tol=G.tol)
    P_top, dims_top = _triangularize_rec(top, seed)
    P_bot, dims_bot = _triangularize_rec(bottom, seed)
    P_total = P @ Matrix.block_diag([P_top, P_bot], G.backend, G.tol)
    return P_total, dims_top + dims_bot


# ---------------------------------------------------------------------------
# isotypic classification
# ---------------------------------------------------------------------------


@dataclass
class IsotypicClass:
    members: list  # block indices, increasing
    block_dim: int
    intertwiners: dict  # member index -> Matrix T with T A_member = A_first T

    @property
    def multiplicity(self):
        return len(self.members)


@dataclass
class IsotypicSummary:
    btf: BlockTriangularForm
    classes: list


def _intertwiner(family_a, family_b, d, backend, tol):
    """Nonzero d x d X with X A = B X jointly over the families, or None.

    Between irreducible families a nonzero solution is automatically
    invertible; invertibility is verified anyway.
    """
    eye = Matrix.identity(d, backend, tol)
    zero = Matrix.zeros(d * d, d * d, backend, tol)
    # X A - B X flattened row-major is (I (x) A^T - B (x) I) vec(X), stacked
    # over the family; adding onto zeros keeps float zeros unsigned
    blocks = [zero + eye.kron(A.T) - B.kron(eye) for A, B in zip(family_a, family_b)]
    M = Matrix([r for blk in blocks for r in blk.row_vectors()], backend, tol, cols=d * d)
    K = kernel(M)
    if K.dim == 0:
        return None
    X = Matrix.unflatten(K.basis[0], d, d, backend, tol)
    if rank(X) < d:
        return None
    return X


def classify_blocks(btf: BlockTriangularForm) -> IsotypicSummary:
    """Group diagonal blocks into isomorphism classes via joint intertwiners."""
    families = [btf.diagonal_block_family(i) for i in range(btf.k)]
    backend = btf.generators.backend
    tol = btf.generators.tol
    classes = []
    for i in range(btf.k):
        placed = False
        for cls in classes:
            first = cls.members[0]
            if btf.block_dims[first] != btf.block_dims[i]:
                continue
            X = _intertwiner(families[i], families[first], btf.block_dims[i], backend, tol)
            if X is not None:
                cls.members.append(i)
                cls.intertwiners[i] = X
                placed = True
                break
        if not placed:
            d = btf.block_dims[i]
            classes.append(
                IsotypicClass(
                    members=[i],
                    block_dim=d,
                    intertwiners={i: Matrix.identity(d, backend, tol)},
                )
            )
    return IsotypicSummary(btf, classes)


def multiplicity_condition(summary: IsotypicSummary) -> bool:
    """Every class has block dimension at least its multiplicity.

    True guarantees a dense open set of cyclic vectors.  False refutes
    existence only when the transformed generators are block-diagonal.
    """
    return all(cls.block_dim >= cls.multiplicity for cls in summary.classes)


def is_block_diagonal(btf: BlockTriangularForm) -> bool:
    """Whether the transformed generators vanish above their diagonal
    blocks too, as they do below them."""
    return _upper_blocks_vanish(btf, btf.transformed)


# ---------------------------------------------------------------------------
# constructive cyclic vector
# ---------------------------------------------------------------------------


def construct_cyclic_vector(btf: BlockTriangularForm, summary: IsotypicSummary,
                            trials=64, seed=0):
    """Cyclic vector built classwise and certified on the full generators.

    Within a class of multiplicity k and block dimension d (k <= d), the
    j-th member receives the component its intertwiner identifies with the
    j-th model basis vector, making the identified components linearly
    independent.  The assembled vector is certified by an orbit computation;
    on failure a randomized search supplies the witness instead, and if that
    also fails the call is inconclusive.
    """
    if not multiplicity_condition(summary):
        raise ValueError(
            "multiplicity condition fails: some class has more copies than "
            "its block dimension"
        )
    G = btf.generators
    components = {}  # block index -> its part of the vector in the new basis
    for cls in summary.classes:
        model = Matrix.identity(cls.block_dim, G.backend, G.tol)
        for j, member in enumerate(sorted(cls.members)):
            T_inv = cls.intertwiners[member].inverse()
            components[member] = T_inv.apply(model.row(j))
    x = btf.change_of_basis.apply([c for i in range(btf.k) for c in components[i]])
    cert = is_cyclic_vector(G, x)
    if cert.is_cyclic:
        return x
    fallback = find_cyclic_vector(G, trials=trials, seed=seed)
    if fallback.is_cyclic:
        return fallback.witness
    raise InconclusiveError(
        "constructed vector failed certification and randomized search "
        "found no witness"
    )


# ---------------------------------------------------------------------------
# orbit bound for block-diagonal inputs
# ---------------------------------------------------------------------------


def block_diagonal_orbit_bound(btf: BlockTriangularForm, summary: IsotypicSummary):
    """Largest possible single-vector orbit dimension for block-diagonal
    inputs: sum over classes of d * min(d, multiplicity).  None when the
    form is not block-diagonal (no bound claimed)."""
    if not is_block_diagonal(btf):
        return None
    return sum(
        cls.block_dim * min(cls.block_dim, cls.multiplicity)
        for cls in summary.classes
    )
