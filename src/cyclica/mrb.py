"""Controlled multidimensional rigid body on so(n).

State space: so(n) in the principal-axis basis S^{ij} = 1_ij - 1_ji,
i < j, ordered lexicographically (for n = 4: S12, S13, S14, S23, S24, S34),
with the orientation convention S^{ij} = -S^{ji}.

The inertia spectrum C_1 < ... < C_n determines the coupling numbers

    c_jk = (C_k - C_j) / (C_j + C_k)

and a symmetric bilinear form on so(n) given on basis pairs sharing exactly
one index by E(S^{ij}, S^{ik}) = c_jk S^{jk} (zero on disjoint or equal
pairs).  The same form comes out of direct matrix arithmetic as
I_C^{-1}[C, W1 W2 + W2 W1] with I_C(W) = CW + WC; that identity is kept as a
cross-check in the tests.  The normalization here carries no factor 1/2 in
front of the commutator form; a global scaling of the form changes no
verdict computed from it.

Linearizing the quadratic Euler-Frahm drift at the equilibrium S^{ab} gives
the axis operator used as an algebra generator.  Its matrix follows the
convention in which the axis label is sign-normalized to put the shared
index first while the probed basis column keeps its canonical label; this
differs from the symmetric-form operator by per-column orientation on some
columns and is the form in which these linearizations are conventionally
tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    GeneratorSet,
    find_cyclic_vector,
    is_cyclic_subspace,
    minimal_cyclic_dimension,
)
from .linalg import EXACT, FLOAT, Matrix, Polynomial, Subspace, char_poly, field_tol, scalar, vector
from .scalars import DEFAULT_TOL


# ---------------------------------------------------------------------------
# inertia and basis bookkeeping
# ---------------------------------------------------------------------------


class InertiaSpec:
    """Body dimension n and a strictly increasing positive inertia spectrum.

    Integer or Fraction inertias put every operator and vector built from
    the body on the exact backend; any float inertia puts them on the float
    backend (``backend``, with tolerance ``tol``).
    """

    def __init__(self, n, C):
        C = list(C)
        if len(C) != n:
            raise ValueError("need one inertia value per dimension")
        self.exact = all(isinstance(c, (int, Fraction)) for c in C)
        if self.exact:
            self.C = [Fraction(c) for c in C]
        else:
            self.C = [float(c) for c in C]
        self.backend = EXACT if self.exact else FLOAT
        self.tol = field_tol(self.backend)
        if any(c <= 0 for c in self.C):
            raise ValueError("inertia values must be positive")
        if any(a >= b for a, b in zip(self.C, self.C[1:])):
            raise ValueError("inertia values must be strictly increasing")
        self.n = n

    @property
    def so_dim(self):
        return self.n * (self.n - 1) // 2

    def __repr__(self):
        return f"InertiaSpec(n={self.n}, C={self.C})"


def so_pairs(n):
    """Lexicographic (i, j) pairs, 1-based, i < j."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class SoBasis:
    """Bijection between index pairs and so(n) coordinates."""

    def __init__(self, n):
        self.n = n
        self.pairs = so_pairs(n)
        self.index = {p: k for k, p in enumerate(self.pairs)}

    def coord_index(self, i, j):
        """Index of S^{ij}; negative orientation when i > j."""
        if i < j:
            return self.index[(i, j)], 1
        return self.index[(j, i)], -1

    @property
    def dim(self):
        return len(self.pairs)


def coupling(C: InertiaSpec, j, k):
    """Antisymmetric coupling (C_k - C_j)/(C_j + C_k); |c_jk| < 1."""
    n = C.n
    if not (1 <= j <= n and 1 <= k <= n) or j == k:
        raise ValueError(f"invalid index pair ({j}, {k})")
    num = C.C[k - 1] - C.C[j - 1]
    den = C.C[j - 1] + C.C[k - 1]
    return num / den


# ---------------------------------------------------------------------------
# the bilinear form
# ---------------------------------------------------------------------------


def _basis_pair_product(C: InertiaSpec, basis: SoBasis, p, q):
    """E(S^p, S^q) for canonical pairs p, q as (coord index, coefficient)."""
    sp, sq = set(p), set(q)
    common = sp & sq
    if len(common) != 1:
        return None
    t = common.pop()
    u = (sp - {t}).pop()
    k = (sq - {t}).pop()
    s1 = 1 if t == p[0] else -1
    s2 = 1 if t == q[0] else -1
    c = coupling(C, u, k)
    idx, orient = basis.coord_index(u, k)
    value = s1 * s2 * orient * c
    return idx, value


def euler_form(C: InertiaSpec, w1, w2):
    """Symmetric bilinear form of the quadratic drift, in so(n) coordinates.

    Bilinear extension of the basis table with both arguments
    sign-normalized to put the shared index first.
    """
    basis = SoBasis(C.n)
    d = basis.dim
    if len(w1) != d or len(w2) != d:
        raise ValueError("coordinate vectors must have so(n) dimension")
    backend = C.backend
    out = [scalar(0, backend)] * d
    for a in range(d):
        xa = w1[a]
        if not xa:
            continue
        for b in range(d):
            yb = w2[b]
            if not yb:
                continue
            hit = _basis_pair_product(C, basis, basis.pairs[a], basis.pairs[b])
            if hit is None:
                continue
            idx, val = hit
            out[idx] = out[idx] + scalar(xa, backend) * scalar(yb, backend) * scalar(val, backend)
    return vector(out, backend)


def _skew_from_coords(C: InertiaSpec, w, basis: SoBasis):
    n = C.n
    M = [[scalar(0, C.backend)] * n for _ in range(n)]
    for k, (i, j) in enumerate(basis.pairs):
        c = scalar(w[k], C.backend)
        M[i - 1][j - 1] = M[i - 1][j - 1] + c
        M[j - 1][i - 1] = M[j - 1][i - 1] - c
    return Matrix(M, C.backend, tol=C.tol)


def euler_form_direct(C: InertiaSpec, w1, w2):
    """The same form through matrix arithmetic: I_C^{-1}[C, W1 W2 + W2 W1].

    I_C acts diagonally on the principal-axis basis with eigenvalue
    C_i + C_j on S^{ij}.
    """
    basis = SoBasis(C.n)
    W1 = _skew_from_coords(C, w1, basis)
    W2 = _skew_from_coords(C, w2, basis)
    S = (W1 @ W2) + (W2 @ W1)
    Cm = Matrix([[C.C[i] if i == j else 0 for j in range(C.n)] for i in range(C.n)],
                C.backend, tol=C.tol)
    K = (Cm @ S) - (S @ Cm)
    out = [
        scalar(K.entry(i - 1, j - 1), C.backend) / scalar(C.C[i - 1] + C.C[j - 1], C.backend)
        for (i, j) in basis.pairs
    ]
    return vector(out, C.backend)


def extension_admissible(C: InertiaSpec, b_hat, B: Subspace) -> bool:
    """Whether the self-coupling of b_hat stays inside the control span,
    the prerequisite for using its linearization as an extension."""
    return B.contains(euler_form(C, b_hat, b_hat))


# ---------------------------------------------------------------------------
# axis operators
# ---------------------------------------------------------------------------


def axis_operator(C: InertiaSpec, axis) -> Matrix:
    """Linearization of the quadratic drift at the principal axis S^{ab}.

    Column at the canonical basis element S^{cd}: sign-normalize only the
    axis so its shared index comes first, take the probe's non-shared index
    as labeled, and read the coupling from the table; the output basis
    element is reduced to canonical orientation.  That is the table entry
    E(S^{ab}, S^{cd}), negated when the shared index is d, which undoes
    the probe's normalization.
    """
    a, b = axis
    n = C.n
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise ValueError(f"invalid principal axis {axis!r}")
    if a > b:
        a, b = b, a
    basis = SoBasis(n)
    d = basis.dim
    cols = []
    for q in basis.pairs:
        col = [0] * d
        hit = _basis_pair_product(C, basis, (a, b), q)
        if hit is not None:
            idx, value = hit
            col[idx] = value if q[0] in (a, b) else -value
        cols.append(col)
    return Matrix.from_cols(cols, C.backend, tol=C.tol)


def direction_operator(C: InertiaSpec, b_hat) -> Matrix:
    """Linearization at a general admissible direction: columns are the
    symmetric form paired with each basis element."""
    basis = SoBasis(C.n)
    d = basis.dim
    cols = []
    for j in range(d):
        e = [0] * d
        e[j] = 1
        cols.append(euler_form(C, b_hat, e))
    return Matrix.from_cols(cols, C.backend, tol=C.tol)


# ---------------------------------------------------------------------------
# perturbation analysis for a two-axis configuration
# ---------------------------------------------------------------------------


@dataclass
class PerturbationResult:
    """Perturbed two-axis operator L1 + L2 + eps * L1 L2 and the spectral
    quantities controlling the splitting of its double zero eigenvalue."""

    eps: object
    operator: Matrix
    char: Polynomial
    p: tuple | None  # (p0, p1, p2, p3, p4); None at eps = 0
    flags: dict = field(default_factory=dict)
    _disc: object = None

    @property
    def discriminant(self):
        if self._disc is None:
            raise ValueError(
                "discriminant undefined at eps = 0; use eps > 0 for the "
                "splitting analysis"
            )
        return self._disc


def _extract_pattern(char: Polynomial, eps):
    """Read (p0..p4) off the ansatz
    z^6 + p4 z^4 - eps p3 z^3 + p2 z^2 - eps p1 z + eps^2 p0."""
    c = [char.coeff(k) for k in range(7)]
    e = scalar(eps, char.backend)
    p4 = c[4]
    p3 = -c[3] / e
    p2 = c[2]
    p1 = -c[1] / e
    p0 = c[0] / (e * e)
    return (p0, p1, p2, p3, p4), c[5]


def perturbed_operator(C: InertiaSpec, eps, axes=((1, 2), (2, 3)),
                       tol=None) -> PerturbationResult:
    """Couple two axis operators and extract the splitting discriminant.

    For eps > 0 the coefficients p0..p4 are recovered from the
    characteristic polynomial and checked for consistency: the z^5
    coefficient must vanish and the extracted values must agree when the
    extraction is repeated at 2 * eps.  Exact inertia plus a rational eps
    runs entirely in exact arithmetic.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    tol = tol or DEFAULT_TOL
    L1 = axis_operator(C, axes[0])
    L2 = axis_operator(C, axes[1])
    if not (C.exact and isinstance(eps, (int, Fraction))):
        L1, L2 = L1.to_float(tol), L2.to_float(tol)

    L_sum, L_prod = L1 + L2, L1 @ L2

    def build(e):
        return L_sum + L_prod.scale(e)

    op = build(eps)
    char = char_poly(op)
    flags = {}
    if eps == 0:
        return PerturbationResult(eps, op, char, None, flags, None)
    p, c5 = _extract_pattern(char, eps)
    # structural check: the extracted coefficients must not depend on eps
    eps2 = 2 * eps
    p_alt, _ = _extract_pattern(char_poly(build(eps2)), eps2)
    if op.backend == EXACT:
        flags["z5_vanishes"] = c5.is_zero()
        flags["stable_coefficients"] = p == p_alt
    else:
        flags["z5_vanishes"] = abs(c5) <= 1e-10
        flags["stable_coefficients"] = all(
            abs(x - y) <= 1e-8 * max(1.0, abs(x)) for x, y in zip(p, p_alt)
        )
    p0, p1, p2, p3, p4 = p
    return PerturbationResult(eps, op, char, p, flags, p1 * p1 - 4 * p2 * p0)


# ---------------------------------------------------------------------------
# the analysis pipeline
# ---------------------------------------------------------------------------


@dataclass
class MrbSystem:
    inertia: InertiaSpec
    axes: list  # controlled principal axes, 1-based (i, j) pairs
    extra_controls: list = field(default_factory=list)  # so(n) coordinate rows
    damping: Matrix | None = None
    include_damping: bool = False

    def __post_init__(self):
        n = self.inertia.n
        for (i, j) in self.axes:
            if not (1 <= i < j <= n):
                raise ValueError(f"invalid axis ({i}, {j})")
        d = self.inertia.so_dim
        if self.damping is not None and (
            self.damping.rows != d or self.damping.cols != d
        ):
            raise ValueError("damping matrix must act on so(n) coordinates")


@dataclass
class MrbReport:
    system: MrbSystem
    control_span_dim: int
    verdict: str  # trivially_reachable | reachable_with_given_controls |
    #               reachable_with_additional_control | no_single_direction |
    #               inconclusive
    witness: object = None
    obstruction: object = None
    hautus_verdict_r1: str | None = None
    decomposition: object = None  # decomp.IsotypicSummary
    perturbation: PerturbationResult | None = None
    design: object = None
    notes: list = field(default_factory=list)


def analyze(sys: MrbSystem, trials=64, seed=0) -> MrbReport:
    """Full reachability analysis of a controlled rigid body.

    Builds the axis linearizations, checks the rank and solvability
    criteria, decomposes the generated algebra, and searches for a single
    additional control direction whose orbit fills so(n).  With exactly two
    controlled axes the eigenvalue-splitting perturbation analysis is
    attached as supporting evidence.
    """
    from . import decomp as decomp_mod
    from . import hautus as hautus_mod

    C = sys.inertia
    basis = SoBasis(C.n)
    d = basis.dim
    control_vecs = []
    for (i, j) in sys.axes:
        e = [0] * d
        e[basis.index[(i, j)]] = 1
        control_vecs.append(e)
    control_vecs.extend(list(v) for v in sys.extra_controls)
    B = Subspace.from_vectors(d, control_vecs, C.backend, C.tol)
    notes = []
    for v in sys.extra_controls:
        if not extension_admissible(C, v, B):
            raise ValueError(
                f"control direction {list(v)} is not admissible: its "
                "self-coupling leaves the control span"
            )
    operators = [axis_operator(C, ax) for ax in sys.axes]
    operators += [direction_operator(C, v) for v in sys.extra_controls]
    if sys.include_damping and sys.damping is not None:
        operators.append(sys.damping)
        notes.append("damping included as an algebra generator")
    G = GeneratorSet(d, operators, tol=C.tol)

    report = MrbReport(sys, B.dim, "inconclusive", notes=notes)
    if B.is_full():
        report.verdict = "trivially_reachable"
        return report

    # computed once: every phase below that needs the locus is passed it
    locus = hautus_mod.rank_drop_locus(G)
    report.hautus_verdict_r1 = hautus_mod.hautus_verdict(G, 1, locus=locus)
    try:
        report.decomposition = decomp_mod.classify_blocks(decomp_mod.block_triangularize(G))
    except decomp_mod.InconclusiveError as exc:
        notes.append(f"decomposition inconclusive: {exc}")

    if len(sys.axes) == 2 and not sys.extra_controls:
        eps = Fraction(1, 100) if C.exact else 0.01
        report.perturbation = perturbed_operator(C, eps, axes=sys.axes)

    given = is_cyclic_subspace(G, B)
    if given.is_cyclic:
        report.verdict = "reachable_with_given_controls"
        report.witness = B
        return report

    cert = find_cyclic_vector(G, trials=trials, seed=seed, locus=locus)
    if cert.is_cyclic:
        report.verdict = "reachable_with_additional_control"
        report.witness = cert.witness
        return report
    if cert.verdict == "not_cyclic":  # otherwise the verdict stays inconclusive
        report.verdict = "no_single_direction"
        report.obstruction = cert.obstruction_locus
    report.design = minimal_cyclic_dimension(G, trials=trials, seed=seed, locus=locus)
    return report
