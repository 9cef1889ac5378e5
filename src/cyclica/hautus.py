"""Popov-Hautus style rank tests for families of operators.

A tuple mu = (mu_1, ..., mu_m) is a rank-drop point when the stacked block
[A_1 - mu_1 I | ... | A_m - mu_m I] has rank below n, equivalently when the
common left-eigencovector space

    P_mu = { p : p (A_j - mu_j I) = 0 for all j }

is nonzero.  Each coordinate of a rank-drop tuple must be an eigenvalue of
its generator, so the locus is found by a depth-first search over the
spectra from the empty tuple, whose space is all covectors: each prefix
takes the kernel of its own stacked block and is extended only while that
kernel is nonzero.  Covectors are reported as row vectors throughout.

hautus_verdict, algebra.find_cyclic_vector and
algebra.minimal_cyclic_dimension take the locus as the keyword ``locus``,
so an analysis that runs all three computes it once.  is_solvable reads the
trace form of the closure, over GF(p) first on exact generators, where a
nonzero trace proves non-solvability without the closure over Q(i).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra
from .linalg import (
    EXACT,
    FLOAT,
    MOD_P,
    Matrix,
    Subspace,
    eigenvalues,
    is_negligible,
    kernel,
    mod_p,
    mod_p_product,
)
from .linalg import _magnitude
from .linalg import char_poly as _char_poly
from .scalars import DEFAULT_TOL, QQi

NO_CYCLIC_SUBSPACE = "no_cyclic_subspace"
GENERIC_CYCLIC_SUBSPACE = "generic_cyclic_subspace"
NECESSARY_HOLDS_ONLY = "necessary_holds_only"


@dataclass
class LocusEntry:
    mu: tuple  # one value per generator (QQi when verified exactly, else complex)
    covectors: Subspace  # P_mu, canonical, as row covectors
    exact: bool  # True when computed over the exact backend

    @property
    def dim_p(self):
        return self.covectors.dim

    @property
    def rank_value(self):
        """Rank of the stacked block, n - dim P_mu."""
        return self.covectors.ambient_dim - self.dim_p


@dataclass
class RankDropLocus:
    n: int
    entries: list
    flags: list = field(default_factory=list)

    @property
    def max_drop(self):
        return max((e.dim_p for e in self.entries), default=0)

    def worst_entry(self):
        """The first entry of largest dim P_mu; None when there is none."""
        return max(self.entries, key=lambda e: e.dim_p, default=None)

    def __iter__(self):
        return iter(self.entries)


# ---------------------------------------------------------------------------
# spectra with exact verification
# ---------------------------------------------------------------------------

_SNAP_DENOM = 10**6


def _snap_candidates(z, gap):
    """Small-denominator Gaussian-rational guesses near the complex z."""
    re = Fraction(z.real).limit_denominator(_SNAP_DENOM)
    im = Fraction(z.imag).limit_denominator(_SNAP_DENOM)
    cands = [QQi(re, im)]
    if abs(z.imag) <= gap:
        cands.append(QQi(re, 0))
    if abs(z.real) <= gap:
        cands.append(QQi(0, im))
    if abs(z) <= gap:
        cands.append(QQi(0, 0))
    return cands


def generator_spectrum(A: Matrix, tol=None):
    """Distinct eigenvalue candidates of one generator.

    Returns a list of (value, multiplicity, exact_flag).  For exact-backend
    inputs each float cluster is snapped to a nearby Gaussian rational and
    kept exact only when the exact characteristic polynomial vanishes on it.
    """
    tol = tol or A.tol or DEFAULT_TOL
    clusters = eigenvalues(A, tol)
    if A.backend != EXACT:
        return [(v, mult, False) for v, mult in clusters], any(m > 1 for _, m in clusters)
    cp = _char_poly(A)
    out = []
    for center, mult in clusters:
        exact_val = None
        for cand in _snap_candidates(center, tol.tau_gap):
            if cp(cand).is_zero():
                exact_val = cand
                break
        if exact_val is not None:
            out.append((exact_val, mult, True))
        else:
            out.append((center, mult, False))
    return out, False


def rank_drop_locus(G) -> RankDropLocus:
    """All tuples mu with nonzero common left-eigencovector space.

    A depth-first search over prefixes (mu_1, ..., mu_j) from the empty
    tuple, the root: the covector space of a prefix is the kernel of the
    stacked block [(A_1 - mu_1 I)^T; ...; (A_j - mu_j I)^T], so the root has
    the full space, and a prefix whose space is zero is not extended.  A
    prefix whose coordinates are all exactly verified eigenvalues of exact
    generators is computed exactly; any other takes all of its blocks from
    the float copies of the generators and marks the locus as partially
    numeric.
    """
    tol = G.tol or DEFAULT_TOL
    spectra = []
    flags = []
    for A in G.gens:
        spec, merged = generator_spectrum(A, tol)
        spectra.append(spec)
        if merged:
            flags.append("degenerate_spectrum")

    floats = [A.to_float(tol) for A in G.gens]

    @functools.cache
    def block_rows(j, idx, exact):
        """Rows of (A_j - mu I)^T for the idx-th candidate mu of A_j."""
        A = G.gens[j] if exact else floats[j]
        shifted = A - Matrix.identity(G.n, A.backend, A.tol).scale(spectra[j][idx][0])
        return shifted.T.row_vectors()

    entries = []

    def search(prefix, exact):
        stacked = [r for j, idx in enumerate(prefix) for r in block_rows(j, idx, exact)]
        P = kernel(Matrix(stacked, EXACT if exact else FLOAT, tol, cols=G.n))
        if P.dim == 0:
            return
        j = len(prefix)
        if j == G.m:
            mu = tuple(spectra[i][idx][0] for i, idx in enumerate(prefix))
            entries.append(LocusEntry(mu, P, exact))
            return
        for idx, (_, _, is_exact) in enumerate(spectra[j]):
            search(prefix + (idx,), exact and is_exact)

    search((), G.backend == EXACT)
    if not all(e.exact for e in entries):
        flags.append("numeric_candidates")
    # deterministic order: by the coordinates' real, then imaginary parts
    def key(e):
        return tuple((complex(v).real, complex(v).imag) for v in e.mu)

    entries.sort(key=key)
    return RankDropLocus(G.n, entries, sorted(set(flags)))


def hautus_necessary(G, r: int) -> bool:
    """Necessary condition for an r-dimensional cyclic subspace: the rank of
    every stacked block stays at or above n - r."""
    if not 1 <= r <= G.n:
        raise ValueError("r out of range")
    return rank_drop_locus(G).max_drop <= r


# ---------------------------------------------------------------------------
# solvability
# ---------------------------------------------------------------------------


def is_solvable(G) -> bool:
    """Whether the Lie algebra generated by the operators is solvable.

    By Lie's theorem it is iff the generators triangularize together, iff
    every [A_i, A_j] lies in the radical of the algebra they generate (McCoy
    1934), which in characteristic 0 is the kernel of the trace form
    (Dickson; Ronyai 1990): tr([A_i, A_j] a) = 0 for every basis element a
    of the closure.

    Exact generators are tried over GF(p) first: the closure's words are
    grown there, and a word w with tr([A_i, A_j] w) nonzero mod p proves
    the same trace nonzero over Q(i), as reduction mod p is a ring
    homomorphism, so the answer is False.  Every other answer, and every
    True, comes from the trace form over the closure in G's own field.  A
    float trace is negligible against the product of the largest entries
    of A_i, A_j and the basis, which sets its rounding error.
    """
    if G.m < 2:
        return True
    if _trace_form_nonzero_mod_p(G):
        return False
    # not closure(G), whose GF(p) pass would repeat the one just run
    S = algebra._field_closure(G).span.basis_matrix()
    s_scale = _magnitude(S)
    for A, B in itertools.combinations(G.gens, 2):
        # tr(C a) is the dot product of C^T and a, both flattened row-major
        traces = S.apply((A @ B - B @ A).T.flatten())
        if not is_negligible(traces, G.backend, G.tol, _magnitude(A) * _magnitude(B) * s_scale):
            return False
    return True


def _trace_form_nonzero_mod_p(G) -> bool:
    """Whether some closure word w has tr([A_i, A_j] w) nonzero mod p;
    False also when G has no image over GF(p)."""
    words = algebra._mod_p_words(G, algebra._closure_seeds(G), G.n * G.n)
    if words is None:
        return False
    gens = mod_p([A.data for A in G.gens])
    comms = [((mod_p_product(a, b) - mod_p_product(b, a)) % MOD_P).T.ravel()
             for a, b in itertools.combinations(gens, 2)]
    # residues below p and n^2 <= MOD_P_MAX_AMBIENT terms per trace: every
    # entry is one int64 dot product within the bound of ModPSpan.add
    traces = np.reshape(words, (len(words), -1)) @ np.transpose(comms) % MOD_P
    return bool(traces.any())


def hautus_verdict(G, r: int, *, locus=None) -> str:
    """Combined verdict for the existence of an r-dimensional cyclic subspace.

    no_cyclic_subspace: the rank condition fails, nothing of dimension r works.
    generic_cyclic_subspace: rank condition holds and the generated Lie
        algebra is solvable, so generic r-dimensional subspaces are cyclic.
    necessary_holds_only: the rank condition holds but sufficiency is not
        established by this criterion alone.

    locus is G's rank-drop locus when the caller holds it; it is computed
    when not passed.
    """
    if not 1 <= r <= G.n:
        raise ValueError("r out of range")
    if locus is None:
        locus = rank_drop_locus(G)
    if locus.max_drop > r:
        return NO_CYCLIC_SUBSPACE
    if is_solvable(G):
        return GENERIC_CYCLIC_SUBSPACE
    return NECESSARY_HOLDS_ONLY
