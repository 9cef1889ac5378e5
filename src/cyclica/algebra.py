"""Unital matrix algebras: closure, orbits and cyclicity certificates.

The central objects are the unital associative algebra generated by a finite
list of square matrices, the orbit of a vector or subspace under it, and
machine-checkable verdicts about whether an orbit fills the whole space.

Closures and orbits are computed by span stabilization rather than explicit
word enumeration: adjoin generator images of the current basis until the
dimension stops growing.  The dimension can grow at most n times for orbits
and n^2 times for the algebra itself, so this terminates and is equivalent
to spanning all words.

On exact generators the span is first grown over GF(p).  A span that is
full there is full over Q(i), which decides the most frequent question,
whether the algebra is all of M_n (Burnside) or an orbit is the whole
space, without Gaussian-rational elimination.  Every span short of full
comes from the loop in the generators' own field.  The words grown over
GF(p) are images of words over Q(i), so they can also carry a proof:
hautus.is_solvable finds there a word whose trace against a commutator is
nonzero mod p, which proves the Lie algebra not solvable.  No other
obstruction is read over GF(p).

The trials of find_cyclic_vector and minimal_cyclic_dimension image the
generators once and grow each trial's orbit over GF(p) only: a full one is
the witness.  A batch with no full trial is run again in G's own field
before anything is concluded from it, so only a returned result rests on
elimination over Q(i).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EXACT,
    MOD_P_MAX_AMBIENT,
    Matrix,
    ModPSpan,
    SpanBuilder,
    Subspace,
    annihilator,
    field_tol,
    is_negligible,
    min_poly,
    mod_p,
    mod_p_product,
    vector,
)
from .scalars import QQi


class GeneratorSet:
    """The tuple A_1..A_m of n x n matrices generating a unital algebra.

    Float generators carry the set's tolerance, so every rank decision about
    the set uses one threshold.
    """

    __slots__ = ("n", "gens", "backend", "tol")

    def __init__(self, n, gens, tol=None):
        gens = list(gens)
        backends = {g.backend for g in gens}
        if len(backends) > 1:
            raise TypeError("generators mix scalar backends")
        self.backend = backends.pop() if backends else EXACT
        for g in gens:
            if g.rows != n or g.cols != n:
                raise ValueError(f"generator is {g.rows}x{g.cols}, expected {n}x{n}")
        self.n = n
        self.tol = tol or field_tol(self.backend)
        self.gens = tuple(g.with_tol(self.tol) for g in gens)

    @property
    def m(self):
        return len(self.gens)

    def transposed(self):
        return GeneratorSet(self.n, [g.T for g in self.gens], tol=self.tol)

    def to_float(self, tol=None):
        tol = tol or self.tol
        return GeneratorSet(self.n, [g.to_float(tol) for g in self.gens], tol=tol)

    def __repr__(self):
        return f"GeneratorSet(n={self.n}, m={self.m}, {self.backend})"


@dataclass
class AlgebraBasis:
    """Canonical basis of the unital algebra, as flattened n^2 vectors.

    matrices spans the algebra: the n^2 unit matrices E_ij in row-major
    order when the algebra is all of M_n, otherwise the words that enlarged
    the span, in the order they entered it.
    """

    generators: GeneratorSet
    matrices: tuple  # basis elements as Matrix
    span: Subspace  # their span inside the n^2 coordinate space

    @property
    def dim(self):
        return self.span.dim

    def contains(self, M: Matrix) -> bool:
        return self.span.contains(M.flatten())


def _stabilize(sb, seeds, gens, step, coords, size=lambda x: 1.0):
    """Grow the span sb until it is closed under x -> step(A, x) for every
    generator A; coords(x) is the vector that enters the span for x, and an
    image enters with the scale of its round-off, size(A) * size(x) (see
    SpanBuilder.add).

    Returns the elements that enlarged the span, in insertion order: the
    seeds first, then each round's images generator-major (for A in gens:
    for x in frontier).  That order is part of the output of closure, whose
    basis the randomized probes in decomp are drawn over.  The loop stops
    once the span is full, as nothing after that can enlarge it.
    """
    members = []

    def grow(candidates):
        new = []
        for x, scale in candidates:
            if sb.add(coords(x), scale):
                new.append(x)
                if sb.dim == sb.ambient:
                    break
        members.extend(new)
        return new

    gen_sizes = [size(A) for A in gens]
    frontier = grow((x, None) for x in seeds)
    while frontier and sb.dim < sb.ambient:
        sizes = [size(x) for x in frontier]
        # lazy, so that no image is computed once the span is full
        frontier = grow((step(A, x), a * s) for A, a in zip(gens, gen_sizes)
                        for x, s in zip(frontier, sizes))
    return members


def _gens_mod_p(G):
    """The images of G's generators over GF(p), as a list of residue
    arrays; None when they have none (see linalg.mod_p)."""
    gens = mod_p([A.data for A in G.gens])
    return None if gens is None else list(gens)


def _mod_p_words(gens_p, seeds_p, ambient):
    """The images over GF(p) of the words in the generators applied to the
    seeds that enlarged their span, in the order of _stabilize, so as many
    as the span's dimension; gens_p and seeds_p are the images of the
    generators and seeds.  Each word is the image of an element of the same
    span over Q(i) (see linalg.mod_p).  None when either has no image, or
    the ambient space is too large for int64."""
    if gens_p is None or seeds_p is None or ambient > MOD_P_MAX_AMBIENT:
        return None
    return _stabilize(ModPSpan(ambient), list(seeds_p), gens_p, mod_p_product, np.ravel)


def _full_mod_p(gens_p, seeds_p, ambient):
    """Whether the words in the generators applied to the seeds span the
    whole ambient space over GF(p), given their images gens_p and seeds_p;
    that proves the same over Q(i).  False when the span falls short or
    there are no images."""
    words = _mod_p_words(gens_p, seeds_p, ambient)
    return words is not None and len(words) == ambient


def _closure_seeds_mod_p(G, gens_p):
    """The images of the identity and of G's generators, whose images are
    gens_p: the seeds whose span grown under the generators is the
    closure.  None when the generators have no image."""
    return None if gens_p is None else [np.eye(G.n, dtype=np.int64), *gens_p]


def closure(G: GeneratorSet) -> AlgebraBasis:
    """Span of all words in the generators, including the empty word.

    Exact generators are tried over GF(p) first: when the span fills M_n
    there, the algebra is M_n, returned with the unit matrices as its
    matrices.  Anything short of full is decided in G's own field.
    """
    n2 = G.n * G.n
    gens_p = _gens_mod_p(G)
    if _full_mod_p(gens_p, _closure_seeds_mod_p(G, gens_p), n2):
        span = Subspace.full(n2, G.backend, G.tol)
        units = tuple(Matrix.unflatten(e, G.n, G.n, G.backend, G.tol) for e in span.basis)
        return AlgebraBasis(G, units, span)
    return _field_closure(G)


def _field_closure(G: GeneratorSet) -> AlgebraBasis:
    """closure computed in G's own field, with the words that enlarged the
    span as its matrices."""
    sb = SpanBuilder(G.n * G.n, G.backend, G.tol)
    seeds = [Matrix.identity(G.n, G.backend, G.tol), *G.gens]
    members = _stabilize(sb, seeds, G.gens, lambda A, M: A @ M, Matrix.flatten, sb.magnitude)
    return AlgebraBasis(G, tuple(members), sb.subspace())


def orbit(G: GeneratorSet, B: Subspace) -> Subspace:
    """Smallest generator-invariant subspace containing B.

    As in closure, an orbit that is full over GF(p) is returned as the full
    space without elimination over Q(i).
    """
    if B.ambient_dim != G.n:
        raise ValueError("subspace ambient dimension does not match generators")
    if _full_mod_p(_gens_mod_p(G), mod_p(B.basis), G.n):
        return Subspace.full(G.n, G.backend, G.tol)
    return _field_orbit(G, B)


def _field_orbit(G: GeneratorSet, B: Subspace) -> Subspace:
    """orbit computed in G's own field."""
    sb = SpanBuilder(G.n, G.backend, G.tol)
    _stabilize(sb, B.basis, G.gens, Matrix.apply, lambda v: v, sb.magnitude)
    return sb.subspace()


def vector_orbit(G: GeneratorSet, b) -> Subspace:
    return orbit(G, Subspace.from_vectors(G.n, [b], G.backend, G.tol))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

CYCLIC = "cyclic"
NOT_CYCLIC = "not_cyclic"
UNDETERMINED = "undetermined"


@dataclass
class CyclicityCertificate:
    """Verdict plus a re-checkable witness or obstruction.

    witness: the vector (or Subspace) whose orbit was computed, with
        orbit_dim recorded.
    obstruction: either a covector annihilating the computed orbit, or a
        rank-drop pair (mu tuple, covector Subspace) proving that no cyclic
        object of the tested dimension exists at all.
    """

    verdict: str
    witness: object = None
    orbit_dim: int | None = None
    obstruction_covector: object = None
    obstruction_locus: object = None  # (mu tuple, Subspace of covectors)
    trials_used: int | None = None

    @property
    def is_cyclic(self):
        return self.verdict == CYCLIC

    def recheck(self, G: GeneratorSet) -> bool:
        """Re-validate the certificate against the generators.  Never
        raises: a witness or covector outside G's n-space fails the check."""
        if self.verdict == CYCLIC:
            if not _in_space(self.witness, G):
                return False
            orb = _witness_orbit(G, self.witness)
            return orb.is_full() and orb.dim == self.orbit_dim
        if self.verdict == NOT_CYCLIC:
            if self.obstruction_covector is not None and self.witness is not None:
                if not (_in_space(self.obstruction_covector, G) and _in_space(self.witness, G)):
                    return False
                p = vector(self.obstruction_covector, G.backend)
                return not _vec_is_zero(p, G) and all(
                    _pairing_is_zero(p, v, G) for v in _witness_orbit(G, self.witness).basis
                )
            if self.obstruction_locus is not None:
                mu, P = self.obstruction_locus
                # one covector cannot exclude a cyclic vector, and covectors
                # outside G's field (float ones for exact G) cannot be checked
                if (P.dim < 2 or len(mu) != G.m or P.backend != G.backend
                        or not _in_space(P, G)):
                    return False
                eye = Matrix.identity(G.n, G.backend, G.tol)
                for p in P.basis:
                    for A, mu_j in zip(G.gens, mu):
                        shifted = A - eye.scale(mu_j)
                        img = shifted.T.apply(p)
                        if not _vec_is_zero(img, G):
                            return False
                return True
            # an orbit dimension alone proves nothing
            return False
        return True


def _in_space(x, G):
    """Whether x is a vector of length n or a subspace of the n-space."""
    if isinstance(x, Subspace):
        return x.ambient_dim == G.n
    return len(x) == G.n


def _witness_orbit(G, witness):
    if isinstance(witness, Subspace):
        return orbit(G, witness)
    return vector_orbit(G, witness)


def _vec_is_zero(v, G):
    return is_negligible(v, G.backend, G.tol)


def _pairing_is_zero(p, v, G):
    return is_negligible([np.dot(np.asarray(p), np.asarray(v))], G.backend, G.tol, 100)


def _orbit_certificate(witness, orb) -> CyclicityCertificate:
    """cyclic when the witness's orbit orb is the whole space, otherwise
    not_cyclic with a covector that annihilates orb."""
    if orb.is_full():
        return CyclicityCertificate(CYCLIC, witness=witness, orbit_dim=orb.dim)
    return CyclicityCertificate(NOT_CYCLIC, witness=witness, orbit_dim=orb.dim,
                                obstruction_covector=annihilator(orb).basis[0])


def is_cyclic_vector(G: GeneratorSet, b) -> CyclicityCertificate:
    """Does the orbit of b under the algebra fill the whole space?"""
    return _orbit_certificate(b, vector_orbit(G, b))


def is_cyclic_subspace(G: GeneratorSet, B: Subspace) -> CyclicityCertificate:
    """Does the orbit of B under the algebra fill the whole space?"""
    return _orbit_certificate(B, orbit(G, B))


def is_transitive(G: GeneratorSet) -> bool:
    """Every nonzero vector is cyclic iff the algebra is all of L(V)."""
    return closure(G).dim == G.n * G.n


def single_generator_cyclic(A: Matrix) -> bool:
    """A single-generator algebra has a cyclic vector iff the minimal
    polynomial has full degree.  Exact backend only, as min_poly is."""
    if A.rows != A.cols:
        raise ValueError("generator must be square")
    return min_poly(A).degree == A.rows


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------


def _trial_rng(seed, trial):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def sample_vector(G: GeneratorSet, rng):
    """One random vector: small integers (exact) or standard normals (float)."""
    if G.backend == EXACT:
        ints = rng.integers(-5, 6, size=G.n)
        return tuple(QQi(int(x)) for x in ints)
    return rng.standard_normal(G.n) + 1j * rng.standard_normal(G.n)


def sample_subspace(G: GeneratorSet, r, rng) -> Subspace:
    for _ in range(20):
        vecs = [sample_vector(G, rng) for _ in range(r)]
        S = Subspace.from_vectors(G.n, vecs, G.backend, G.tol)
        if S.dim == r:
            return S
    raise RuntimeError("failed to sample a subspace of the requested dimension")


def find_cyclic_vector(G: GeneratorSet, trials=64, seed=0, *, locus=None) -> CyclicityCertificate:
    """Randomized search for a cyclic vector with sound negative results.

    Sampling failure alone never yields "not cyclic"; that verdict requires
    an actual obstruction (a rank-drop tuple whose covector space has
    dimension at least 2, which kills every single vector).  Trials use
    per-index derived seeds, so the outcome does not depend on evaluation
    order.

    locus is G's rank-drop locus when the caller holds it, and is computed
    only when needed otherwise.  When it has an exact entry of dimension at
    least 2, every trial would fail, so the certificate on its worst entry
    is returned at once with trials_used 0.

    On exact generators each trial is decided over GF(p) (see
    _first_cyclic): the first whose orbit is full there is the witness.
    When none is, the locus is consulted before any elimination over Q(i):
    an exact entry of dimension at least 2 ends the search, with
    trials_used equal to trials.  Otherwise the trials are run again in G's
    own field, as they are from the start on float generators and on exact
    ones with no image over GF(p), and only then does the locus decide
    between not_cyclic and undetermined.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if G.n == 1:
        return is_cyclic_vector(G, Matrix.identity(1, G.backend, G.tol).row(0))
    if locus is not None and _has_exact_obstruction(locus):
        return _locus_certificate(locus, trials_used=0)
    from . import hautus

    @functools.cache
    def draw(t):
        b = sample_vector(G, _trial_rng(seed, t))
        return None if _vec_is_zero(b, G) else b

    gens_p = _gens_mod_p(G)
    hit = None
    if gens_p is not None:
        hit = _first_cyclic(G, draw, trials, gens_p)
        if hit is None:
            if locus is None:
                locus = hautus.rank_drop_locus(G)
            if _has_exact_obstruction(locus):
                return _locus_certificate(locus, trials_used=trials)
    hit = hit or _first_cyclic(G, draw, trials)
    if hit is not None:
        t, b = hit
        return CyclicityCertificate(CYCLIC, witness=b, orbit_dim=G.n, trials_used=t + 1)
    # no witness: look for a proof that none exists (with no generators the
    # empty tuple's full covector space is the obstruction)
    if locus is None:
        locus = hautus.rank_drop_locus(G)
    return _locus_certificate(locus, trials_used=trials)


def _has_exact_obstruction(locus):
    """Whether the locus has an exact entry of dimension at least 2, which
    proves that no single vector is cyclic."""
    return any(e.exact and e.dim_p >= 2 for e in locus)


def _first_cyclic(G, draw, trials, gens_p=None):
    """(t, draw(t)) for the first trial t below trials whose draw, a vector
    or a Subspace, has the whole space as its orbit; None when no trial's
    has.  A draw of None is a skipped trial.

    With gens_p, the images over GF(p) of G's exact generators, each trial
    is decided there (_trial_full_mod_p): full proves full over Q(i), and a
    trial short of full is passed over, not concluded to fail.  So the
    witness is the first trial full over GF(p).  That is the first trial
    full over Q(i) unless reduction mod p lowers the rank of an earlier
    trial's full orbit.  Without gens_p each orbit is computed in G's own
    field."""
    for t in range(trials):
        x = draw(t)
        if x is None:
            continue
        if gens_p is not None:
            full = _trial_full_mod_p(gens_p, x, G.n)
        else:
            B = x if isinstance(x, Subspace) else Subspace.from_vectors(G.n, [x], G.backend, G.tol)
            full = _field_orbit(G, B).is_full()
        if full:
            return t, x
    return None


def _trial_full_mod_p(gens_p, x, n):
    """One trial over GF(p): whether the orbit of x, a vector or a
    Subspace, under the generators whose images are gens_p is the whole
    n-space there."""
    return _full_mod_p(gens_p, mod_p(x.basis if isinstance(x, Subspace) else [x]), n)


def _locus_certificate(locus, trials_used):
    """not_cyclic on the locus's worst entry when its covector space has
    dimension at least 2, undetermined otherwise."""
    worst = locus.worst_entry()
    if worst is not None and worst.dim_p >= 2:
        return CyclicityCertificate(
            NOT_CYCLIC,
            obstruction_locus=(worst.mu, worst.covectors),
            trials_used=trials_used,
        )
    return CyclicityCertificate(UNDETERMINED, trials_used=trials_used)


@dataclass
class MinimalCyclicResult:
    """Outcome of the minimal cyclic-dimension search.

    witness is a cyclic subspace of dimension r, so r is always attained.
    When certified is True, r equals the lower bound and is the minimum;
    otherwise the bracket [lower_bound, r] is the best knowledge.
    """

    r: int
    witness: Subspace
    lower_bound: int
    certified: bool
    solvable: bool
    trail: list = field(default_factory=list)

    @property
    def bracket(self):
        return (self.lower_bound, self.r)


def minimal_cyclic_dimension(G: GeneratorSet, trials=64, seed=0, *,
                             locus=None) -> MinimalCyclicResult:
    """Least r such that some r-dimensional subspace is cyclic.

    The lower bound is the largest rank drop over the Popov-Hautus locus,
    G's rank-drop locus as passed in, or computed when it is not.  Subspaces
    are sampled from the bound up; the first cyclic one is the witness (the
    whole space always is), certified when it attains the bound.

    On exact generators each batch of trials at dimension r is decided over
    GF(p) first (see _first_cyclic), where a full orbit proves the subspace
    cyclic.  A batch with no trial full there is run again in G's own field
    before the search moves on to r + 1.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = G.n
    trail = []
    from . import hautus

    if locus is None:
        locus = hautus.rank_drop_locus(G)
    lower = max(1, locus.max_drop)
    trail.append(f"rank-drop locus: max common covector dimension {locus.max_drop}")
    solvable = hautus.is_solvable(G)
    trail.append(f"generated Lie algebra solvable: {solvable}")
    gens_p = _gens_mod_p(G)
    for r in range(lower, n + 1):

        @functools.cache
        def draw(t):
            if r == n:
                return Subspace.full(n, G.backend, G.tol)
            return sample_subspace(G, r, _trial_rng(seed, r * 100_000 + t))

        # a batch that fails over GF(p) is run again in G's field before r
        # is given up
        hit = None if gens_p is None else _first_cyclic(G, draw, trials, gens_p)
        hit = hit or _first_cyclic(G, draw, trials)
        if hit is not None:
            t, B = hit
            trail.append(f"sampled cyclic subspace of dimension {r} (trial {t})")
            return MinimalCyclicResult(
                r=r, witness=B, lower_bound=lower,
                certified=(r == lower), solvable=solvable, trail=trail,
            )
        trail.append(f"no cyclic subspace sampled at dimension {r} ({trials} trials)")
    raise AssertionError("the whole space failed to be cyclic")
