import itertools

import numpy as np
import pytest

from conftest import (
    count_calls,
    doubled_triangular_family,
    random_exact_matrix,
    random_exact_vector,
    random_jordan_matrix,
    random_unimodular,
    rng,
)
from cyclica import algebra
from cyclica.algebra import (
    CYCLIC,
    NOT_CYCLIC,
    UNDETERMINED,
    CyclicityCertificate,
    GeneratorSet,
    closure,
    find_cyclic_vector,
    is_cyclic_subspace,
    is_cyclic_vector,
    is_transitive,
    minimal_cyclic_dimension,
    orbit,
    single_generator_cyclic,
    vector_orbit,
)
from cyclica.hautus import is_solvable, rank_drop_locus
from cyclica.linalg import MOD_P, Matrix, SpanBuilder, Subspace, kernel, rank
from cyclica.mrb import InertiaSpec, axis_operator
from cyclica.scalars import QQi

J3 = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
E12 = Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
E13 = Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def word_span_oracle(G, seed_vectors, max_len=None):
    """Independent check: span of w(b) over all explicit words w.

    Words are enumerated breadth-first to length n (the span filtration
    grows strictly until it stabilizes, so length n suffices for any word
    length bound); the last level is verified to add nothing, which proves
    stabilization.
    """
    n = G.n
    max_len = n if max_len is None else max_len
    sb = SpanBuilder(n, G.backend, G.tol)
    level = [tuple(v) for v in seed_vectors]
    for v in level:
        sb.add(v)
    for step in range(max_len):
        level = [A.apply(v) for A in G.gens for v in level]
        grew = False
        for v in level:
            grew |= sb.add(v)
        if step == max_len - 1:
            assert not grew, "word span not stabilized at the length bound"
    return sb.subspace()


def test_closure_no_generators():
    assert closure(GeneratorSet(3, [])).dim == 1


def test_closure_single_diagonal():
    G = GeneratorSet(2, [Matrix.exact([[1, 0], [0, 2]])])
    cl = closure(G)
    assert cl.dim == 2
    # independent word check: I, A, A^2, ... span the same thing
    sb = SpanBuilder(4, G.backend, None)
    P = Matrix.identity(2)
    for _ in range(5):
        sb.add(P.flatten())
        P = P @ G.gens[0]
    assert sb.dim == 2


def test_closure_random_pairs_full():
    r = rng(2)
    full = 0
    for _ in range(10):
        G = GeneratorSet(4, [random_exact_matrix(r, 4, 4) for _ in range(2)])
        if closure(G).dim == 16:
            full += 1
    assert full >= 9


def test_closure_unital_and_multiplicatively_closed():
    r = rng(4)
    G = GeneratorSet(3, [random_exact_matrix(r, 3, 3) for _ in range(2)])
    cl = closure(G)
    assert cl.contains(Matrix.identity(3))
    for A in G.gens:
        for M in cl.matrices:
            assert cl.contains(A @ M)


def test_closure_invariance_similarity_and_scaling():
    r = rng(6)
    for _ in range(5):
        gens = [random_exact_matrix(r, 3, 3) for _ in range(2)]
        G = GeneratorSet(3, gens)
        d = closure(G).dim
        U = random_unimodular(r, 3)
        Ui = U.inverse()
        G_sim = GeneratorSet(3, [U @ A @ Ui for A in gens])
        assert closure(G_sim).dim == d
        G_scaled = GeneratorSet(3, [gens[0].scale(QQi(7)), gens[1]])
        assert closure(G_scaled).dim == d


@pytest.mark.parametrize("c", [1.0, 1e-4, 1e-5])
def test_float_sl2_pair_is_scale_invariant(c):
    # E12 E21 = c^2 E11 lies below tau_rank in absolute terms at c = 1e-5,
    # yet it is as large as the product of its factors
    E12_c = Matrix.from_float([[0, c], [0, 0]])
    E21_c = Matrix.from_float([[0, 0], [c, 0]])
    G = GeneratorSet(2, [E12_c, E21_c])
    assert closure(G).dim == 4
    assert is_transitive(G)
    assert not is_solvable(G)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_float_closure_drops_products_that_vanish_up_to_round_off(n):
    # N^n = 0 and N U e1 = 0 for N = U J U^-1, but their computed values
    # are round-off, nonzero and tiny; taken for new directions, they would
    # grow the closure of N past the n powers of N, and the orbit of the
    # eigenvector U e1 past its line
    r = rng(50 + n)
    U = r.standard_normal((n, n))
    N = U @ np.diag(np.ones(n - 1), 1) @ np.linalg.inv(U)
    for s in (1.0, 1e-6):
        G = GeneratorSet(n, [Matrix.from_float(s * N)])
        assert closure(G).dim == n
        assert vector_orbit(G, U[:, 0]).dim == 1
        assert vector_orbit(G, U[:, -1]).dim == n


def test_orbit_jordan_chain():
    G = GeneratorSet(3, [J3])
    assert vector_orbit(G, (0, 0, 1)).is_full()


def test_orbit_first_row_generators_bounded():
    G = GeneratorSet(3, [E12, E13])
    r = rng(8)
    for _ in range(10):
        v = random_exact_vector(r, 3)
        assert vector_orbit(G, v).dim <= 2


def test_orbit_empty_generators_identity_action():
    B = Subspace.from_vectors(3, [[1, 2, 0]])
    assert orbit(GeneratorSet(3, []), B) == B


def test_orbit_is_invariant_fixed_point_and_contains_seed():
    r = rng(10)
    for _ in range(10):
        n = int(r.integers(2, 5))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(2)])
        B = Subspace.from_vectors(n, [random_exact_vector(r, n)])
        O = orbit(G, B)
        assert O.contains_subspace(B)
        for A in G.gens:
            for v in O.basis:
                assert O.contains(A.apply(v))


def test_orbit_monotone_in_seed():
    r = rng(12)
    for _ in range(10):
        G = GeneratorSet(4, [random_exact_matrix(r, 4, 4)])
        v1, v2 = random_exact_vector(r, 4), random_exact_vector(r, 4)
        B_small = Subspace.from_vectors(4, [v1])
        B_big = Subspace.from_vectors(4, [v1, v2])
        assert orbit(G, B_big).contains_subspace(orbit(G, B_small))


def test_orbit_matches_word_enumeration():
    r = rng(14)
    for _ in range(20):
        n = int(r.integers(2, 6))
        m = int(r.integers(1, 4))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(m)])
        b = random_exact_vector(r, n)
        assert vector_orbit(G, b) == word_span_oracle(G, [b])


def test_cyclic_vector_jordan_cases():
    G = GeneratorSet(3, [J3])
    cert = is_cyclic_vector(G, (0, 0, 1))
    assert cert.verdict == CYCLIC and cert.recheck(G)
    cert2 = is_cyclic_vector(G, (1, 0, 0))
    assert cert2.verdict == NOT_CYCLIC and cert2.orbit_dim == 1
    assert cert2.recheck(G)


def test_cyclic_subspace_obstruction_covector():
    G = GeneratorSet(3, [E12, E13])
    B = Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])
    cert = is_cyclic_subspace(G, B)
    assert cert.verdict == NOT_CYCLIC
    assert cert.orbit_dim == 2
    assert cert.obstruction_covector == (QQi(0), QQi(1), QQi(0))
    assert cert.recheck(G)


def test_zero_vector_not_cyclic():
    G = GeneratorSet(3, [J3])
    cert = is_cyclic_vector(G, (0, 0, 0))
    assert cert.verdict == NOT_CYCLIC and cert.orbit_dim == 0


def test_dimension_one_every_nonzero_vector_cyclic():
    G = GeneratorSet(1, [])
    assert is_cyclic_vector(G, (QQi(5),)).verdict == CYCLIC
    assert find_cyclic_vector(G, trials=1, seed=0).verdict == CYCLIC


def test_transitivity():
    assert is_transitive(
        GeneratorSet(2, [Matrix.exact([[0, 1], [0, 0]]), Matrix.exact([[0, 0], [1, 0]])])
    )
    assert not is_transitive(GeneratorSet(3, [J3]))
    assert not is_transitive(GeneratorSet(3, []))


def test_single_generator_companion_and_scalar():
    comp = Matrix.exact([[0, 0, -1], [1, 0, 0], [0, 1, 0]])
    assert single_generator_cyclic(comp)
    assert not single_generator_cyclic(Matrix.identity(2))


def test_find_cyclic_vector_dense_case():
    cert = find_cyclic_vector(GeneratorSet(3, [J3]), trials=16, seed=0)
    assert cert.verdict == CYCLIC
    assert cert.recheck(GeneratorSet(3, [J3]))


def test_find_cyclic_vector_obstruction_proof():
    cert = find_cyclic_vector(GeneratorSet(3, [E12, E13]), trials=8, seed=0)
    assert cert.verdict == NOT_CYCLIC
    mu, P = cert.obstruction_locus
    assert P.dim == 2
    assert cert.recheck(GeneratorSet(3, [E12, E13]))


def test_find_cyclic_vector_undetermined_when_no_proof():
    # three copies of an irreducible two-dimensional action: no cyclic
    # vector exists, the rank-drop locus is empty, and the Lie algebra is
    # not solvable, so sampling alone must stay undetermined
    e12 = Matrix.exact([[0, 1], [0, 0]])
    e21 = Matrix.exact([[0, 0], [1, 0]])
    A = Matrix.block_diag([e12] * 3)
    B = Matrix.block_diag([e21] * 3)
    G = GeneratorSet(6, [A, B])
    cert = find_cyclic_vector(G, trials=6, seed=0)
    assert cert.verdict == UNDETERMINED


def test_find_reproducible_across_runs():
    G = GeneratorSet(3, [J3])
    a = find_cyclic_vector(G, trials=16, seed=42)
    b = find_cyclic_vector(G, trials=16, seed=42)
    assert a.witness == b.witness and a.trials_used == b.trials_used


def test_single_generator_agrees_with_sampling():
    r = rng(21)
    for _ in range(25):
        n = int(r.integers(2, 7))
        A, nonderog = random_jordan_matrix(r, n)
        assert single_generator_cyclic(A) == nonderog
        found = find_cyclic_vector(GeneratorSet(n, [A]), trials=50, seed=3)
        assert found.is_cyclic == nonderog


def test_minimal_cyclic_dimension_repeated_eigenvalue():
    G = GeneratorSet(3, [Matrix.exact([[1, 0, 0], [0, 1, 0], [0, 0, 2]])])
    res = minimal_cyclic_dimension(G, trials=32, seed=1)
    assert res.r == 2 and res.lower_bound == 2 and res.certified and res.solvable


def test_minimal_cyclic_dimension_companion():
    # distinct roots: x^4 - 10x^2 + 1 has four distinct real roots
    comp = Matrix.exact(
        [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 10], [0, 0, 1, 0]]
    )
    res = minimal_cyclic_dimension(GeneratorSet(4, [comp]), trials=16, seed=0)
    assert res.r == 1 and res.certified


def test_minimal_cyclic_dimension_no_generators():
    res = minimal_cyclic_dimension(GeneratorSet(3, []), trials=4, seed=0)
    assert res.r == 3 and res.certified


def test_find_cyclic_vector_no_generators_is_obstructed_by_the_empty_tuple():
    G = GeneratorSet(3, [])
    cert = find_cyclic_vector(G, trials=4, seed=0)
    assert cert.verdict == NOT_CYCLIC and cert.trials_used == 4
    assert cert.obstruction_locus == ((), Subspace.full(3))
    assert cert.recheck(G)


def test_certificate_soundness_random_instances():
    r = rng(30)
    for _ in range(20):
        n = int(r.integers(2, 5))
        m = int(r.integers(0, 3))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(m)])
        b = random_exact_vector(r, n)
        cert = is_cyclic_vector(G, b)
        assert cert.recheck(G)


def test_not_cyclic_certificate_with_irrational_mu_rechecks_false():
    # blockdiag(R, R), R = [[0, 2], [1, 0]]: the worst locus tuple is
    # mu = -sqrt(2), whose covectors are float while the generator is exact
    R = [[0, 2], [1, 0]]
    B = Matrix.exact([R[0] + [0, 0], R[1] + [0, 0], [0, 0] + R[0], [0, 0] + R[1]])
    G = GeneratorSet(4, [B])
    cert = find_cyclic_vector(G, trials=8, seed=0)
    assert cert.verdict == NOT_CYCLIC
    assert cert.obstruction_locus[1].backend != G.backend
    assert cert.recheck(G) is False


def test_minimal_cyclic_dimension_needs_a_trial():
    with pytest.raises(ValueError):
        minimal_cyclic_dimension(GeneratorSet(3, [J3]), trials=0)


def test_certified_dimension_carries_a_witness():
    r = rng(71)
    families = []
    for _ in range(6):
        n = int(r.integers(2, 6))
        families.append(GeneratorSet(n, [random_jordan_matrix(r, n)[0]]))
        families.append(GeneratorSet(n, [random_jordan_matrix(r, n)[0] for _ in range(2)]))
        families.append(GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(2)]))
        U = random_unimodular(r, n)
        diag = [Matrix.exact(np.diag(r.integers(-1, 2, size=n)).tolist()) for _ in range(2)]
        families.append(GeneratorSet(n, [U @ D @ U.inverse() for D in diag]))
    certified = 0
    for k, G in enumerate(families):
        res = minimal_cyclic_dimension(G, trials=2, seed=k)
        assert res.lower_bound <= res.r == res.witness.dim
        cert = is_cyclic_subspace(G, res.witness)
        assert cert.is_cyclic and cert.recheck(G)
        if res.certified:
            certified += 1
            assert res.r == res.lower_bound
    assert certified > len(families) // 2


J3_AT_2 = Matrix.exact([[2, 1, 0], [0, 2, 1], [0, 0, 2]])


def test_locus_certificate_needs_two_covectors():
    # J3_AT_2 is cyclic; its one left eigencovector at mu = 2 does not
    # exclude a cyclic vector, and the full dual space proves nothing
    # about a mu of the wrong length
    G = GeneratorSet(3, [J3_AT_2])
    P = kernel((J3_AT_2 - Matrix.identity(3).scale(2)).T)
    assert P.dim == 1
    assert find_cyclic_vector(G, trials=4, seed=0).is_cyclic
    forged = CyclicityCertificate(NOT_CYCLIC, obstruction_locus=((QQi(2),), P))
    assert forged.recheck(G) is False
    everything = CyclicityCertificate(NOT_CYCLIC, obstruction_locus=((), Subspace.full(3)))
    assert everything.recheck(G) is False


def test_zero_obstruction_covector_rechecks_false():
    G = GeneratorSet(3, [J3_AT_2])
    e3 = (QQi(0), QQi(0), QQi(1))
    assert is_cyclic_vector(G, e3).is_cyclic
    forged = CyclicityCertificate(
        NOT_CYCLIC, witness=e3, orbit_dim=3, obstruction_covector=(QQi(0),) * 3
    )
    assert forged.recheck(G) is False


def test_certificate_outside_the_space_rechecks_false():
    # vectors and subspaces of the wrong dimension fail the check, never raise
    G = GeneratorSet(3, [J3_AT_2])
    e1 = (QQi(1), QQi(0), QQi(0))
    short = (QQi(1), QQi(2))
    forged = [
        CyclicityCertificate(NOT_CYCLIC, witness=e1, orbit_dim=1, obstruction_covector=short),
        CyclicityCertificate(NOT_CYCLIC, obstruction_locus=((QQi(2),), Subspace.full(4))),
        CyclicityCertificate(CYCLIC, witness=short, orbit_dim=3),
        CyclicityCertificate(CYCLIC, witness=Subspace.full(4), orbit_dim=3),
        # an orbit dimension with no covector proves nothing: (0, 0, 1) is
        # cyclic for the Jordan block
        CyclicityCertificate(NOT_CYCLIC, witness=(QQi(0), QQi(0), QQi(1)), orbit_dim=1),
        CyclicityCertificate(NOT_CYCLIC, orbit_dim=1),
    ]
    for cert in forged:
        assert cert.recheck(G) is False
    # plain integer entries are read as field elements
    honest = CyclicityCertificate(NOT_CYCLIC, witness=(1, 0, 0), orbit_dim=1,
                                  obstruction_covector=(0, 0, 1))
    assert honest.recheck(G) is True


# blockdiag(R, R), R = [[0, 2], [1, 0]]: exact, with the locus at mu = +-sqrt(2)
F2 = Matrix.exact([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]])


def _locus_keyword_families():
    r = rng(43)
    for k, m in itertools.product((2, 3), (1, 2)):
        gens, _ = doubled_triangular_family(r, k, m)
        yield GeneratorSet(2 * k, gens)
    C = InertiaSpec(4, [1, 2, 3, 4])
    for axes in (((1, 2), (3, 4)), ((1, 2), (2, 3))):
        so4 = GeneratorSet(6, [axis_operator(C, ax) for ax in axes])
        yield so4
        yield so4.to_float()
    yield GeneratorSet(4, [F2])
    yield GeneratorSet(4, [F2]).to_float()


def _same(x, y):
    """Equal without tolerance: subspaces by their bases, vectors by entry."""
    if isinstance(x, Subspace) or isinstance(y, Subspace):
        return (isinstance(x, Subspace) and isinstance(y, Subspace)
                and x.backend == y.backend and _same(x.basis, y.basis))
    if x is None or y is None:
        return x is y
    return np.array_equal(np.asarray(x, dtype=object), np.asarray(y, dtype=object))


def test_locus_keyword_changes_no_result():
    trials = 8
    for G in _locus_keyword_families():
        locus = rank_drop_locus(G)
        proven = any(e.exact and e.dim_p >= 2 for e in locus)
        a = find_cyclic_vector(G, trials=trials, seed=0)
        b = find_cyclic_vector(G, trials=trials, seed=0, locus=locus)
        assert (b.verdict, b.orbit_dim) == (a.verdict, a.orbit_dim), G
        assert _same(b.witness, a.witness) and _same(b.obstruction_covector, a.obstruction_covector)
        if a.obstruction_locus is None:
            assert b.obstruction_locus is None
        else:
            assert _same(b.obstruction_locus[0], a.obstruction_locus[0])
            assert _same(b.obstruction_locus[1], a.obstruction_locus[1])
        assert b.trials_used == (0 if proven else a.trials_used)
        ma = minimal_cyclic_dimension(G, trials=trials, seed=0)
        mb = minimal_cyclic_dimension(G, trials=trials, seed=0, locus=locus)
        assert (mb.r, mb.lower_bound, mb.certified, mb.solvable, mb.trail) == (
            ma.r, ma.lower_bound, ma.certified, ma.solvable, ma.trail)
        assert _same(mb.witness, ma.witness)


def test_exact_obstruction_in_the_locus_skips_the_trials(monkeypatch):
    calls = count_calls(monkeypatch, algebra, "_trial_full_mod_p")
    G = GeneratorSet(3, [E12, E13])
    cert = find_cyclic_vector(G, trials=8, seed=0, locus=rank_drop_locus(G))
    assert cert.verdict == NOT_CYCLIC and cert.trials_used == 0 and cert.recheck(G)
    assert calls == []
    # F2's entries of dimension 2 are float (mu = +-sqrt(2)), which proves
    # nothing before the trials
    G = GeneratorSet(4, [F2])
    locus = rank_drop_locus(G)
    assert locus.max_drop == 2 and not any(e.exact for e in locus if e.dim_p >= 2)
    cert = find_cyclic_vector(G, trials=8, seed=0, locus=locus)
    assert cert.verdict == NOT_CYCLIC and cert.trials_used == 8
    assert len(calls) == 8


# diag(1, 1 + p) has two eigenvalues over Q and one mod p, where no vector is
# cyclic; (a, b) with ab != 0 is cyclic over Q
DIAG_1_1P = Matrix.exact([[1, 0], [0, 1 + MOD_P]])


def test_trials_short_of_full_mod_p_are_rerun_in_the_field():
    G = GeneratorSet(2, [DIAG_1_1P])
    cert = find_cyclic_vector(G, trials=8, seed=0)
    assert cert.verdict == CYCLIC and cert.trials_used == 1 and cert.recheck(G)
    res = minimal_cyclic_dimension(G, trials=8, seed=0)
    assert (res.r, res.lower_bound, res.certified) == (1, 1, True)
    assert is_cyclic_subspace(G, res.witness).is_cyclic


def test_obstructed_trials_take_no_field_orbit(monkeypatch):
    r = rng(7)
    for k, m in ((2, 2), (3, 2), (2, 3)):
        G = GeneratorSet(2 * k, doubled_triangular_family(r, k, m)[0])
        worst = rank_drop_locus(G).worst_entry()
        assert worst.exact and worst.dim_p >= 2
        orbits = count_calls(monkeypatch, algebra, "_field_orbit")
        annihilators = count_calls(monkeypatch, algebra, "annihilator")
        cert = find_cyclic_vector(G, trials=16, seed=0)
        assert orbits == [] and annihilators == []
        assert cert.verdict == NOT_CYCLIC and cert.trials_used == 16
        assert cert.witness is None and cert.obstruction_covector is None
        mu, P = cert.obstruction_locus
        assert _same(mu, worst.mu) and _same(P, worst.covectors)
        monkeypatch.undo()
        assert cert.recheck(G)
