import itertools

import numpy as np
import pytest

from conftest import doubled_triangular_family, random_exact_matrix, random_unimodular, rng
from cyclica import algebra
from cyclica.algebra import GeneratorSet
from cyclica.hautus import (
    GENERIC_CYCLIC_SUBSPACE,
    NECESSARY_HOLDS_ONLY,
    NO_CYCLIC_SUBSPACE,
    hautus_necessary,
    hautus_verdict,
    is_solvable,
    rank_drop_locus,
)
from cyclica.linalg import EXACT, MOD_P, Matrix, SpanBuilder, Subspace, mod_p, rank
from cyclica.mrb import InertiaSpec, axis_operator, so_pairs
from cyclica.scalars import DEFAULT_TOL, QQi, ToleranceContext


def stacked_block(G, mu):
    """[A_1 - mu_1 I | ... | A_m - mu_m I] for direct rank evaluation."""
    n = G.n
    eye = Matrix.identity(n, G.backend, G.tol)
    cols = []
    for A, m in zip(G.gens, mu):
        S = A - eye.scale(m)
        cols.extend(S.col(j) for j in range(n))
    return Matrix.from_cols(cols, G.backend, tol=G.tol)


def test_locus_commuting_diagonals():
    G = GeneratorSet(2, [Matrix.exact([[1, 0], [0, 2]]), Matrix.exact([[3, 0], [0, 4]])])
    locus = rank_drop_locus(G)
    mus = sorted(
        (tuple(complex(v) for v in e.mu) for e in locus.entries),
        key=lambda t: t[0].real,
    )
    assert mus == [(1 + 0j, 3 + 0j), (2 + 0j, 4 + 0j)]
    assert all(e.dim_p == 1 for e in locus.entries)
    assert all(e.exact for e in locus.entries)


def test_locus_identity_generator():
    G = GeneratorSet(3, [Matrix.identity(3)])
    locus = rank_drop_locus(G)
    assert len(locus.entries) == 1
    e = locus.entries[0]
    assert e.dim_p == 3 and complex(e.mu[0]) == 1 + 0j and e.rank_value == 0


def test_locus_first_row_generators():
    G = GeneratorSet(3, [Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                         Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])])
    locus = rank_drop_locus(G)
    assert locus.max_drop == 2
    assert not hautus_necessary(G, 1)
    assert hautus_necessary(G, 2)


def test_locus_soundness_direct_rank():
    r = rng(31)
    for _ in range(20):
        n = int(r.integers(2, 5))
        m = int(r.integers(1, 4))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(m)])
        locus = rank_drop_locus(G)
        for e in locus.entries:
            if e.exact:
                S = stacked_block(G, e.mu)
                assert rank(S) == e.rank_value == n - e.dim_p
            else:
                Gf = G.to_float()
                S = stacked_block(Gf, [complex(v) for v in e.mu])
                assert rank(S) == e.rank_value


def test_locus_completeness_off_spectrum():
    r = rng(33)
    for _ in range(10):
        n = int(r.integers(2, 5))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(2)])
        for _ in range(20):
            mu = tuple(QQi(int(r.integers(6, 30)), int(r.integers(1, 5))) for _ in range(2))
            assert rank(stacked_block(G, mu)) == n


def test_locus_shift_equivariance():
    r = rng(35)
    G = GeneratorSet(3, [random_exact_matrix(r, 3, 3) for _ in range(2)])
    locus = rank_drop_locus(G)
    c = QQi(7)
    eye = Matrix.identity(3)
    G_shift = GeneratorSet(3, [G.gens[0] + eye.scale(c), G.gens[1]])
    locus_s = rank_drop_locus(G_shift)
    assert len(locus.entries) == len(locus_s.entries)
    assert locus.max_drop == locus_s.max_drop
    keyf = lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag)
    shifted = sorted(
        ((complex(e.mu[0]) + 7, complex(e.mu[1]), e.dim_p) for e in locus.entries),
        key=keyf,
    )
    direct = sorted(
        ((complex(e.mu[0]), complex(e.mu[1]), e.dim_p) for e in locus_s.entries),
        key=keyf,
    )
    for a, b in zip(shifted, direct):
        assert abs(a[0] - b[0]) < 1e-7 and abs(a[1] - b[1]) < 1e-7 and a[2] == b[2]


def _reference_solvable(G):
    """Solvability by definition: the Lie closure by bracket stabilization,
    then the derived series L, [L, L], ... until it reaches 0 (solvable) or
    stops shrinking (not).  Each step brackets the canonical basis of the
    previous span.  Float operands are scaled to largest entry 1 first, so
    SpanBuilder's threshold, relative to the bracket's largest entry, is
    relative to the operands as well."""
    def unit(X):
        return X.scale(1 / (np.abs(X.data).max() or 1)) if G.backend != EXACT else X

    def bracket(X, Y):
        X, Y = unit(X), unit(Y)
        return X @ Y - Y @ X

    def basis(sb):
        return [Matrix.unflatten(v, G.n, G.n, G.backend, G.tol) for v in sb.rows]

    sb = SpanBuilder(G.n * G.n, G.backend, G.tol)
    frontier = [A for A in G.gens if sb.add(A.flatten())]
    while frontier:
        frontier = [C for C in (bracket(A, X) for A in G.gens for X in frontier)
                    if sb.add(C.flatten())]
    L = basis(sb)
    while L:
        sb = SpanBuilder(G.n * G.n, G.backend, G.tol)
        for X, Y in itertools.combinations(L, 2):
            sb.add(bracket(X, Y).flatten())
        if sb.dim == len(L):
            return False
        L = basis(sb)
    return True


def test_is_solvable_triangular():
    u1 = Matrix.exact([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    u2 = Matrix.exact([[4, 0, 1], [0, 5, 1], [0, 0, 6]])
    G = GeneratorSet(3, [u1, u2])
    assert is_solvable(G) and _reference_solvable(G)
    U = random_unimodular(rng(37), 3)
    conj = GeneratorSet(3, [U @ u @ U.inverse() for u in (u1, u2)])
    assert is_solvable(conj) and is_solvable(conj.to_float())
    # float rounding grows with the entries; the threshold grows with them
    big = GeneratorSet(3, [A.to_float().scale(1e6) for A in conj.gens])
    assert is_solvable(big)


def test_is_solvable_sl2():
    G = GeneratorSet(2, [Matrix.exact([[0, 1], [0, 0]]), Matrix.exact([[0, 0], [1, 0]])])
    assert not is_solvable(G) and not is_solvable(G.to_float())
    assert not is_solvable(GeneratorSet(2, [A.to_float().scale(1e6) for A in G.gens]))
    assert not _reference_solvable(G)


def test_is_solvable_single_generator():
    A = random_exact_matrix(rng(37), 4, 4)
    assert is_solvable(GeneratorSet(4, [A])) and _reference_solvable(GeneratorSet(4, [A]))
    assert is_solvable(GeneratorSet(4, []))


def _solvability_families(r):
    """Random exact families: conjugated triangular, conjugated with one
    2x2 block, random, and diagonal; n = 2..5, m = 1..3."""
    for kind in ("triangular", "block", "random", "diagonal"):
        for _ in range(8):
            n = int(r.integers(2, 6))
            m = int(r.integers(1, 4))
            U = random_unimodular(r, n)
            Ui = U.inverse()
            gens = []
            for _ in range(m):
                T = np.triu(r.integers(-3, 4, size=(n, n)))
                if kind == "block":
                    T[1, 0] = r.integers(1, 4)
                if kind == "diagonal":
                    T = np.diag(np.diag(T))
                M = Matrix.exact(T.tolist())
                if kind == "random":
                    M = random_exact_matrix(r, n, n)
                elif kind != "diagonal":
                    M = U @ M @ Ui
                gens.append(M)
            yield kind, GeneratorSet(n, gens)


def test_is_solvable_matches_reference():
    outcomes = set()
    for kind, G in _solvability_families(rng(41)):
        want = _reference_solvable(G)
        if kind in ("triangular", "diagonal"):
            assert want
        assert is_solvable(G) == want, (kind, G.gens)
        Gf = G.to_float()
        assert _reference_solvable(Gf) == want, (kind, G.gens)
        assert is_solvable(Gf) == want, (kind, G.gens)
        outcomes.add((kind, want))
    assert ("block", False) in outcomes and ("random", False) in outcomes


def _trace_form_solvable(G):
    """The criterion of is_solvable read directly over Q(i): every
    commutator has trace 0 against every word spanning the closure."""
    words = algebra._field_closure(G).matrices
    return all(((A @ B - B @ A) @ w).trace().is_zero()
               for A, B in itertools.combinations(G.gens, 2) for w in words)


def _block_triangular_pair(r, d1, d2):
    """U [[X, Y], [0, Z]] U^-1 for random integer X, Y, Z, twice."""
    n = d1 + d2
    U = random_unimodular(r, n)
    U_inv = U.inverse()
    gens = []
    for _ in range(2):
        A = r.integers(-3, 4, size=(n, n))
        A[d1:, :d1] = 0
        gens.append(U @ Matrix.exact(A.tolist()) @ U_inv)
    return GeneratorSet(n, gens)


def _gf_p_certificate_families():
    C = InertiaSpec(4, [1, 2, 3, 4])
    for axes in itertools.combinations(so_pairs(4), 2):
        yield "so4", GeneratorSet(6, [axis_operator(C, ax) for ax in axes])
    r = rng(47)
    for k, m in itertools.product((2, 3), (2, 3)):
        yield "doubled", GeneratorSet(2 * k, doubled_triangular_family(r, k, m)[0])
    for n in (3, 4, 5):
        for _ in range(3):
            yield "random", GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(2)])
    for d1, d2 in ((1, 2), (2, 2), (2, 3), (1, 1)):
        yield "block", _block_triangular_pair(r, d1, d2)


def test_gf_p_certificate_matches_the_trace_form(monkeypatch):
    field_closures = []
    original = algebra._field_closure
    monkeypatch.setattr(algebra, "_field_closure",
                        lambda G: field_closures.append(G) or original(G))
    outcomes = set()
    for kind, G in _gf_p_certificate_families():
        want = _trace_form_solvable(G)
        field_closures.clear()
        assert is_solvable(G) == want, (kind, G.gens)
        # True only from the closure over Q(i); every False here has a word
        # with a nonzero trace residue, so it never needs that closure
        assert len(field_closures) == (1 if want else 0), kind
        outcomes.add((kind, want))
    assert {("so4", False), ("doubled", True), ("random", False), ("block", False),
            ("block", True)} <= outcomes


def test_generators_without_an_image_mod_p_take_the_trace_form():
    tiny = QQi(1) / QQi(MOD_P)
    e12 = Matrix.exact([[0, 1], [0, 0]])
    pairs = {
        False: [e12, Matrix.exact([[0, 0], [tiny, 0]])],  # sl2, scaled
        True: [e12, Matrix.exact([[tiny, 0], [0, 1]])],  # upper triangular
    }
    for want, gens in pairs.items():
        G = GeneratorSet(2, gens)
        assert mod_p(gens[1].data) is None
        assert is_solvable(G) == want == _trace_form_solvable(G)


def test_verdicts():
    d1 = Matrix.exact([[1, 0], [0, 2]])
    d2 = Matrix.exact([[3, 0], [0, 4]])
    assert hautus_verdict(GeneratorSet(2, [d1, d2]), 1) == GENERIC_CYCLIC_SUBSPACE
    e12 = Matrix.exact([[0, 1], [0, 0]])
    e21 = Matrix.exact([[0, 0], [1, 0]])
    # transitive: rank condition holds, not solvable
    assert hautus_verdict(GeneratorSet(2, [e12, e21]), 1) == NECESSARY_HOLDS_ONLY
    E12 = Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    E13 = Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert hautus_verdict(GeneratorSet(3, [E12, E13]), 1) == NO_CYCLIC_SUBSPACE
    assert hautus_verdict(GeneratorSet(3, [E12, E13]), 2) == GENERIC_CYCLIC_SUBSPACE


def test_verdict_r_range_checked():
    G = GeneratorSet(2, [Matrix.identity(2)])
    with pytest.raises(ValueError):
        hautus_verdict(G, 0)
    with pytest.raises(ValueError):
        hautus_necessary(G, 3)


def test_stacked_rank_disjoint_axis_pair():
    from cyclica.mrb import InertiaSpec, axis_operator

    C = InertiaSpec(4, [1, 2, 3, 4])
    G = GeneratorSet(6, [axis_operator(C, (1, 2)), axis_operator(C, (3, 4))])
    S = stacked_block(G, (QQi(0), QQi(0)))
    assert (S.rows, S.cols) == (6, 12)
    from cyclica.linalg import rank as _rank

    assert _rank(S) == 4  # 6 - (2-dim common covector space)


def test_float_backend_locus():
    G = GeneratorSet(
        2,
        [Matrix.from_float([[1.0, 0], [0, 2.0]]), Matrix.from_float([[3.0, 0], [0, 4.0]])],
    )
    locus = rank_drop_locus(G)
    assert locus.max_drop == 1
    assert len(locus.entries) == 2


def test_float_generators_take_the_set_tolerance():
    loose = ToleranceContext(tau_rank=1e-3)
    A = Matrix.from_float([[1.0, 0], [0, 2.0]])
    B = Matrix.from_float([[3.0, 1e-5], [1e-5, 4.0]])
    G = GeneratorSet(2, [A, B], tol=loose)
    assert all(g.tol == G.tol for g in G.gens)
    assert all(g.tol == DEFAULT_TOL for g in GeneratorSet(2, [A, B]).gens)
    assert all(g.tol == loose for g in GeneratorSet(2, [A, B]).to_float(loose).gens)
    # the left eigencovectors of B lean 1e-5 off those of A: one common
    # covector per eigenvalue pair within 1e-3, none within the default
    assert rank_drop_locus(GeneratorSet(2, [A, B])).max_drop == 0
    assert [e.dim_p for e in rank_drop_locus(G)] == [1, 1]


def test_all_exact_locus_builds_no_float_kernels(monkeypatch):
    from cyclica import hautus

    built = []
    original = hautus.kernel

    def recording(M):
        built.append(M.backend)
        return original(M)

    monkeypatch.setattr(hautus, "kernel", recording)
    T1 = Matrix.exact([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    T2 = Matrix.exact([[2, 0, 1], [0, 1, 1], [0, 0, -1]])
    G = GeneratorSet(6, [Matrix.block_diag([T1, T1]), Matrix.block_diag([T2, T2])])
    locus = rank_drop_locus(G)
    assert locus.entries and all(e.exact for e in locus.entries)
    assert built and set(built) == {EXACT}


def rounded(mu):
    return tuple(complex(round(complex(v).real, 6), round(complex(v).imag, 6)) for v in mu)


def test_locus_complete_on_doubled_triangular_families():
    # U (T + T) U^-1 with T upper triangular of distinct integer diagonal:
    # every rank drop sits on the product of the diagonals, so checking each
    # tuple there directly gives the whole locus
    r = rng(41)
    for k, m, _ in itertools.product((2, 3), (1, 2, 3), range(3)):
        n = 2 * k
        gens, diagonals = doubled_triangular_family(r, k, m)
        G = GeneratorSet(n, gens)
        reference = {}
        for mu in itertools.product(*diagonals):
            drop = n - rank(stacked_block(G, [QQi(v) for v in mu]))
            if drop:
                reference[mu] = drop
        locus = rank_drop_locus(G)
        assert all(e.exact for e in locus.entries)
        assert {e.mu: e.dim_p for e in locus.entries} == {
            tuple(QQi(v) for v in mu): drop for mu, drop in reference.items()}
        float_locus = rank_drop_locus(G.to_float())
        assert {rounded(e.mu): e.dim_p for e in float_locus.entries} == {
            rounded(mu): drop for mu, drop in reference.items()}


def test_locus_without_generators_is_the_empty_tuple():
    for n in (1, 3):
        locus = rank_drop_locus(GeneratorSet(n, []))
        assert [e.mu for e in locus.entries] == [()]
        assert locus.entries[0].covectors == Subspace.full(n)
        assert locus.max_drop == n and locus.entries[0].rank_value == 0
        assert locus.entries[0].exact and locus.flags == []
    assert hautus_verdict(GeneratorSet(2, []), 1) == NO_CYCLIC_SUBSPACE
