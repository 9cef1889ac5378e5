"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (visible with -v / -s); a failed
assertion is the FAIL line.  All randomized pieces run on fixed seeds.
"""

import itertools
from fractions import Fraction as F

import numpy as np

from conftest import (
    random_exact_matrix,
    random_exact_vector,
    random_jordan_matrix,
    random_unimodular,
    rng,
)
from cyclica.algebra import (
    GeneratorSet,
    closure,
    find_cyclic_vector,
    is_cyclic_vector,
    is_transitive,
    minimal_cyclic_dimension,
    single_generator_cyclic,
    vector_orbit,
)
from cyclica.decomp import (
    block_diagonal_orbit_bound,
    block_triangularize,
    classify_blocks,
    find_invariant_subspace,
    is_block_diagonal,
    multiplicity_condition,
)
from cyclica.hautus import hautus_necessary, is_solvable, rank_drop_locus
from cyclica.linalg import Matrix, SpanBuilder, Subspace, char_poly, eigenvalues, min_poly, rank
from cyclica.mrb import InertiaSpec, axis_operator, perturbed_operator
from cyclica.scalars import QQi
from cyclica.switched import Mode, SwitchedSystem, design_inputs, reachable_subspace

from test_algebra import word_span_oracle
from test_hautus import stacked_block

C4 = InertiaSpec(4, [1, 2, 3, 4])
J3 = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
E12 = Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
E13 = Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def _passed(k, label):
    print(f"ACCEPTANCE {k:02d} PASS - {label}")


def test_criterion_01_triangular_example_reproduction():
    G = GeneratorSet(3, [J3])
    cert = is_cyclic_vector(G, (0, 0, 1))
    assert cert.verdict == "cyclic" and cert.recheck(G)

    G_var = GeneratorSet(3, [E12, E13])
    found = find_cyclic_vector(G_var, trials=32, seed=0)
    assert found.verdict == "not_cyclic"
    mu, P = found.obstruction_locus
    assert P.dim >= 2 and found.recheck(G_var)

    for gens in ([J3], [E12, E13]):
        Gd = GeneratorSet(3, gens)
        summary = classify_blocks(block_triangularize(Gd))
        assert len(summary.classes) == 1
        assert summary.classes[0].multiplicity == 3
        assert summary.classes[0].block_dim == 1
        assert multiplicity_condition(summary) is False
    _passed(1, "triangular example: cyclicity verdicts and decomposition")


def test_criterion_02_axis_operator_tables():
    c12, c13, c14 = F(1, 3), F(1, 2), F(3, 5)
    c23, c24, c34 = F(1, 5), F(1, 3), F(1, 7)
    assert [c12, c13, c14, c23, c24, c34] == [
        F(1, 3), F(1, 2), F(3, 5), F(1, 5), F(1, 3), F(1, 7)
    ]
    Z = F(0)
    expected = {
        (1, 2): Matrix.exact([
            [Z, Z, Z, Z, Z, Z],
            [Z, Z, Z, -c13, Z, Z],
            [Z, Z, Z, Z, -c14, Z],
            [Z, c23, Z, Z, Z, Z],
            [Z, Z, c24, Z, Z, Z],
            [Z, Z, Z, Z, Z, Z],
        ]),
        (2, 3): Matrix.exact([
            [Z, -c12, Z, Z, Z, Z],
            [c13, Z, Z, Z, Z, Z],
            [Z, Z, Z, Z, Z, Z],
            [Z, Z, Z, Z, Z, Z],
            [Z, Z, Z, Z, Z, -c24],
            [Z, Z, Z, Z, c34, Z],
        ]),
        (3, 4): Matrix.exact([
            [Z, Z, Z, Z, Z, Z],
            [Z, Z, -c13, Z, Z, Z],
            [Z, c14, Z, Z, Z, Z],
            [Z, Z, Z, Z, -c23, Z],
            [Z, Z, Z, c24, Z, Z],
            [Z, Z, Z, Z, Z, Z],
        ]),
    }
    for axis, ref in expected.items():
        assert axis_operator(C4, axis) == ref, f"axis {axis} mismatch"
    _passed(2, "so(4) axis operators reproduced entrywise as exact rationals")


def test_criterion_03_axis_operator_spectral_facts():
    for axis in [(1, 2), (2, 3)]:
        L = axis_operator(C4, axis)
        assert min_poly(L).degree == 5
        zero_mults = [m for v, m in eigenvalues(L) if abs(v) < 1e-9]
        assert zero_mults == [2]
        assert single_generator_cyclic(L) is False
    _passed(3, "double zero eigenvalue, degree-5 minimal polynomial, no "
               "single-generator cyclic vector")


def test_criterion_04_adjacent_axes_perturbation_and_cyclicity():
    Cf = InertiaSpec(4, [1.0, 2.0, 3.0, 4.0])
    res1 = perturbed_operator(Cf, 0.01)
    ev = np.linalg.eigvals(res1.operator.data)
    assert len(ev) == 6
    assert min(abs(a - b) for a, b in itertools.combinations(ev, 2)) > 1e-6
    assert abs(res1.char.coeff(5)) <= 1e-10
    res2 = perturbed_operator(Cf, 0.02)
    for a, b in zip(res1.p, res2.p):
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
    assert abs(res1.discriminant) > 1e-12

    G = GeneratorSet(6, [axis_operator(C4, (1, 2)), axis_operator(C4, (2, 3))])
    cert = find_cyclic_vector(G, trials=16, seed=0)
    assert cert.verdict == "cyclic" and cert.orbit_dim == 6
    assert cert.trials_used <= 16
    _passed(4, "adjacent axes: simple perturbed spectrum, stable "
               "coefficients, nonzero discriminant, cyclic direction found")


def test_criterion_05_disjoint_axes_obstruction_and_design():
    L12, L34 = axis_operator(C4, (1, 2)), axis_operator(C4, (3, 4))
    G = GeneratorSet(6, [L12, L34])
    locus = rank_drop_locus(G)
    entry = next(
        e for e in locus.entries
        if all(complex(v) == 0 for v in e.mu)
    )
    assert entry.dim_p == 2
    for p in entry.covectors.basis:
        assert all(p[i].is_zero() for i in range(1, 5))
    assert hautus_necessary(G, 1) is False

    r = rng(405)
    for _ in range(32):
        b = random_exact_vector(r, 6)
        assert vector_orbit(G, b).dim <= 5

    rep = design_inputs([L12, L34], trials=32, seed=0)
    assert rep.r == 2 and rep.certified
    sys = SwitchedSystem(6, [Mode(L12), Mode(L34)], shared_B=rep.witness_B)
    assert reachable_subspace(sys).is_full()
    _passed(5, "disjoint axes: rank-drop tuple (0,0) with 2-dim covectors, "
               "orbit cap 5, certified two-input design")


def test_criterion_06_orbit_equals_word_enumeration():
    r = rng(600)
    for _ in range(100):
        n = int(r.integers(2, 6))
        m = int(r.integers(1, 4))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(m)])
        b = random_exact_vector(r, n)
        assert vector_orbit(G, b) == word_span_oracle(G, [b])
    _passed(6, "orbit matches explicit word-span enumeration on 100 instances")


def test_criterion_07_burnside_random_pairs():
    r = rng(700)
    full = 0
    for _ in range(50):
        G = GeneratorSet(4, [random_exact_matrix(r, 4, 4) for _ in range(2)])
        transitive = is_transitive(G)
        if transitive:
            full += 1
            assert find_invariant_subspace(G) is None
    assert full >= 49
    _passed(7, f"closure reached full dimension in {full}/50 pairs; "
               "irreducibility certificates agree")


def test_criterion_08_single_generator_equivalence():
    r = rng(800)
    for _ in range(100):
        n = int(r.integers(2, 7))
        A, nonderogatory = random_jordan_matrix(r, n)
        test = single_generator_cyclic(A)
        assert test == nonderogatory
        sampled = find_cyclic_vector(GeneratorSet(n, [A]), trials=50, seed=8)
        assert sampled.is_cyclic == test
    _passed(8, "minimal-polynomial test matches sampled search on 100 "
               "prescribed Jordan structures")


def _build_block_diagonal(r, class_specs):
    """Block-diagonal generators with prescribed (dim, multiplicity) classes.

    Each class uses one matrix pair repeated across its copies; classes of
    dimension >= 2 are drawn until their pair acts irreducibly, and scalar
    classes are forced pairwise distinct.
    """
    pairs = []
    used_scalars = set()
    for d, k in class_specs:
        while True:
            if d == 1:
                a, b = int(r.integers(-4, 5)), int(r.integers(-4, 5))
                if (a, b) in used_scalars:
                    continue
                used_scalars.add((a, b))
                block_pair = (Matrix.exact([[a]]), Matrix.exact([[b]]))
                break
            block_pair = (
                random_exact_matrix(r, d, d, -3, 3),
                random_exact_matrix(r, d, d, -3, 3),
            )
            if closure(GeneratorSet(d, list(block_pair))).dim == d * d:
                break
        pairs.append((block_pair, k))
    A = Matrix.block_diag([p[0] for p, k in pairs for _ in range(k)])
    B = Matrix.block_diag([p[1] for p, k in pairs for _ in range(k)])
    n = A.rows
    return GeneratorSet(n, [A, B])


def test_criterion_09_multiplicity_condition_at_block_diagonal():
    r = rng(900)
    spec_pool = [
        [(1, 1), (2, 1)],        # condition true
        [(2, 2)],                # boundary true
        [(1, 1), (1, 1)],        # true, distinct scalars
        [(3, 2)],                # true
        [(2, 2), (1, 1)],        # true
        [(1, 2)],                # false: scalar class repeated
        [(1, 3)],                # false
        [(2, 3)],                # false: k = 3 > d = 2
        [(1, 2), (2, 1)],        # false via the scalar class
        [(2, 3), (1, 1)],        # false
    ]
    violating_seen = 0
    checked = 0
    for i in range(50):
        spec = spec_pool[i % len(spec_pool)]
        G = _build_block_diagonal(r, spec)
        btf = block_triangularize(G)
        summary = classify_blocks(btf)
        assert is_block_diagonal(btf)
        computed = sorted(
            (cls.block_dim, cls.multiplicity) for cls in summary.classes
        )
        if computed != sorted(spec):
            # random classes collided up to isomorphism; rare, skip
            continue
        checked += 1
        cond = multiplicity_condition(summary)
        assert cond == all(d >= k for d, k in spec)
        if cond:
            cert = find_cyclic_vector(G, trials=32, seed=90 + i)
            assert cert.is_cyclic, f"dense cyclic set missed for {spec}"
        else:
            bound = block_diagonal_orbit_bound(btf, summary)
            assert bound is not None and bound < G.n
            rr = rng(9000 + i)
            for _ in range(16):
                v = random_exact_vector(rr, G.n)
                assert vector_orbit(G, v).dim <= bound
            violating_seen += 1
    assert checked >= 45
    assert violating_seen >= 5

    # non-necessity in the coupled triangular case: condition fails yet a
    # cyclic vector exists
    G_tri = GeneratorSet(3, [J3])
    summary = classify_blocks(block_triangularize(G_tri))
    assert not multiplicity_condition(summary)
    assert is_cyclic_vector(G_tri, (0, 0, 1)).is_cyclic
    _passed(9, f"block-diagonal equivalence on {checked} instances "
               f"({violating_seen} with violated multiplicities); "
               "triangular counterexample confirms non-necessity")


def test_criterion_10_locus_soundness_and_completeness():
    r = rng(1000)
    for _ in range(100):
        n = int(r.integers(2, 5))
        m = int(r.integers(1, 4))
        G = GeneratorSet(n, [random_exact_matrix(r, n, n) for _ in range(m)])
        locus = rank_drop_locus(G)
        for e in locus.entries:
            if e.exact:
                assert rank(stacked_block(G, e.mu)) == e.rank_value == n - e.dim_p
            else:
                Gf = G.to_float()
                assert rank(stacked_block(Gf, [complex(v) for v in e.mu])) \
                    == e.rank_value
        cps = [char_poly(A) for A in G.gens]
        for _ in range(50):
            mu = []
            for cp in cps:
                while True:
                    cand = QQi(int(r.integers(-40, 41)), int(r.integers(1, 9)))
                    if not cp(cand).is_zero():
                        break
                mu.append(cand)
            assert rank(stacked_block(G, tuple(mu))) == n
    _passed(10, "locus entries verified by direct rank; no drops at 50 "
                "off-spectrum tuples per instance")


def _random_triangularizable_pair(r, n):
    """Simultaneously triangularized pair with generic distinct diagonals."""
    def upper(diag_pool):
        M = [[0] * n for _ in range(n)]
        diag = list(r.choice(diag_pool, size=n, replace=False))
        for i in range(n):
            M[i][i] = int(diag[i])
            for j in range(i + 1, n):
                M[i][j] = int(r.integers(-3, 4))
        return Matrix.exact(M)

    U = random_unimodular(r, n)
    Ui = U.inverse()
    A = U @ upper(np.arange(-6, 7)) @ Ui
    B = U @ upper(np.arange(-6, 7)) @ Ui
    return GeneratorSet(n, [A, B])


def test_criterion_11_solvable_sufficiency():
    r = rng(1100)
    done = 0
    while done < 50:
        n = int(r.integers(2, 5))
        G = _random_triangularizable_pair(r, n)
        assert is_solvable(G)
        if rank_drop_locus(G).max_drop > 1:
            continue  # construction must satisfy the rank condition for r=1
        done += 1
        cert = find_cyclic_vector(G, trials=10, seed=1100 + done)
        assert cert.is_cyclic, "solvable + rank condition must yield a witness"

    # commuting diagonal families: the bound is attained exactly; the drop
    # at a tuple is the number of coordinates where BOTH diagonals repeat
    diag_specs = [
        ([1, 1, 2], [3, 3, 5], 2),
        ([1, 2, 3], [4, 4, 5], 1),
        ([1, 1, 1], [2, 3, 4], 1),
        ([1, 2, 2, 3], [5, 6, 6, 8], 2),
        ([1, 1, 2, 2], [3, 3, 4, 5], 2),
    ]
    for d1, d2, expected_r in diag_specs:
        n = len(d1)
        G = GeneratorSet(n, [
            Matrix.exact([[d1[i] if i == j else 0 for j in range(n)] for i in range(n)]),
            Matrix.exact([[d2[i] if i == j else 0 for j in range(n)] for i in range(n)]),
        ])
        locus = rank_drop_locus(G)
        res = minimal_cyclic_dimension(G, trials=32, seed=11)
        assert res.certified and res.solvable
        assert res.r == locus.max_drop == expected_r
    _passed(11, "50 solvable instances certified within 10 trials; "
                "commuting families attain the rank bound exactly")


def test_criterion_12_kalman_specialization():
    r = rng(1200)
    for _ in range(100):
        n = int(r.integers(2, 7))
        A = random_exact_matrix(r, n, n)
        B = random_exact_matrix(r, n, int(r.integers(1, 3)))
        sys = SwitchedSystem(n, [Mode(A)], shared_B=B)
        R = reachable_subspace(sys)
        sb = SpanBuilder(n, A.backend, None)
        P = Matrix.identity(n)
        for _ in range(n):
            M = P @ B
            for j in range(M.cols):
                sb.add(M.col(j))
            P = A @ P
        assert R == sb.subspace()
    _passed(12, "single-mode reachable subspace equals the power-stack span "
                "on 100 random pairs")
