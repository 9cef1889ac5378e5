from fractions import Fraction

import numpy as np
import pytest

from conftest import random_exact_matrix, random_unimodular, rng
from cyclica.algebra import (
    GeneratorSet,
    closure,
    find_cyclic_vector,
    is_cyclic_vector,
    vector_orbit,
)
from cyclica.decomp import (
    InconclusiveError,
    _factor_exact,
    block_diagonal_orbit_bound,
    block_triangularize,
    classify_blocks,
    construct_cyclic_vector,
    find_invariant_subspace,
    is_block_diagonal,
    multiplicity_condition,
)
from cyclica.linalg import EXACT, FLOAT, Matrix, Polynomial, Subspace, rank
from cyclica.scalars import QQi

J3 = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
E12 = Matrix.exact([[0, 1], [0, 0]])
E21 = Matrix.exact([[0, 0], [1, 0]])


def two_copies(M):
    return Matrix.block_diag([M, M])


def test_invariant_subspace_jordan():
    W = find_invariant_subspace(GeneratorSet(3, [J3]))
    assert W is not None and 0 < W.dim < 3
    for v in W.basis:
        assert W.contains(J3.apply(v))


def test_invariant_subspace_none_iff_irreducible():
    assert find_invariant_subspace(GeneratorSet(2, [E12, E21])) is None


def test_invariant_subspace_skips_closure_when_an_orbit_splits(monkeypatch):
    calls = []

    def counting_closure(G):
        calls.append(G.n)
        return closure(G)

    monkeypatch.setattr("cyclica.decomp.closure", counting_closure)
    W = find_invariant_subspace(GeneratorSet(3, [J3]))
    assert W is not None and 0 < W.dim < 3 and calls == []
    assert find_invariant_subspace(GeneratorSet(2, [E12, E21])) is None
    assert calls == [2]


def test_eigen_probes_split_a_conjugated_diagonal():
    # A = U diag(1, 2, 3) U^-1: no coordinate vector or covector has a proper
    # orbit, so the split comes from the eigenspaces of the generator
    A = Matrix.exact([[0, 1, 0], [0, -1, 2], [3, -9, 7]])
    G = GeneratorSet(3, [A])
    coordinate = Matrix.identity(3).row_vectors()
    for H in (G, G.transposed()):
        assert all(vector_orbit(H, v).is_full() for v in coordinate)
    assert block_triangularize(G).block_dims == [1, 1, 1]
    assert block_triangularize(G.to_float()).block_dims == [1, 1, 1]


def test_invariant_subspace_verified_invariant_random():
    r = rng(41)
    found = 0
    for _ in range(20):
        n = int(r.integers(2, 5))
        # single random generator: reducible over the ground field often
        G = GeneratorSet(n, [random_exact_matrix(r, n, n, -2, 2)])
        try:
            W = find_invariant_subspace(G)
        except InconclusiveError:
            continue
        if W is None:
            assert closure(G).dim == n * n
            continue
        found += 1
        for A in G.gens:
            for v in W.basis:
                assert W.contains(A.apply(v))
    assert found >= 5


def test_block_triangularize_jordan():
    btf = block_triangularize(GeneratorSet(3, [J3]))
    assert btf.block_dims == [1, 1, 1]
    assert btf.lower_blocks_vanish()


def test_block_triangularize_irreducible():
    btf = block_triangularize(GeneratorSet(2, [E12, E21]))
    assert btf.block_dims == [2]


def test_block_triangularize_diagonal():
    btf = block_triangularize(GeneratorSet(2, [Matrix.exact([[1, 0], [0, 2]])]))
    assert sorted(btf.block_dims) == [1, 1]


def test_block_dims_invariant_across_seeds():
    r = rng(43)
    for _ in range(5):
        A = Matrix.block_diag([E12, Matrix.exact([[3]])])
        B = Matrix.block_diag([E21, Matrix.exact([[5]])])
        U = random_unimodular(r, 3)
        Ui = U.inverse()
        G = GeneratorSet(3, [U @ A @ Ui, U @ B @ Ui])
        d1 = block_triangularize(G, seed=0).block_dims
        d2 = block_triangularize(G, seed=99).block_dims
        assert sorted(d1) == sorted(d2) == [1, 2]


def test_conjugation_soundness_exact():
    r = rng(45)
    A = Matrix.block_diag([J3, Matrix.exact([[2]])])
    U = random_unimodular(r, 4)
    G = GeneratorSet(4, [U @ A @ U.inverse()])
    btf = block_triangularize(G)
    assert btf.lower_blocks_vanish()
    P, Pi = btf.change_of_basis, btf.change_of_basis.inverse()
    for A_g, T in zip(G.gens, btf.transformed):
        assert (Pi @ A_g @ P) == T


def test_burnside_per_block():
    r = rng(47)
    A = Matrix.block_diag([E12, E12])
    B = Matrix.block_diag([E21, E21])
    G = GeneratorSet(4, [A, B])
    btf = block_triangularize(G)
    for i in range(btf.k):
        fam = btf.diagonal_block_family(i)
        d = btf.block_dims[i]
        assert closure(GeneratorSet(d, fam)).dim == d * d


def test_classify_two_identical_copies():
    G = GeneratorSet(4, [two_copies(E12), two_copies(E21)])
    summary = classify_blocks(block_triangularize(G))
    assert len(summary.classes) == 1
    cls = summary.classes[0]
    assert cls.multiplicity == 2 and cls.block_dim == 2
    # intertwiner conjugates the member family onto the first member's
    btf = summary.btf
    first = cls.members[0]
    fam_first = btf.diagonal_block_family(first)
    for member in cls.members[1:]:
        T = cls.intertwiners[member]
        assert rank(T) == cls.block_dim
        fam = btf.diagonal_block_family(member)
        for X, Y in zip(fam, fam_first):
            assert (T @ X) == (Y @ T)


def test_classify_triangular_families_single_class():
    for gens in ([J3], [Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                        Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])]):
        G = GeneratorSet(3, gens)
        summary = classify_blocks(block_triangularize(G))
        assert len(summary.classes) == 1
        assert summary.classes[0].multiplicity == 3
        assert summary.classes[0].block_dim == 1
        assert not multiplicity_condition(summary)


def test_classify_distinct_scalar_blocks():
    G = GeneratorSet(2, [Matrix.exact([[1, 0], [0, 2]])])
    summary = classify_blocks(block_triangularize(G))
    assert len(summary.classes) == 2
    assert multiplicity_condition(summary)


def test_classification_independent_of_member_order():
    # same two irreducible representations, interleaved differently
    A1 = Matrix.block_diag([E12, Matrix.exact([[1]]), E12])
    B1 = Matrix.block_diag([E21, Matrix.exact([[1]]), E21])
    G = GeneratorSet(5, [A1, B1])
    summary = classify_blocks(block_triangularize(G))
    sizes = sorted((cls.block_dim, cls.multiplicity) for cls in summary.classes)
    assert sizes == [(1, 1), (2, 2)]


def test_multiplicity_condition_boundaries():
    A = Matrix.block_diag([E12, E12])
    B = Matrix.block_diag([E21, E21])
    summary = classify_blocks(block_triangularize(GeneratorSet(4, [A, B])))
    assert multiplicity_condition(summary)  # d = 2 >= k = 2
    summary3 = classify_blocks(block_triangularize(GeneratorSet(3, [J3])))
    assert not multiplicity_condition(summary3)  # d = 1 < k = 3
    summary1 = classify_blocks(block_triangularize(GeneratorSet(2, [E12, E21])))
    assert multiplicity_condition(summary1)  # single class, k = 1


def test_construct_cyclic_vector_two_copies():
    G = GeneratorSet(4, [two_copies(E12), two_copies(E21)])
    btf = block_triangularize(G)
    summary = classify_blocks(btf)
    x = construct_cyclic_vector(btf, summary)
    assert is_cyclic_vector(G, x).is_cyclic


def test_construct_cyclic_vector_single_class():
    G = GeneratorSet(2, [E12, E21])
    btf = block_triangularize(G)
    x = construct_cyclic_vector(btf, classify_blocks(btf))
    assert is_cyclic_vector(G, x).is_cyclic


def test_construct_precondition_violation():
    btf = block_triangularize(GeneratorSet(3, [J3]))
    summary = classify_blocks(btf)
    with pytest.raises(ValueError):
        construct_cyclic_vector(btf, summary)


def test_construct_certifies_on_non_semisimple_input():
    # triangular with coupled diagonal: condition holds (two distinct
    # 1-dim classes), certification must run on the full algebra
    A = Matrix.exact([[1, 1], [0, 2]])
    G = GeneratorSet(2, [A])
    btf = block_triangularize(G)
    summary = classify_blocks(btf)
    assert multiplicity_condition(summary)
    x = construct_cyclic_vector(btf, summary)
    assert is_cyclic_vector(G, x).is_cyclic


def test_nonnecessity_witness_triangular():
    # condition fails yet a cyclic vector exists for the chained
    # triangular family; for the uncoupled variant nothing is cyclic
    G = GeneratorSet(3, [J3])
    summary = classify_blocks(block_triangularize(G))
    assert not multiplicity_condition(summary)
    assert is_cyclic_vector(G, (0, 0, 1)).is_cyclic
    G2 = GeneratorSet(3, [Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                          Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])])
    cert = find_cyclic_vector(G2, trials=8, seed=0)
    assert cert.verdict == "not_cyclic"


def test_exact_backend_refuses_irrational_split():
    C2 = Matrix.exact([[0, 2], [1, 0]])
    G = GeneratorSet(4, [Matrix.block_diag([C2, C2])])
    with pytest.raises(InconclusiveError):
        block_triangularize(G)


def test_float_backend_splits_irrational_spectrum():
    C2 = Matrix.exact([[0, 2], [1, 0]])
    G = GeneratorSet(4, [Matrix.block_diag([C2, C2])]).to_float()
    btf = block_triangularize(G)
    assert sorted(btf.block_dims) == [1, 1, 1, 1]
    assert btf.lower_blocks_vanish()
    summary = classify_blocks(btf)
    sizes = sorted((cls.block_dim, cls.multiplicity) for cls in summary.classes)
    assert sizes == [(1, 2), (1, 2)]


def test_block_diagonal_orbit_bound():
    A = Matrix.block_diag([E12, E12, E12])
    B = Matrix.block_diag([E21, E21, E21])
    G = GeneratorSet(6, [A, B])
    btf = block_triangularize(G)
    summary = classify_blocks(btf)
    assert is_block_diagonal(btf)
    assert not multiplicity_condition(summary)  # k = 3 > d = 2
    bound = block_diagonal_orbit_bound(btf, summary)
    assert bound == 4
    r = rng(49)
    from cyclica.algebra import vector_orbit

    for _ in range(10):
        v = tuple(QQi(int(x)) for x in r.integers(-5, 6, size=6))
        assert vector_orbit(G, v).dim <= bound


def _sorted_factors(factors):
    return sorted(factors, key=lambda q: (q.degree, str([str(c) for c in q.coeffs])))


def _sympy_factors(p):
    """The factors of p from sympy.factor_list(..., gaussian=True)."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * x**k
               for k, c in enumerate(p.coeffs))
    _, factors = sympy.factor_list(expr, x, gaussian=True)
    out = []
    for f, _mult in factors:
        coeffs = []
        for c in reversed(sympy.Poly(f, x).all_coeffs()):
            re, im = sympy.re(c), sympy.im(c)
            coeffs.append(QQi(Fraction(int(sympy.numer(re)), int(sympy.denom(re))),
                              Fraction(int(sympy.numer(im)), int(sympy.denom(im)))))
        out.append(Polynomial(coeffs))
    return _sorted_factors(out)


def _sympy_field_factors(p):
    """The factors of p from sympy's factoring over QQ<I>, the call that
    factor_list(..., gaussian=True) ends in, with the coefficients carried
    into the field directly: sympy's own conversion of each coefficient
    takes about 7/8 of its time."""
    import sympy
    from sympy.polys.factortools import dup_factor_list

    K = sympy.QQ.algebraic_field(sympy.I)  # elements b*I + a as [b, a]
    f = [K.new([K.dom(c.im.numerator, c.im.denominator),
                K.dom(c.re.numerator, c.re.denominator)]) for c in reversed(p.coeffs)]
    _, factors = dup_factor_list(f, K)
    out = []
    for g, _mult in factors:
        coeffs = []
        for c in reversed(g):
            im, re = ([K.dom.zero, K.dom.zero] + c.to_list())[-2:]
            coeffs.append(QQi(Fraction(int(re.numerator), int(re.denominator)),
                              Fraction(int(im.numerator), int(im.denominator))))
        out.append(Polynomial(coeffs))
    return _sorted_factors(out)


def _random_product(r, gaussian, max_degree=12):
    """A rational constant times one to three random factors, some
    repeated, of degree at most max_degree in all.  The coefficients are
    rationals with small denominators; with gaussian set, each factor has
    non-real coefficients with probability 1/2 (and then degree 1 or 2)."""

    def q(lo, hi, dens):
        return Fraction(int(r.integers(lo, hi + 1)), int(r.choice(dens)))

    p = Polynomial([q(1, 3, [1, 2, 3])])
    for _ in range(int(r.integers(1, 4))):
        real = not gaussian or r.integers(0, 2) == 0
        d = int(r.choice([1, 1, 2, 2, 3] if real else [1, 1, 2]))
        f = Polynomial([QQi(q(-4, 4, [1, 1, 2, 3, 7]), 0 if real else q(-2, 2, [1, 1, 2]))
                        for _ in range(d)] + [int(r.choice([1, 2, -3]))])
        for _ in range(int(r.choice([1, 1, 2, 3]))):
            if p.degree + f.degree <= max_degree:
                p = p * f
    return p


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_factor_exact_matches_sympy_gaussian_factoring(gaussian):
    r = rng(8 if gaussian else 7)
    polys = [_random_product(r, gaussian) for _ in range(100)]
    assert max(p.degree for p in polys) == 12
    assert any(p.gcd(p.derivative()).degree > 0 for p in polys)  # repeated factors
    assert gaussian == any(not c.is_real() for p in polys for c in p.coeffs)
    for k, p in enumerate(polys):
        expected = _sympy_field_factors(p)
        if k % 10 == 0:
            assert _sympy_factors(p) == expected, p
        assert _factor_exact(p) == expected, p
