import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import rng
from cyclica import algebra, hautus
from cyclica.algebra import GeneratorSet, find_cyclic_vector, single_generator_cyclic
from cyclica.decomp import multiplicity_condition
from cyclica.linalg import Matrix, Subspace, annihilator, eigenvalues, min_poly
from cyclica.mrb import (
    InertiaSpec,
    MrbSystem,
    SoBasis,
    analyze,
    axis_operator,
    coupling,
    direction_operator,
    euler_form,
    euler_form_direct,
    extension_admissible,
    perturbed_operator,
    so_pairs,
)
from cyclica.scalars import QQi

C4 = InertiaSpec(4, [1, 2, 3, 4])
COUP = {"c12": F(1, 3), "c13": F(1, 2), "c14": F(3, 5),
        "c23": F(1, 5), "c24": F(1, 3), "c34": F(1, 7)}


def qz():
    return F(0)


def reference_operators():
    c12, c13, c14 = COUP["c12"], COUP["c13"], COUP["c14"]
    c23, c24, c34 = COUP["c23"], COUP["c24"], COUP["c34"]
    Z = qz()
    L12 = Matrix.exact([
        [Z, Z, Z, Z, Z, Z],
        [Z, Z, Z, -c13, Z, Z],
        [Z, Z, Z, Z, -c14, Z],
        [Z, c23, Z, Z, Z, Z],
        [Z, Z, c24, Z, Z, Z],
        [Z, Z, Z, Z, Z, Z],
    ])
    L23 = Matrix.exact([
        [Z, -c12, Z, Z, Z, Z],
        [c13, Z, Z, Z, Z, Z],
        [Z, Z, Z, Z, Z, Z],
        [Z, Z, Z, Z, Z, Z],
        [Z, Z, Z, Z, Z, -c24],
        [Z, Z, Z, Z, c34, Z],
    ])
    L34 = Matrix.exact([
        [Z, Z, Z, Z, Z, Z],
        [Z, Z, -c13, Z, Z, Z],
        [Z, c14, Z, Z, Z, Z],
        [Z, Z, Z, Z, -c23, Z],
        [Z, Z, Z, c24, Z, Z],
        [Z, Z, Z, Z, Z, Z],
    ])
    return L12, L23, L34


def test_inertia_validation():
    with pytest.raises(ValueError):
        InertiaSpec(3, [1, 1, 2])
    with pytest.raises(ValueError):
        InertiaSpec(3, [-1, 1, 2])
    with pytest.raises(ValueError):
        InertiaSpec(3, [1, 2])


def test_so_basis_order():
    assert so_pairs(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    b = SoBasis(4)
    assert b.coord_index(2, 1) == (0, -1)
    assert b.coord_index(3, 4) == (5, 1)


def test_coupling_values_and_antisymmetry():
    assert coupling(C4, 2, 3) == F(1, 5)
    assert coupling(C4, 1, 4) == F(3, 5)
    assert coupling(C4, 3, 2) == -F(1, 5)
    for j, k in itertools.permutations(range(1, 5), 2):
        assert coupling(C4, j, k) == -coupling(C4, k, j)
        assert abs(coupling(C4, j, k)) < 1


def test_coupling_rejects_equal_indices():
    with pytest.raises(ValueError):
        coupling(C4, 2, 2)
    with pytest.raises(ValueError):
        coupling(C4, 0, 1)


def test_form_disjoint_and_shared_index_products():
    b = SoBasis(4)
    e = lambda i, j: [1 if k == b.index[(i, j)] else 0 for k in range(6)]
    # disjoint pairs annihilate
    v = euler_form(C4, e(1, 2), e(3, 4))
    assert all(x.is_zero() for x in v)
    # shared first index: S12 * S13 -> c23 S23
    v = euler_form(C4, e(1, 2), e(1, 3))
    assert v[b.index[(2, 3)]] == QQi(F(1, 5))
    assert sum(1 for x in v if not x.is_zero()) == 1


def test_form_vanishes_on_every_axis():
    for n in (3, 4, 5):
        C = InertiaSpec(n, list(range(1, n + 1)))
        d = C.so_dim
        for k in range(d):
            e = [0] * d
            e[k] = 1
            v = euler_form(C, e, e)
            assert all(x.is_zero() for x in v)


def test_form_symmetric_and_matches_direct_formula():
    r = rng(63)
    for _ in range(60):
        n = int(r.choice([3, 4, 5]))
        vals = sorted(int(x) for x in r.choice(np.arange(1, 40), size=n, replace=False))
        C = InertiaSpec(n, vals)
        d = C.so_dim
        w1 = [QQi(int(x)) for x in r.integers(-4, 5, size=d)]
        w2 = [QQi(int(x)) for x in r.integers(-4, 5, size=d)]
        t = euler_form(C, w1, w2)
        assert t == euler_form(C, w2, w1)
        assert t == euler_form_direct(C, w1, w2)


def test_extension_admissibility():
    b_hat = [1, 1, 0, 0, 0, 0]  # along the first two axes
    B_small = Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    assert not extension_admissible(C4, b_hat, B_small)
    B_big = Subspace.from_vectors(
        6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    )
    assert extension_admissible(C4, b_hat, B_big)
    # single axes are always admissible
    assert extension_admissible(C4, [1, 0, 0, 0, 0, 0], Subspace.zero(6))


def test_axis_operators_match_reference_tables():
    L12_ref, L23_ref, L34_ref = reference_operators()
    assert axis_operator(C4, (1, 2)) == L12_ref
    assert axis_operator(C4, (2, 3)) == L23_ref
    assert axis_operator(C4, (3, 4)) == L34_ref


def test_axis_operator_specific_entries():
    b = SoBasis(4)
    L12 = axis_operator(C4, (1, 2))
    assert L12.entry(b.index[(2, 3)], b.index[(1, 3)]) == QQi(F(1, 5))
    assert L12.entry(b.index[(1, 3)], b.index[(2, 3)]) == QQi(-F(1, 2))
    L34 = axis_operator(C4, (3, 4))
    assert all(L34.entry(i, b.index[(1, 2)]).is_zero() for i in range(6))


def test_axis_operator_spectrum_and_minimal_polynomial():
    from cyclica.linalg import kernel

    for axis in [(1, 2), (2, 3)]:
        L = axis_operator(C4, axis)
        assert min_poly(L).degree == 5
        ev = eigenvalues(L)
        zero_mult = [m for v, m in ev if abs(v) < 1e-9]
        assert zero_mult == [2]
        # the four nonzero eigenvalues are purely imaginary pairs
        nonzero = [v for v, m in ev if abs(v) >= 1e-9 for _ in range(m)]
        assert len(nonzero) == 4
        assert all(abs(v.real) < 1e-9 for v in nonzero)
        assert not single_generator_cyclic(L)
        # kills a 2-dim subspace and is killed by a 2-dim covector space
        assert kernel(L).dim == 2
        assert kernel(L.T).dim == 2


def test_axis_operator_scaling_invariance():
    C_scaled = InertiaSpec(4, [5, 10, 15, 20])
    for axis in [(1, 2), (2, 3), (3, 4)]:
        assert axis_operator(C_scaled, axis) == axis_operator(C4, axis)


def test_direction_operator_matches_axis_up_to_columns():
    # for a single principal axis the general linearization agrees with the
    # tabulated operator on columns whose shared index sits first
    b = SoBasis(4)
    D = direction_operator(C4, [1, 0, 0, 0, 0, 0])
    L = axis_operator(C4, (1, 2))
    for (c, d) in [(1, 3), (1, 4)]:
        j = b.index[(c, d)]
        assert all(D.entry(i, j) == L.entry(i, j) for i in range(6))


def test_perturbed_operator_rejects_negative_eps():
    with pytest.raises(ValueError):
        perturbed_operator(C4, F(-1, 100))


def test_perturbed_operator_at_zero():
    res = perturbed_operator(C4, 0)
    zero_mult = [m for v, m in eigenvalues(res.operator) if abs(v) < 1e-9]
    assert zero_mult == [2]
    assert res.p is None
    with pytest.raises(ValueError):
        res.discriminant


def test_perturbed_operator_exact_extraction():
    res = perturbed_operator(C4, F(1, 100))
    assert res.flags["z5_vanishes"] and res.flags["stable_coefficients"]
    p0, p1, p2, p3, p4 = res.p
    assert p0 == QQi(F(1, 6300))
    assert p1 == QQi(F(1, 150))
    assert p4 == QQi(F(18, 35))
    assert res.discriminant == QQi(F(1, 396900))


def test_perturbed_operator_float_matches_exact():
    Cf = InertiaSpec(4, [1.0, 2.0, 3.0, 4.0])
    resf = perturbed_operator(Cf, 0.01)
    rese = perturbed_operator(C4, F(1, 100))
    for a, b in zip(resf.p, rese.p):
        assert abs(a - complex(b)) < 1e-9
    assert abs(resf.discriminant - complex(rese.discriminant)) < 1e-12


def test_perturbed_operator_simple_eigenvalues():
    Cf = InertiaSpec(4, [1.0, 2.0, 3.0, 4.0])
    res = perturbed_operator(Cf, 0.01)
    ev = np.linalg.eigvals(res.operator.data)
    gaps = [abs(a - b) for a, b in itertools.combinations(ev, 2)]
    assert min(gaps) > 1e-6


def test_so3_two_axes_give_cyclic_direction():
    C = InertiaSpec(3, [1, 2, 3])
    G = GeneratorSet(3, [axis_operator(C, (1, 2)), axis_operator(C, (2, 3))])
    cert = find_cyclic_vector(G, trials=16, seed=0)
    assert cert.is_cyclic and cert.orbit_dim == 3


def test_analyze_adjacent_axes():
    rep = analyze(MrbSystem(C4, axes=[(1, 2), (2, 3)]), trials=16, seed=0)
    assert rep.verdict == "reachable_with_additional_control"
    assert rep.witness is not None
    assert rep.perturbation is not None
    assert rep.perturbation.flags["z5_vanishes"]
    assert multiplicity_condition(rep.decomposition)


def test_analyze_disjoint_axes():
    rep = analyze(MrbSystem(C4, axes=[(1, 2), (3, 4)]), trials=16, seed=0)
    assert rep.verdict == "no_single_direction"
    mu, P = rep.obstruction
    assert P.dim == 2
    for p in P.basis:
        assert all(p[i].is_zero() for i in range(1, 5))
    assert rep.design.r == 2 and rep.design.certified
    assert rep.hautus_verdict_r1 == "no_cyclic_subspace"
    assert not multiplicity_condition(rep.decomposition)


def _count_analysis_calls(monkeypatch, d):
    """Record rank_drop_locus and is_cyclic_vector calls, and closures in
    G's own field of a generator set acting on all of so(n) (dimension d)."""
    calls = {"locus": 0, "trials": 0, "full_field_closure": 0}

    def counted(module, name, key, applies=lambda G: True):
        original = getattr(module, name)

        def wrapper(G, *args, **kwargs):
            calls[key] += applies(G)
            return original(G, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(hautus, "rank_drop_locus", "locus")
    counted(algebra, "is_cyclic_vector", "trials")
    counted(algebra, "_field_closure", "full_field_closure", lambda G: G.n == d)
    return calls


@pytest.mark.parametrize("n", [4, 5])
def test_analyze_disjoint_axes_reuses_the_locus_and_runs_no_trials(monkeypatch, n):
    C = InertiaSpec(n, list(range(1, n + 1)))
    calls = _count_analysis_calls(monkeypatch, C.so_dim)
    rep = analyze(MrbSystem(C, axes=[(1, 2), (3, 4)]), trials=64, seed=0)
    assert rep.verdict == "no_single_direction" and not rep.design.solvable
    # one locus for every phase; its exact obstruction replaces the trials,
    # and non-solvability is certified without the closure over Q(i)
    assert calls == {"locus": 1, "trials": 0, "full_field_closure": 0}


def test_analyze_adjacent_axes_finds_its_witness_by_trials(monkeypatch):
    calls = _count_analysis_calls(monkeypatch, C4.so_dim)
    rep = analyze(MrbSystem(C4, axes=[(1, 2), (2, 3)]), trials=64, seed=0)
    assert rep.verdict == "reachable_with_additional_control"
    assert calls["locus"] == 1 and calls["trials"] >= 1


def test_analyze_full_control_trivial():
    rep = analyze(MrbSystem(C4, axes=so_pairs(4)))
    assert rep.verdict == "trivially_reachable"


def test_analyze_rejects_inadmissible_extra():
    sys = MrbSystem(C4, axes=[(1, 2)], extra_controls=[[0, 1, 1, 0, 0, 0]])
    with pytest.raises(ValueError, match="not admissible"):
        analyze(sys)


def test_analyze_admissible_extra_direction():
    # S13 + S23 self-couples into span{S12}, so adding the S12 axis
    # makes it admissible
    sys = MrbSystem(C4, axes=[(1, 2)], extra_controls=[[0, 1, 0, 1, 0, 0]])
    rep = analyze(sys, trials=16, seed=0)
    assert rep.verdict in (
        "reachable_with_given_controls",
        "reachable_with_additional_control",
        "no_single_direction",
        "inconclusive",
    )
