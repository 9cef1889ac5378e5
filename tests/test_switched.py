import itertools

import numpy as np
import pytest

from conftest import random_exact_matrix, rng
from cyclica.algebra import GeneratorSet
from cyclica.linalg import Matrix, SpanBuilder, Subspace
from cyclica.mrb import InertiaSpec, axis_operator
from cyclica.scalars import QQi
from cyclica.switched import (
    DesignReport,
    Mode,
    SwitchedSystem,
    design_inputs,
    is_globally_reachable,
    reachable_subspace,
)

J3 = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
E3 = Matrix.exact([[0], [0], [1]])


def kalman_span(A, B):
    """Independent oracle: span of A^l * columns(B) for l < n."""
    n = A.rows
    sb = SpanBuilder(n, A.backend, A.tol)
    P = Matrix.identity(n, A.backend, A.tol)
    for _ in range(n):
        M = P @ B
        for j in range(M.cols):
            sb.add(M.col(j))
        P = A @ P
    return sb.subspace()


def brute_force_reachable(sys, max_len):
    """Word-by-word reachable span with mode-dependent seeds: every product
    of mode matrices applied to every mode's input range."""
    n = sys.n
    sb = SpanBuilder(n, sys.backend, sys.tol)
    seeds = []
    for m in sys.modes:
        if m.B is not None:
            seeds.extend(m.B.col(j) for j in range(m.B.cols))
    if sys.shared_B is not None:
        seeds.extend(sys.shared_B.col(j) for j in range(sys.shared_B.cols))
    words = [Matrix.identity(n, sys.backend, sys.tol)]
    frontier = list(words)
    for _ in range(max_len):
        frontier = [m.A @ W for m in sys.modes for W in frontier]
        words.extend(frontier)
    for W in words:
        for s in seeds:
            sb.add(W.apply(s))
    return sb.subspace()


def test_single_mode_jordan_chain_reachable():
    sys = SwitchedSystem(3, [Mode(J3)], shared_B=E3)
    R = reachable_subspace(sys)
    assert R.is_full()
    assert is_globally_reachable(sys)


def test_two_mode_adjacent_axes_fully_reachable():
    C = InertiaSpec(4, [1, 2, 3, 4])
    L12, L23 = axis_operator(C, (1, 2)), axis_operator(C, (2, 3))
    r = rng(51)
    b = Matrix.exact([[int(x)] for x in r.integers(-5, 6, size=6)])
    sys = SwitchedSystem(6, [Mode(L12), Mode(L23)], shared_B=b)
    assert reachable_subspace(sys).is_full()


def test_two_mode_disjoint_axes_capped():
    C = InertiaSpec(4, [1, 2, 3, 4])
    L12, L34 = axis_operator(C, (1, 2)), axis_operator(C, (3, 4))
    r = rng(53)
    for _ in range(5):
        b = Matrix.exact([[int(x)] for x in r.integers(-5, 6, size=6)])
        sys = SwitchedSystem(6, [Mode(L12), Mode(L34)], shared_B=b)
        assert reachable_subspace(sys).dim <= 5
        assert not is_globally_reachable(sys)


def test_zero_input_never_reachable():
    sys = SwitchedSystem(3, [Mode(J3)], shared_B=Matrix.zeros(3, 1))
    assert reachable_subspace(sys).dim == 0
    assert not is_globally_reachable(sys)


def test_reachable_contains_inputs_and_invariant():
    r = rng(55)
    for _ in range(10):
        n = int(r.integers(2, 5))
        modes = [Mode(random_exact_matrix(r, n, n)) for _ in range(2)]
        B = random_exact_matrix(r, n, 2)
        sys = SwitchedSystem(n, modes, shared_B=B)
        R = reachable_subspace(sys)
        assert R.contains_subspace(sys.input_span())
        for m in modes:
            for v in R.basis:
                assert R.contains(m.A.apply(v))


def test_kalman_specialization_random():
    r = rng(57)
    for _ in range(30):
        n = int(r.integers(2, 7))
        A = random_exact_matrix(r, n, n)
        B = random_exact_matrix(r, n, int(r.integers(1, 3)))
        sys = SwitchedSystem(n, [Mode(A)], shared_B=B)
        assert reachable_subspace(sys) == kalman_span(A, B)


def test_mode_dependent_inputs_match_brute_force():
    r = rng(59)
    for _ in range(15):
        n = int(r.integers(2, 5))
        modes = [
            Mode(random_exact_matrix(r, n, n), random_exact_matrix(r, n, 1))
            for _ in range(2)
        ]
        sys = SwitchedSystem(n, modes)
        assert reachable_subspace(sys) == brute_force_reachable(sys, n)


def test_design_single_jordan_mode():
    rep = design_inputs([J3], trials=16, seed=0)
    assert rep.r == 1 and rep.certified
    assert rep.witness_B is not None and rep.witness_B.cols == 1


def test_design_repeated_eigenvalue_needs_two():
    rep = design_inputs([Matrix.exact([[1, 0, 0], [0, 1, 0], [0, 0, 2]])],
                        trials=32, seed=0)
    assert rep.r == 2 and rep.certified and rep.solvable


def test_design_disjoint_axes_two_inputs():
    C = InertiaSpec(4, [1, 2, 3, 4])
    L12, L34 = axis_operator(C, (1, 2)), axis_operator(C, (3, 4))
    rep = design_inputs([L12, L34], trials=32, seed=0)
    assert rep.r == 2 and rep.lower_bound == 2 and rep.certified
    sys = SwitchedSystem(6, [Mode(L12), Mode(L34)], shared_B=rep.witness_B)
    assert is_globally_reachable(sys)


def test_design_witness_recertifies():
    r = rng(61)
    for _ in range(5):
        A = random_exact_matrix(r, 3, 3)
        rep = design_inputs([A], trials=32, seed=1)
        assert rep.witness_B.cols == rep.r
        sys = SwitchedSystem(3, [Mode(A)], shared_B=rep.witness_B)
        assert is_globally_reachable(sys)


def test_commutative_family_lower_bound_exact():
    # commuting diagonal family: the rank-drop bound is attained
    A1 = Matrix.exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    A2 = Matrix.exact([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 6, 0], [0, 0, 0, 5]])
    rep = design_inputs([A1, A2], trials=32, seed=0)
    assert rep.solvable
    assert rep.r == rep.lower_bound == 2
