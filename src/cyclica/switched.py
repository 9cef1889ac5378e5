"""Switched linear control systems: reachability and input design.

The reachable set of a switched linear system from the origin is the
smallest subspace that contains the control ranges and is invariant under
every mode matrix; verdicts here are purely subspace-algebraic, with no
trajectory semantics.

With mode-dependent input matrices the seed of the orbit is the span of all
the individual ranges: a word may start at any mode with a zero exponent,
so each range enters with arbitrary following words attached and the single
orbit reproduces the per-first-mode union.  This reduction is exercised
against brute-force word enumeration in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    GeneratorSet,
    MinimalCyclicResult,
    minimal_cyclic_dimension,
    orbit,
)
from .linalg import Matrix, Subspace


@dataclass
class Mode:
    A: Matrix
    B: Matrix | None = None


class SwitchedSystem:
    """Modes (A_i, B_i) with an optional shared input matrix B."""

    def __init__(self, n, modes, shared_B=None, tol=None):
        if not modes:
            raise ValueError("at least one mode required")
        self.n = n
        self.modes = [m if isinstance(m, Mode) else Mode(*m) for m in modes]
        for m in self.modes:
            if m.A.rows != n or m.A.cols != n:
                raise ValueError("mode matrix must be n x n")
            if m.B is not None and m.B.rows != n:
                raise ValueError("input matrix must have n rows")
        if shared_B is not None and shared_B.rows != n:
            raise ValueError("shared input matrix must have n rows")
        self.shared_B = shared_B
        backends = {M.backend for M in [*(m.A for m in self.modes), *self._input_matrices()]}
        if len(backends) != 1:
            raise TypeError("system mixes scalar backends")
        self.backend = backends.pop()
        self.tol = tol  # None: the default of the backend, as in GeneratorSet

    @property
    def m(self):
        return len(self.modes)

    def generator_set(self):
        return GeneratorSet(self.n, [m.A for m in self.modes], tol=self.tol)

    def _input_matrices(self):
        """The shared input matrix, then each mode's, where given."""
        return [B for B in (self.shared_B, *(m.B for m in self.modes)) if B is not None]

    def input_span(self) -> Subspace:
        cols = [B.col(j) for B in self._input_matrices() for j in range(B.cols)]
        return Subspace.from_vectors(self.n, cols, self.backend, self.tol)


def reachable_subspace(sys: SwitchedSystem) -> Subspace:
    """Span of all mode-word images of the control ranges."""
    return orbit(sys.generator_set(), sys.input_span())


def is_globally_reachable(sys: SwitchedSystem) -> bool:
    return reachable_subspace(sys).is_full()


@dataclass
class DesignReport(MinimalCyclicResult):
    """Outcome of the input-design search for uncontrolled mode dynamics:
    the minimal cyclic-dimension result, its witness as an input matrix."""

    witness_B: Matrix = field(kw_only=True)  # columns: a basis of the witness


def design_inputs(A_list, trials=64, seed=0, tol=None) -> DesignReport:
    """Smallest input dimension rendering the switched dynamics reachable.

    Delegates the lower bound to the rank-drop locus and the upper bound to
    randomized subspace sampling; a generic input matrix of the certified
    dimension works whenever any does.
    """
    A_list = list(A_list)
    if not A_list:
        raise ValueError("at least one mode matrix required")
    n = A_list[0].rows
    G = GeneratorSet(n, A_list, tol=tol)
    res = minimal_cyclic_dimension(G, trials=trials, seed=seed)
    witness_B = Matrix.from_cols(list(res.witness.basis), G.backend, tol=G.tol)
    # the witness must re-certify as a reachable-system input
    sys = SwitchedSystem(n, [Mode(A) for A in A_list], shared_B=witness_B, tol=G.tol)
    if not is_globally_reachable(sys):
        raise AssertionError("design witness failed re-certification")
    return DesignReport(**vars(res), witness_B=witness_B)
