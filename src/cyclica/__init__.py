"""cyclica: cyclic vectors and subspaces of finitely generated matrix
algebras, with the switched-linear-system and rigid-body applications
built on top.

Layers, bottom up:

- scalars / linalg: exact Gaussian-rational and tolerance-aware float
  arithmetic, canonical subspaces, polynomial invariants; linalg makes most
  of the choices between the two backends, and the layers above branch on
  the backend only where the two need different methods (random samples,
  eigen-probes, verified spectra, the perturbation analysis);
- algebra: algebra closure, orbits, cyclicity certificates, randomized
  search with sound negative verdicts;
- hautus: rank-drop locus, solvability, combined verdicts;
- decomp: block-triangular form, isotypic classes, the multiplicity test
  and the constructive cyclic vector;
- switched: reachability of switched linear systems and input design;
- mrb: controlled multidimensional rigid body on so(n);
- cli / serialize: JSON interfaces and the command-line tool.
"""

from .algebra import (
    AlgebraBasis,
    CyclicityCertificate,
    GeneratorSet,
    MinimalCyclicResult,
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
from .decomp import (
    BlockTriangularForm,
    InconclusiveError,
    IsotypicSummary,
    block_triangularize,
    classify_blocks,
    construct_cyclic_vector,
    find_invariant_subspace,
    multiplicity_condition,
)
from .hautus import (
    RankDropLocus,
    hautus_necessary,
    hautus_verdict,
    is_solvable,
    rank_drop_locus,
)
from .linalg import (
    Matrix,
    Polynomial,
    Subspace,
    annihilator,
    char_poly,
    eigenvalues,
    kernel,
    min_poly,
    rank,
)
from .mrb import (
    InertiaSpec,
    MrbSystem,
    analyze,
    axis_operator,
    coupling,
    euler_form,
    extension_admissible,
    perturbed_operator,
)
from .scalars import QQi, ToleranceContext
from .switched import Mode, SwitchedSystem, design_inputs, is_globally_reachable, reachable_subspace

__version__ = "0.1.0"
