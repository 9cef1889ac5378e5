#!/usr/bin/env python3
"""The rank-drop locus, solvability, and block decomposition in action.

For operators A_1..A_m, a tuple mu is a rank-drop point when some nonzero
covector p satisfies p(A_j - mu_j I) = 0 for every j.  Any r-dimensional
cyclic subspace must dodge every such covector space, so
max dim P_mu <= r is necessary; when the generated Lie algebra is
solvable it is sufficient too, and generic subspaces of that dimension
work.  Solvability is read off the trace form of the generated algebra:
every commutator [A_i, A_j] must be orthogonal to all of it.
"""

from cyclica import (
    GeneratorSet,
    Matrix,
    block_triangularize,
    classify_blocks,
    hautus_verdict,
    is_solvable,
    minimal_cyclic_dimension,
    multiplicity_condition,
    rank_drop_locus,
)

# commuting diagonal modes: everything is explicit
G = GeneratorSet(3, [
    Matrix.exact([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
    Matrix.exact([[5, 0, 0], [0, 5, 0], [0, 0, 7]]),
])
locus = rank_drop_locus(G)
print("commuting diagonal pair:")
for e in locus.entries:
    print(f"  mu = {tuple(str(v) for v in e.mu)}  "
          f"covector dim {e.dim_p}  stacked rank {e.rank_value}")
print("  worst drop:", locus.max_drop)
print("  generated Lie algebra solvable:", is_solvable(G))
print("  verdict for single-column inputs:", hautus_verdict(G, 1))
print("  verdict for two-column inputs:  ", hautus_verdict(G, 2))
res = minimal_cyclic_dimension(G, trials=32, seed=0)
print(f"  certified minimum: r = {res.r}")
print()

# a non-commuting reducible family and its composition structure
A = Matrix.exact([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
B = Matrix.exact([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])
G2 = GeneratorSet(4, [A, B])
btf = block_triangularize(G2)
summary = classify_blocks(btf)
print("two interleaved irreducible planes:")
print("  block dimensions:", btf.block_dims)
for k, cls in enumerate(summary.classes):
    print(f"  class {k}: members {cls.members}, dim {cls.block_dim}, "
          f"multiplicity {cls.multiplicity}")
print("  multiplicity condition:", multiplicity_condition(summary),
      "(dim 2 >= 2 copies: dense cyclic vectors exist)")
