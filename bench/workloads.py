"""The four workloads: inputs made from a seed, the operations run on them,
and the independent check of every output.

An instance is a list of operations on one input.  ``Op.run`` calls
cyclica and returns its output; ``Op.check`` returns None when the output
is right and a one-line reason when it is not, using only ``indep`` and
facts fixed by the construction of the input.  An op with ``fault`` set
exercises a known program fault on an input that does not depend on the
seed; its failure is counted, not treated as a wrong answer.

The benchmark's own proofs and check preparation run while the inputs are
built; functions marked ``@_own_work`` add their time to ``OWN_S``, which
the runner keeps out of ``setup_s``.

cyclica is always called through its module attributes (``algebra.closure``
and so on), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import sympy  # noqa: F401  (imported lazily by cyclica; part of set-up)

import indep
from cyclica import algebra, cli, decomp, hautus, linalg, mrb, switched

TRIALS = 16
OWN_S = 0.0  # seconds spent in @_own_work functions since import
CLI_CONFIG = {"trials": TRIALS, "tol_rank": 1e-9, "tol_gap": 1e-7, "backend": None}


@dataclass
class Op:
    label: str
    run: object  # () -> output
    check: object  # output -> None | reason
    fault: str | None = None


@dataclass
class Instance:
    name: str
    ops: list
    largest: bool = False


@dataclass
class Workload:
    name: str
    instances: list
    min_rounds: int = 1


def _own_work(fn):
    """Count the time of fn, the benchmark's own work, in OWN_S.  Marked
    functions do not call each other, so no time is counted twice."""
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        global OWN_S
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            OWN_S += time.perf_counter() - t0
    return timed


def _rng(seed, key):
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


# ---------------------------------------------------------------------------
# integer constructions
# ---------------------------------------------------------------------------


def _int_matrix(r, rows, cols, lo=-4, hi=4):
    return [[int(x) for x in row] for row in r.integers(lo, hi + 1, size=(rows, cols))]


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _unimodular(r, n):
    """Integer matrix of determinant +-1 and its integer inverse."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = (int(x) for x in r.integers(0, n, size=2))
        if i != j:
            c = int(r.integers(-2, 3))
            U[j] = [a + c * b for a, b in zip(U[j], U[i])]
    inv = indep.frac_inverse(indep.frac_matrix(U))
    return U, [[int(x) for x in row] for row in inv]


def _conjugate(U, Ui, B):
    return _int_matmul(_int_matmul(U, B), Ui)


def _mod_p(rows):
    return np.array(rows, dtype=np.int64) % indep.P


@_own_work
def _closure_dim_mod_p(gens):
    return indep.closure_dim_mod_p([_mod_p(A) for A in gens])


def _irreducible_pair(r, n):
    """Random integer pair whose algebra is all of M_n, proved mod p."""
    while True:
        gens = [_int_matrix(r, n, n) for _ in range(2)]
        if _closure_dim_mod_p(gens) == n * n:
            return gens


def _two_block_pair(r, d1, d2):
    """U [[X, Y], [0, Z]] U^-1 with irreducible X and Z pairs and generic Y.

    The algebra lies in the block upper-triangular algebra, of dimension
    d1^2 + d2^2 + d1 d2; the pair is redrawn until its dimension mod p
    reaches that bound, which proves the dimension over Q(i) equal to it.
    """
    n = d1 + d2
    bound = d1 * d1 + d2 * d2 + d1 * d2
    while True:
        X, Z = _irreducible_pair(r, d1), _irreducible_pair(r, d2)
        U, Ui = _unimodular(r, n)
        gens = []
        for k in range(2):
            Y = _int_matrix(r, d1, d2)
            B = [X[k][i] + Y[i] for i in range(d1)]
            B += [[0] * d1 + Z[k][i] for i in range(d2)]
            gens.append(_conjugate(U, Ui, B))
        if _closure_dim_mod_p(gens) == bound:
            return gens, bound


# ---------------------------------------------------------------------------
# checks shared by several workloads
# ---------------------------------------------------------------------------


@_own_work
def _gens_mod_p(gens):
    return [_mod_p(A) for A in gens]


def _orbit_full_mod_p(gens_mod_p, vectors):
    n = gens_mod_p[0].shape[0]
    return indep.orbit_dim_mod_p(gens_mod_p, [indep.cleared(v) for v in vectors]) == n


def _obstruction_problem(mats, mu, covectors):
    """None if the covectors span a space of dim >= 2 killed by every
    A_j - mu_j I, checked in rational arithmetic."""
    if len(covectors) < 2:
        return f"obstruction covector space has dimension {len(covectors)} < 2"
    for p in covectors:
        if not indep.annihilates(p, mats, mu):
            return f"covector {p} does not satisfy p (A_j - mu_j I) = 0 at mu = {mu}"
    return None


def _fractions(vec):
    return [indep.as_fraction(x) for x in vec]


# ---------------------------------------------------------------------------
# burnside-exact and burnside-float
# ---------------------------------------------------------------------------

# rounds are kept short (about 2 s) so that a run times many of them: the
# medians then ride out the second-scale swings in machine speed.  Several
# small instances of one size make the median instance one of them; the
# largest instance is the one with the largest algebra
EXACT_SIZES = [("irr", 4)] + [("irr", 5)] * 3 + [("blk", (2, 2)), ("blk", (2, 3)), ("irr", 6)]
FLOAT_SIZES = [("irr", 10)] + [("irr", 12)] * 3 + [("blk", (5, 5)), ("blk", (6, 6)), ("irr", 16)]


def _burnside(name, seed, sizes, backend):
    r = _rng(seed, 1 if backend == linalg.EXACT else 2)
    built = []
    for idx, (kind, size) in enumerate(sizes):
        if kind == "irr":
            gens, dim = _irreducible_pair(r, size), size * size
            label = f"irr-n{size}"
        else:
            gens, dim = _two_block_pair(r, *size)
            label = f"blocks-{size[0]}+{size[1]}"
        built.append((f"{label}#{idx}", gens, dim))
    largest = max(range(len(built)), key=lambda i: built[i][2])
    return Workload(name, [
        Instance(label, _burnside_ops(gens, dim, backend, seed + idx), largest=(idx == largest))
        for idx, (label, gens, dim) in enumerate(built)])


def _burnside_ops(gens, dim, backend, seed):
    G = algebra.GeneratorSet(len(gens[0]), [linalg.Matrix.exact(A) for A in gens])
    if backend == linalg.FLOAT:
        G = G.to_float()
    n = G.n
    gens_p = _gens_mod_p(gens)

    def check_closure(basis):
        if basis.dim != dim:
            return f"closure dimension {basis.dim}, proved {dim} mod p"
        return None

    def check_cyclic(cert):
        if cert.verdict != algebra.CYCLIC or cert.orbit_dim != n:
            return f"verdict {cert.verdict} (orbit {cert.orbit_dim}) on a cyclic algebra"
        if backend == linalg.EXACT:
            if not _orbit_full_mod_p(gens_p, [cert.witness]):
                return "witness orbit is not full mod p"
        elif cert.trials_used != 1:
            # every vector off a proper invariant subspace is cyclic, so the
            # first Gaussian sample must be
            return f"first sampled vector not cyclic ({cert.trials_used} trials)"
        return None

    def check_locus(locus):
        # irreducible blocks of size >= 2 have no common eigencovector
        if len(locus.entries):
            return f"rank-drop locus has {len(locus.entries)} entries, expected none"
        return None

    ops = [Op("closure", lambda: algebra.closure(G), check_closure),
           Op("cyclic_vector", lambda: algebra.find_cyclic_vector(G, trials=8, seed=seed),
              check_cyclic)]
    if backend == linalg.FLOAT:
        ops.append(Op("locus", lambda: hautus.rank_drop_locus(G), check_locus))
    return ops


# ---------------------------------------------------------------------------
# hautus-locus
# ---------------------------------------------------------------------------

HAUTUS_SIZES = [(2, 2)] * 3 + [(2, 3), (3, 2), (3, 3)]  # (k, m); n = 2k
F1_T1 = [[-1, 2, -2], [0, -1, -2], [0, 0, -1]]
F1_SEED = 0
F2_R = [[0, 2], [1, 0]]


def _upper_triangular(r, k):
    diag = r.choice(np.arange(-4, 5), size=k, replace=False)
    return [[int(diag[i]) if i == j else (int(r.integers(-3, 4)) if j > i else 0)
             for j in range(k)] for i in range(k)]


def _doubled_triangular_family(r, k, m, first=None):
    """A_j = U (T_j + T_j) U^-1, T_j upper triangular; returns the integer
    generators and the spectra known from the construction."""
    n = 2 * k
    U, Ui = _unimodular(r, n)
    gens, spectra = [], []
    for j in range(m):
        T = _upper_triangular(r, k)
        if j == 0 and first is not None:
            T = first
        B = [T[i] + [0] * k for i in range(k)] + [[0] * k + T[i] for i in range(k)]
        gens.append(_conjugate(U, Ui, B))
        spectra.append(sorted({T[i][i] for i in range(k)}))
    return gens, spectra


@_own_work
def _hautus_check_data(gens, spectra):
    """The generators in Fraction and mod-p form, and the locus
    {mu: dim P_mu} over every tuple of the known spectra, by exact integer
    elimination."""
    own = {}
    for mu in product(*spectra):
        d = indep.left_kernel_dim(gens, mu)
        if d:
            own[tuple(Fraction(x) for x in mu)] = d
    return [indep.frac_matrix(A) for A in gens], [_mod_p(A) for A in gens], own


def _hautus_ops(gens, spectra, seed):
    n = len(gens[0])
    G = algebra.GeneratorSet(n, [linalg.Matrix.exact(A) for A in gens])
    fr_gens, gens_p, own = _hautus_check_data(gens, spectra)
    max_drop = max(own.values(), default=0)

    def check_locus(locus):
        got = {}
        for e in locus.entries:
            if not e.exact:
                return f"entry {e.mu} not exact on an integer family with integer spectra"
            mu = tuple(indep.as_fraction(x) for x in e.mu)
            got[mu] = e.dim_p
            basis = [_fractions(p) for p in e.covectors.basis]
            if len(basis) != e.dim_p or any(
                    not indep.annihilates(p, fr_gens, mu) for p in basis):
                return f"covectors at {mu} do not satisfy p (A_j - mu_j I) = 0"
        if got != own:
            return f"locus {sorted(got.items())} != {sorted(own.items())}"
        if locus.flags:
            return f"unexpected flags {locus.flags}"
        return None

    def check_verdict(v):
        want = hautus.NO_CYCLIC_SUBSPACE if max_drop > 1 else hautus.GENERIC_CYCLIC_SUBSPACE
        return None if v == want else f"hautus_verdict(G, 1) = {v}, expected {want}"

    def run_cyclic():
        cert = algebra.find_cyclic_vector(G, trials=TRIALS, seed=seed)
        return cert, cert.recheck(G)

    def check_cyclic(out):
        cert, rechecked = out
        if max_drop < 2:
            return "construction must give a drop of at least 2"
        if cert.verdict != algebra.NOT_CYCLIC or cert.obstruction_locus is None:
            return f"verdict {cert.verdict} where a covector space of dim {max_drop} exists"
        mu, P = cert.obstruction_locus
        problem = _obstruction_problem(fr_gens, _fractions(mu),
                                       [_fractions(p) for p in P.basis])
        if problem:
            return problem
        return None if rechecked is True else "certificate does not recheck"

    def check_design(rep):
        if rep.r != max_drop or not rep.certified:
            return f"design r = {rep.r} (certified {rep.certified}), max drop is {max_drop}"
        if not rep.solvable:
            return "Lie algebra of a triangularizable family reported not solvable"
        if rep.witness_B is None or rep.witness_B.cols != rep.r:
            return "design has no witness input matrix of r columns"
        cols = [rep.witness_B.col(j) for j in range(rep.witness_B.cols)]
        if not _orbit_full_mod_p(gens_p, cols):
            return "design witness does not make the system reachable (mod p)"
        return None

    def check_blocks(btf):
        if list(btf.block_dims) != [1] * n:
            return f"block dims {btf.block_dims}, family is triangularizable"
        Pm = [[indep.as_fraction(btf.change_of_basis.entry(i, j)) for j in range(n)]
              for i in range(n)]
        try:
            Pinv = indep.frac_inverse(Pm)
        except ZeroDivisionError:
            return "change of basis is singular"
        for A in fr_gens:
            T = indep.frac_matmul(indep.frac_matmul(Pinv, A), Pm)
            if any(T[i][j] for i in range(n) for j in range(i)):
                return "P^-1 A P is not upper triangular"
        return None

    return [
        Op("locus", lambda: hautus.rank_drop_locus(G), check_locus),
        Op("hautus_r1", lambda: hautus.hautus_verdict(G, 1), check_verdict),
        Op("cyclic_vector", run_cyclic, check_cyclic),
        Op("design", lambda: switched.design_inputs(list(G.gens), trials=TRIALS, seed=seed),
           check_design),
        Op("decompose", lambda: decomp.block_triangularize(G, seed=seed), check_blocks),
    ]


def _matrix_json(rows):
    return {"rows": len(rows), "cols": len(rows[0]), "data": rows}


def _f1_op():
    """`cyclica design` on a family whose first generator has a defective
    eigenvalue; the input is fixed, not drawn from the workload seed."""
    gens, spectra = _doubled_triangular_family(_rng(F1_SEED, 5), 3, 2, first=F1_T1)
    max_drop = max(_hautus_check_data(gens, spectra)[2].values())
    payload_text = json.dumps({"schema": "v1", "n": len(gens[0]), "backend": "exact",
                               "generators": [_matrix_json(A) for A in gens]})
    config = dict(CLI_CONFIG, seed=0)

    def run():
        report = cli.build_report("design", json.loads(payload_text), config)
        return (json.dumps(report, sort_keys=True, indent=2) + "\n",)

    def check(out):
        design = json.loads(out[0])["result"]["design"]
        if design["r"] != max_drop:
            return f"design r = {design['r']} (certified {design['certified']}), max drop is {max_drop}"
        return None

    return Op("design", run, check, fault="F1")


def _f2_op():
    """Recheck of an exact not_cyclic certificate whose worst mu is
    irrational: blockdiag(R, R) with eigenvalues +-sqrt(2)."""
    B = [F2_R[0] + [0, 0], F2_R[1] + [0, 0], [0, 0] + F2_R[0], [0, 0] + F2_R[1]]
    G = algebra.GeneratorSet(4, [linalg.Matrix.exact(B)])

    def run():
        cert = algebra.find_cyclic_vector(G, trials=TRIALS, seed=0)
        return cert, cert.recheck(G)

    def check(out):
        cert, rechecked = out
        if cert.verdict != algebra.NOT_CYCLIC:
            return f"verdict {cert.verdict}; blockdiag(R, R) has no cyclic vector"
        return None if rechecked is True else "certificate does not recheck"

    return Op("recheck", run, check, fault="F2")


def _hautus_locus(seed):
    r = _rng(seed, 3)
    instances = []
    largest = max(range(len(HAUTUS_SIZES)), key=lambda i: HAUTUS_SIZES[i])
    for idx, (k, m) in enumerate(HAUTUS_SIZES):
        gens, spectra = _doubled_triangular_family(r, k, m)
        instances.append(Instance(f"tri-k{k}-m{m}#{idx}", _hautus_ops(gens, spectra, seed + idx),
                                  largest=(idx == largest)))
    instances.append(Instance("F1-defective-eigenvalue", [_f1_op()]))
    instances.append(Instance("F2-irrational-mu", [_f2_op()]))
    return Workload("hautus-locus", instances)


# ---------------------------------------------------------------------------
# rigid-body
# ---------------------------------------------------------------------------

# so(6) is left out: one so(6) analysis takes 14-17 s, longer than a whole
# run should; so(5) with disjoint axes runs every phase of analyze
RIGID_CASES = [(4, ((1, 2), (2, 3))), (4, ((1, 2), (3, 4))), (5, ((1, 2), (3, 4)))]
# the paper's so(4) verdicts for adjacent and disjoint controlled axes
SO4_VERDICTS = {((1, 2), (2, 3)): "reachable_with_additional_control",
                ((1, 2), (3, 4)): "no_single_direction"}


class _ReportChain:
    """Round 1 builds the report from its JSON input; every later round
    re-runs the previous round's report and must reproduce it byte for byte."""

    def __init__(self, payload_text, config):
        self.payload_text = payload_text
        self.config = config
        self.previous = None

    def run(self):
        if self.previous is None:
            report = cli.build_report("mrb analyze", json.loads(self.payload_text), self.config)
        else:
            report = cli.rerun_report(json.loads(self.previous))
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        before, self.previous = self.previous, text
        return text, before


@_own_work
def _rigid_check_data(n, C, axes):
    """The axis operators in Fraction and mod-p form."""
    inertia = mrb.InertiaSpec(n, C)
    ops_mats = [[[indep.as_fraction(mrb.axis_operator(inertia, ax).entry(i, j))
                  for j in range(inertia.so_dim)] for i in range(inertia.so_dim)]
                for ax in axes]
    return ops_mats, [indep.matrix_mod_p(A) for A in ops_mats]


def _rigid_ops(n, axes, C, seed):
    payload = {"n": n, "C": C, "axes": [list(a) for a in axes]}
    chain = _ReportChain(json.dumps(payload), dict(CLI_CONFIG, seed=seed))
    ops_mats, gens_p = _rigid_check_data(n, C, axes)
    d = len(ops_mats[0])

    def perturbation_problem(pert):
        eps = indep.parse_json_scalar(pert["eps"])
        L1, L2 = ops_mats

        def pattern(e):
            prod = indep.frac_matmul(L1, L2)
            op = [[L1[i][j] + L2[i][j] + e * prod[i][j] for j in range(d)] for i in range(d)]
            c = indep.char_poly(op)
            return (c[0] / (e * e), -c[1] / e, c[2], -c[3] / e, c[4]), c
        p, coeffs = pattern(eps)
        p_alt, _ = pattern(2 * eps)
        got = [indep.parse_json_scalar(x) for x in pert["char_coeffs"]]
        if got != coeffs:
            return "characteristic polynomial differs from the recomputed one"
        flags = {"z5_vanishes": coeffs[5] == 0, "stable_coefficients": p == p_alt}
        if pert["flags"] != flags:
            return f"flags {pert['flags']}, recomputed {flags}"
        disc = p[1] * p[1] - 4 * p[2] * p[0]
        if indep.parse_json_scalar(pert["discriminant"]) != disc:
            return f"discriminant {pert['discriminant']}, recomputed {disc}"
        if (n, axes) == (4, ((1, 2), (2, 3))) and not all(flags.values()):
            return f"so(4) adjacent-axes splitting pattern does not hold: {flags}"
        return None

    def check(out):
        text, before = out
        if before is not None and text != before:
            return "rerun_report did not reproduce the report byte for byte"
        report = json.loads(text)
        if report["status"] != "ok":
            return f"status {report['status']}"
        a = report["result"]["analysis"]
        verdict = a["verdict"]
        if n == 4 and verdict != SO4_VERDICTS[axes]:
            return f"so(4) axes {axes}: {verdict}, the paper gives {SO4_VERDICTS[axes]}"
        if verdict == "reachable_with_additional_control":
            w = [indep.parse_json_scalar(x) for x in a["witness"]["vector"]]
            if not _orbit_full_mod_p(gens_p, [w]):
                return "added control direction does not reach so(n) (mod p)"
            if a["hautus_verdict_r1"] == hautus.NO_CYCLIC_SUBSPACE:
                return "cyclic vector found where the rank test forbids one"
        elif verdict == "no_single_direction":
            mu = [indep.parse_json_scalar(x) for x in a["obstruction"]["mu"]]
            cov = [[indep.parse_json_scalar(x) for x in v]
                   for v in a["obstruction"]["covectors"]["basis"]]
            problem = _obstruction_problem(ops_mats, mu, cov)
            if problem:
                return problem
            des = a["design"]
            if not des["certified"] or des["lower_bound"] != len(cov) or des["r"] < len(cov):
                return f"design {des} inconsistent with a drop of {len(cov)}"
            if a["hautus_verdict_r1"] != hautus.NO_CYCLIC_SUBSPACE:
                return f"hautus r=1 verdict {a['hautus_verdict_r1']} despite a drop >= 2"
        else:
            return f"verdict {verdict}"
        if a.get("decomposition") and sum(a["decomposition"]["block_dims"]) != d:
            return "decomposition blocks do not add up to dim so(n)"
        return perturbation_problem(a["perturbation"])

    return [Op("mrb_analyze", chain.run, check)]


def _rigid_body(seed):
    """The inertia is C = (1, ..., n), as in the bundled corpus, and the seed
    is the report's sampling seed.  The inertia is not drawn from the seed:
    the cost of an exact analysis moves with C (so(4) with disjoint axes
    took 0.40 to 0.69 s over ten drawn inertias), which would bury the
    run-to-run comparison under input changes."""
    instances = []
    for idx, (n, axes) in enumerate(RIGID_CASES):
        C = list(range(1, n + 1))
        instances.append(Instance(f"so{n}-axes{''.join(f'{i}{j}' for i, j in axes)}#{idx}",
                                  _rigid_ops(n, axes, C, seed),
                                  largest=(idx == len(RIGID_CASES) - 1)))
    return Workload("rigid-body", instances, min_rounds=2)


def build(name, seed):
    if name == "burnside-exact":
        return _burnside(name, seed, EXACT_SIZES, linalg.EXACT)
    if name == "burnside-float":
        return _burnside(name, seed, FLOAT_SIZES, linalg.FLOAT)
    if name == "hautus-locus":
        return _hautus_locus(seed)
    if name == "rigid-body":
        return _rigid_body(seed)
    raise ValueError(f"unknown workload {name!r}")
