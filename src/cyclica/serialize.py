"""JSON schemas (v1) shared by the library and the command line.

Matrix wire format: {"rows": r, "cols": c, "data": [[entry, ...], ...]}
where an entry is a plain number, a rational string "p/q", or a two-element
list [re, im] of either.  Exact values serialize back to the same shapes,
so reports are reproducible byte for byte under a fixed configuration.
"""

from __future__ import annotations

from fractions import Fraction

from . import algebra, decomp, hautus, mrb, switched
from .linalg import EXACT, FLOAT, Matrix, Subspace, vector
from .scalars import QQi

SCHEMA = "v1"


class SchemaError(ValueError):
    """Input does not match the expected JSON shape."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def _frac_to_json(f: Fraction):
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def scalar_to_json(x):
    if isinstance(x, QQi):
        if x.im == 0:
            return _frac_to_json(x.re)
        return [_frac_to_json(x.re), _frac_to_json(x.im)]
    if isinstance(x, Fraction):
        return _frac_to_json(x)
    z = complex(x)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _parse_real(v, path):
    if isinstance(v, bool):
        raise SchemaError(path, "booleans are not numbers")
    if isinstance(v, (int, float)):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"cannot parse rational {v!r}") from None
    raise SchemaError(path, f"expected a number or 'p/q', got {type(v).__name__}")


def parse_scalar_exact(v, path="entry"):
    if isinstance(v, list):
        if len(v) != 2:
            raise SchemaError(path, "complex entry must be [re, im]")
        return QQi(_parse_real(v[0], path), _parse_real(v[1], path))
    return QQi(_parse_real(v, path))


# ---------------------------------------------------------------------------
# matrices / subspaces / vectors
# ---------------------------------------------------------------------------


def matrix_to_json(M: Matrix):
    return {
        "rows": M.rows,
        "cols": M.cols,
        "data": [vector_to_json(row) for row in M.data],
    }


def parse_matrix(obj, backend=EXACT, tol=None, path="matrix"):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise SchemaError(path, f"missing field {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(f"{path}.data", f"expected {rows} rows")
    parsed = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}.data[{i}]", f"expected {cols} entries")
        parsed.append([parse_scalar_exact(v, f"{path}.data[{i}][{j}]")
                       for j, v in enumerate(row)])
    return Matrix(parsed, backend, tol=tol, cols=cols)


def vector_to_json(v):
    return [scalar_to_json(x) for x in v]


def parse_vector(obj, backend=EXACT, path="vector"):
    if not isinstance(obj, list):
        raise SchemaError(path, "expected a list of entries")
    return vector([parse_scalar_exact(v, f"{path}[{j}]") for j, v in enumerate(obj)],
                  backend)


def subspace_to_json(S: Subspace):
    return {
        "ambient_dim": S.ambient_dim,
        "dim": S.dim,
        "basis": [vector_to_json(v) for v in S.basis],
    }


# ---------------------------------------------------------------------------
# generator sets and systems
# ---------------------------------------------------------------------------


def _parse_backend(obj, backend_override, path):
    backend = backend_override or obj.get("backend", EXACT)
    if backend not in (EXACT, FLOAT):
        raise SchemaError(f"{path}.backend", f"unknown backend {backend!r}")
    return backend


def parse_generator_set(obj, backend_override=None, tol=None, path="input"):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "n" not in obj or "generators" not in obj:
        raise SchemaError(path, "need fields 'n' and 'generators'")
    backend = _parse_backend(obj, backend_override, path)
    gens = [
        parse_matrix(g, backend, tol, f"{path}.generators[{k}]")
        for k, g in enumerate(obj["generators"])
    ]
    return algebra.GeneratorSet(obj["n"], gens, tol=tol)


def parse_switched_system(obj, backend_override=None, tol=None, path="input"):
    if not isinstance(obj, dict) or "n" not in obj or "modes" not in obj:
        raise SchemaError(path, "need fields 'n' and 'modes'")
    backend = _parse_backend(obj, backend_override, path)
    modes = []
    for k, mobj in enumerate(obj["modes"]):
        if "A" not in mobj:
            raise SchemaError(f"{path}.modes[{k}]", "mode needs field 'A'")
        A = parse_matrix(mobj["A"], backend, tol, f"{path}.modes[{k}].A")
        B = None
        if mobj.get("B") is not None:
            B = parse_matrix(mobj["B"], backend, tol, f"{path}.modes[{k}].B")
        modes.append(switched.Mode(A, B))
    shared = None
    if obj.get("B") is not None:
        shared = parse_matrix(obj["B"], backend, tol, f"{path}.B")
    return switched.SwitchedSystem(obj["n"], modes, shared_B=shared, tol=tol)


def parse_mrb_system(obj, path="input"):
    if not isinstance(obj, dict) or "n" not in obj or "C" not in obj:
        raise SchemaError(path, "need fields 'n' and 'C'")
    C_vals = [_parse_real(v, f"{path}.C[{k}]") for k, v in enumerate(obj["C"])]
    inertia = mrb.InertiaSpec(obj["n"], C_vals)
    axes = [tuple(a) for a in obj.get("axes", [])]
    extras = [
        [parse_scalar_exact(x, f"{path}.extra_controls[{k}]") for x in v]
        for k, v in enumerate(obj.get("extra_controls", []))
    ]
    D = None
    if obj.get("D") is not None:
        D = parse_matrix(obj["D"], EXACT, path=f"{path}.D")
    return mrb.MrbSystem(
        inertia,
        axes=axes,
        extra_controls=extras,
        damping=D,
        include_damping=bool(obj.get("include_damping", False)),
    )


# ---------------------------------------------------------------------------
# result encoders
# ---------------------------------------------------------------------------


def _witness_to_json(witness):
    """A witness vector, or a witness subspace, under its kind."""
    if isinstance(witness, Subspace):
        return {"subspace": subspace_to_json(witness)}
    return {"vector": vector_to_json(witness)}


def _locus_point_to_json(mu, P):
    """A rank-drop point: the tuple mu and its covector space P_mu, as
    carried by the locus and by an obstruction drawn from it."""
    return {"mu": vector_to_json(mu), "covectors": subspace_to_json(P)}


def certificate_to_json(cert: algebra.CyclicityCertificate):
    out = {"verdict": cert.verdict}
    if cert.witness is not None:
        out["witness"] = _witness_to_json(cert.witness)
    if cert.orbit_dim is not None:
        out["orbit_dim"] = cert.orbit_dim
    if cert.obstruction_covector is not None:
        out["obstruction"] = {"covector": vector_to_json(cert.obstruction_covector)}
    if cert.obstruction_locus is not None:
        out["obstruction"] = _locus_point_to_json(*cert.obstruction_locus)
    if cert.trials_used is not None:
        out["trials_used"] = cert.trials_used
    return out


def locus_to_json(locus: hautus.RankDropLocus):
    return {
        "entries": [
            dict(_locus_point_to_json(e.mu, e.covectors),
                 dimP=e.dim_p, rank=e.rank_value, exact=e.exact)
            for e in locus.entries
        ],
        "max_drop": locus.max_drop,
        "flags": list(locus.flags),
    }


def _blocks_to_json(summary: decomp.IsotypicSummary):
    """Block dimensions, isomorphism classes and the d >= k condition: the
    part of a decomposition that both the decompose and mrb reports carry."""
    return {
        "block_dims": list(summary.btf.block_dims),
        "classes": [
            {
                "members": list(cls.members),
                "d": cls.block_dim,
                "multiplicity": cls.multiplicity,
            }
            for cls in summary.classes
        ],
        "theorem_condition": decomp.multiplicity_condition(summary),
    }


def decomposition_to_json(summary: decomp.IsotypicSummary, witness=None):
    out = _blocks_to_json(summary)
    out["change_of_basis"] = matrix_to_json(summary.btf.change_of_basis)
    out["block_diagonal"] = decomp.is_block_diagonal(summary.btf)
    if witness is not None:
        out["witness"] = vector_to_json(witness)
    return out


def _bracket_to_json(res: algebra.MinimalCyclicResult):
    """A design's dimension and bounds, as the design and mrb reports carry them."""
    return {
        "r": res.r,
        "lower_bound": res.lower_bound,
        "certified": res.certified,
        "bracket": list(res.bracket),
    }


def design_to_json(rep: switched.DesignReport):
    return dict(
        _bracket_to_json(rep),
        solvable=rep.solvable,
        witness_B=matrix_to_json(rep.witness_B),
        trail=list(rep.trail),
    )


def perturbation_to_json(res: mrb.PerturbationResult):
    out = {
        "eps": scalar_to_json(res.eps),
        "char_coeffs": vector_to_json(res.char.coeffs),
        "flags": dict(res.flags),
    }
    if res.p is not None:
        out["p"] = vector_to_json(res.p)
        out["discriminant"] = scalar_to_json(res.discriminant)
    return out


def mrb_report_to_json(rep: mrb.MrbReport):
    out = {
        "verdict": rep.verdict,
        "control_span_dim": rep.control_span_dim,
        "hautus_verdict_r1": rep.hautus_verdict_r1,
        "notes": list(rep.notes),
    }
    if rep.witness is not None:
        out["witness"] = _witness_to_json(rep.witness)
    if rep.obstruction is not None:
        out["obstruction"] = _locus_point_to_json(*rep.obstruction)
    if rep.decomposition is not None:
        out["decomposition"] = _blocks_to_json(rep.decomposition)
    if rep.perturbation is not None:
        out["perturbation"] = perturbation_to_json(rep.perturbation)
    if rep.design is not None:
        out["design"] = _bracket_to_json(rep.design)
    return out
