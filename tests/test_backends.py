"""The two scalar backends side by side: one Matrix code path for both, and
exact and float answers that must agree on families where both are sound."""

import json

import numpy as np
import pytest

from conftest import random_unimodular, rng
from cyclica import cli
from cyclica.algebra import GeneratorSet, closure, vector_orbit
from cyclica.decomp import block_triangularize
from cyclica.hautus import rank_drop_locus
from cyclica.linalg import EXACT, FLOAT, Matrix
from cyclica.scalars import QQi
from cyclica.serialize import SchemaError, parse_switched_system

BACKENDS = [EXACT, FLOAT]


# ---------------------------------------------------------------------------
# empty shapes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_inner_dimension_product(backend):
    P = Matrix.zeros(2, 0, backend) @ Matrix.zeros(0, 3, backend)
    assert (P.rows, P.cols) == (2, 3)
    assert P.is_zero()
    assert P == Matrix.zeros(2, 3, backend)
    if backend == EXACT:
        assert all(isinstance(P.entry(i, j), QQi) for i in range(2) for j in range(3))


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_transpose_and_apply(backend):
    T = Matrix.zeros(0, 3, backend).T
    assert (T.rows, T.cols) == (3, 0)
    img = Matrix.zeros(4, 0, backend).apply([])
    assert len(img) == 4 and all(x == 0 for x in img)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_blocks_and_identity(backend):
    eye0 = Matrix.identity(0, backend)
    assert (eye0.rows, eye0.cols) == (0, 0)
    one = Matrix.identity(1, backend)
    D = Matrix.block_diag([one, eye0, one.scale(2)], backend)
    assert D == Matrix.from_rows([[1, 0], [0, 2]], backend)


# ---------------------------------------------------------------------------
# exact against float on conjugated block-triangular pairs
# ---------------------------------------------------------------------------

# (X block, Z block) sizes of U [[X, Y], [0, Z]] U^-1, n <= 5
SHAPES = [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3)]


def _block_triangular_pair(r, k, l):
    n = k + l
    U = random_unimodular(r, n)
    U_inv = U.inverse()
    gens = []
    for _ in range(2):
        A = r.integers(-3, 4, size=(n, n))
        A[k:, :k] = 0
        gens.append(U @ Matrix.exact(A.tolist()) @ U_inv)
    return GeneratorSet(n, gens)


def _invariants(G):
    n = G.n
    eye = Matrix.identity(n, G.backend, G.tol)
    return {
        "closure_dim": closure(G).dim,
        "orbit_dims": [vector_orbit(G, eye.row(i)).dim for i in range(n)],
        "block_dims": block_triangularize(G).block_dims,
        "max_drop": rank_drop_locus(G).max_drop,
    }


@pytest.mark.parametrize("index,shape", list(enumerate(SHAPES)))
def test_exact_and_float_agree_on_block_triangular_pairs(index, shape):
    G = _block_triangular_pair(rng(500 + index), *shape)
    assert _invariants(G) == _invariants(G.to_float())


# ---------------------------------------------------------------------------
# command-line and wire format
# ---------------------------------------------------------------------------


def test_failing_corpus_case_reports_failed_and_exits_3(capsys, monkeypatch):
    case = {
        "name": "wrong_expectation",
        "command": "closure",
        "input": {"n": 1, "backend": "exact",
                  "generators": [{"rows": 1, "cols": 1, "data": [[2]]}]},
        "expected": {"n": 1, "dim": 2, "transitive": False},
    }
    monkeypatch.setattr(cli, "corpus_cases", lambda: [case])
    assert cli.main(["corpus"]) == 3
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["status"] == "failed"
    assert report["result"]["all_pass"] is False
    assert report["result"]["cases"][0]["got"] == {"n": 1, "dim": 1, "transitive": True}
    assert "FAIL wrong_expectation" in out.err


def test_unknown_backend_in_switched_system_is_a_schema_error():
    payload = {"n": 1, "backend": "rational",
               "modes": [{"A": {"rows": 1, "cols": 1, "data": [[1]]}}]}
    with pytest.raises(SchemaError, match="unknown backend"):
        parse_switched_system(payload)
