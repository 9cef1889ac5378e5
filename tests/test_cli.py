import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclica import hautus
from cyclica.algebra import GeneratorSet, orbit
from cyclica.cli import build_report, corpus_cases, main, rerun_report, run_corpus
from cyclica.linalg import EXACT, Matrix, Subspace
from cyclica.serialize import parse_matrix

GENS_SL2 = {
    "n": 2,
    "backend": "exact",
    "generators": [
        {"rows": 2, "cols": 2, "data": [[0, 1], [0, 0]]},
        {"rows": 2, "cols": 2, "data": [[0, 0], [1, 0]]},
    ],
}

GENS_JORDAN = {
    "n": 3,
    "backend": "exact",
    "generators": [{"rows": 3, "cols": 3, "data": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}],
}

# three copies of the irreducible two-dimensional pair: no cyclic vector,
# empty rank-drop locus, not solvable -> sampling stays undetermined
GENS_THREE_COPIES = {
    "n": 6,
    "backend": "exact",
    "generators": [
        {"rows": 6, "cols": 6,
         "data": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0],
                  [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]]},
        {"rows": 6, "cols": 6,
         "data": [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                  [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]]},
    ],
}

# F1: two doubled upper-triangular generators conjugated by a unimodular
# matrix; the first has the eigenvalue -1 with multiplicity 3 on each copy.
# The minimal cyclic dimension is 2, while the rank-drop locus misses the
# drop at -1 and gives the lower bound 1.
F1_GENERATORS = [
    [[-127, 86, 168, 28, -8, -28], [24, -13, -50, 0, 0, 6], [-62, 42, 85, 12, -4, -14],
     [-114, 74, 168, 19, -6, -26], [334, -222, -482, -60, 19, 76],
     [56, -32, -84, -16, 0, 11]],
    [[-116, 102, 63, 56, -14, -23], [65, -45, -72, -18, 6, 14], [-83, 69, 67, 30, -10, -17],
     [-183, 149, 152, 66, -21, -38], [395, -319, -313, -150, 46, 80],
     [-62, 50, 124, -20, -12, -14]],
]


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_closure_inline_json(capsys):
    code, out, _ = run_cli(capsys, ["closure", "--input", json.dumps(GENS_SL2)])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["dim"] == 4
    assert report["result"]["transitive"] is True
    assert report["schema"] == "v1"


def test_cyclic_vector_with_explicit_vector(capsys):
    payload = {"generators": GENS_JORDAN, "b": [0, 0, 1]}
    code, out, _ = run_cli(capsys, ["cyclic-vector", "--input", json.dumps(payload)])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["certificate"]["verdict"] == "cyclic"


def test_cyclic_vector_search_undetermined_exits_2(capsys):
    payload = {"generators": GENS_THREE_COPIES}
    code, out, _ = run_cli(
        capsys,
        ["cyclic-vector", "--input", json.dumps(payload), "--trials", "4"],
    )
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "inconclusive"
    assert report["result"]["certificate"]["verdict"] == "undetermined"


def test_input_error_exits_1(capsys):
    code, _, err = run_cli(capsys, ["closure", "--input", '{"n": 2}'])
    assert code == 1
    assert "error" in err


def test_bad_json_exits_1(capsys):
    code, _, err = run_cli(capsys, ["closure", "--input", "{not json"])
    assert code == 1


def test_hautus_r_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["hautus", "--r", "1", "--input", json.dumps(GENS_SL2)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "necessary_holds_only"
    assert report["config"]["r"] == 1


def test_hautus_without_generators(capsys):
    code, out, _ = run_cli(
        capsys, ["hautus", "--r", "1", "--input", json.dumps({"n": 2, "generators": []})]
    )
    assert code == 0
    result = json.loads(out)["result"]
    [entry] = result["locus"]["entries"]
    assert entry["mu"] == [] and entry["covectors"]["basis"] == [[1, 0], [0, 1]]
    assert result["locus"]["max_drop"] == 2
    assert result["verdict"] == "no_cyclic_subspace"


def test_hautus_computes_the_locus_once(capsys, monkeypatch):
    calls = []
    original = hautus.rank_drop_locus
    monkeypatch.setattr(hautus, "rank_drop_locus", lambda G: calls.append(G) or original(G))
    for gens, verdict in ((GENS_SL2, "necessary_holds_only"),
                          (GENS_THREE_COPIES, "necessary_holds_only"),
                          ({"n": 2, "generators": []}, "no_cyclic_subspace")):
        calls.clear()
        code, out, _ = run_cli(capsys, ["hautus", "--r", "1", "--input", json.dumps(gens)])
        assert code == 0 and json.loads(out)["result"]["verdict"] == verdict
        assert len(calls) == 1


def test_reports_are_deterministic(capsys):
    args = ["cyclic-vector", "--input", json.dumps({"generators": GENS_JORDAN}),
            "--seed", "7"]
    code1, out1, _ = run_cli(capsys, args)
    code2, out2, _ = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_roundtrip_from_embedded_config():
    config = {"seed": 5, "trials": 16, "tol_rank": 1e-9, "tol_gap": 1e-7,
              "backend": None}
    report = build_report("cyclic-vector", {"generators": GENS_JORDAN}, config)
    again = rerun_report(report)
    assert again == report


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CYCLICA_SEED", "123")
    code, out, _ = run_cli(
        capsys, ["cyclic-vector", "--input", json.dumps({"generators": GENS_JORDAN})]
    )
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 123


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["closure", "--input", json.dumps(GENS_SL2), "--format", "text"],
    )
    assert code == 0
    assert "status: ok" in out and "dim: 4" in out


def test_text_format_on_a_nested_result(capsys):
    code, out, _ = run_cli(
        capsys,
        ["decompose", "--input", json.dumps(GENS_JORDAN), "--format", "text"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["command: decompose", "status: ok"]
    # a list of scalars, and a list of objects whose keys are indented below
    at = lines.index("  block_dims:")
    assert lines[at + 1 : at + 4] == ["    - 1"] * 3
    at = lines.index("  classes:")
    assert lines[at + 1 : at + 3] == ["    -", "      d: 1"]
    assert "      multiplicity: 3" in lines
    assert "  theorem_condition: False" in lines


def test_input_from_a_file_path(tmp_path, capsys):
    source = tmp_path / "generators.json"
    source.write_text(json.dumps(GENS_SL2))
    code, out, _ = run_cli(capsys, ["closure", "--input", str(source)])
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"n": 2, "dim": 4, "transitive": True}
    assert report["config"]["input"] == GENS_SL2


# J e3 = e2, J e2 = e1 for the Jordan shift: e3 is cyclic, span(e1, e2) is
# invariant
E3 = [0, 0, 1]
E1_E2 = [[1, 0, 0], [0, 1, 0]]


def test_orbit_command_with_either_seed(capsys):
    code, out, _ = run_cli(
        capsys, ["orbit", "--input", json.dumps({"generators": GENS_JORDAN, "b": E3})])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["seed_dim"] == 1 and result["full"] is True
    assert result["orbit"]["dim"] == 3

    code, out, _ = run_cli(
        capsys, ["orbit", "--input", json.dumps({"generators": GENS_JORDAN, "B": E1_E2})])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["seed_dim"] == 2 and result["full"] is False
    assert result["orbit"]["basis"] == E1_E2


def test_cyclic_subspace_command_with_either_seed(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cyclic-subspace", "--input", json.dumps({"generators": GENS_JORDAN, "b": E3})])
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["verdict"] == "cyclic" and cert["orbit_dim"] == 3
    assert cert["witness"]["subspace"]["basis"] == [E3]

    code, out, _ = run_cli(
        capsys,
        ["cyclic-subspace", "--input", json.dumps({"generators": GENS_JORDAN, "B": E1_E2})])
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["verdict"] == "not_cyclic" and cert["orbit_dim"] == 2
    assert cert["witness"]["subspace"]["basis"] == E1_E2
    assert cert["obstruction"] == {"covector": E3}


def test_orbit_command_needs_a_seed(capsys):
    code, _, err = run_cli(capsys, ["orbit", "--input", json.dumps({"generators": GENS_JORDAN})])
    assert code == 1 and "input error" in err


def test_unknown_command_is_a_value_error():
    config = {"seed": 0, "trials": 4, "tol_rank": 1e-9, "tol_gap": 1e-7, "backend": None}
    with pytest.raises(ValueError, match="unknown command"):
        build_report("no-such-command", GENS_SL2, config)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["closure", "--input", json.dumps(GENS_SL2), "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["dim"] == 4


def test_backend_override_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["closure", "--input", json.dumps(GENS_SL2), "--backend", "float"],
    )
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 4


def test_decompose_command(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--input", json.dumps(GENS_JORDAN)])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["block_dims"] == [1, 1, 1]
    assert result["theorem_condition"] is False
    assert result["classes"][0]["multiplicity"] == 3


def test_decompose_without_generators(capsys):
    code, out, _ = run_cli(
        capsys, ["decompose", "--input", json.dumps({"n": 2, "generators": []})]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["block_dims"] == [1, 1]
    assert [c["multiplicity"] for c in result["classes"]] == [2]
    assert result["theorem_condition"] is False


def test_mrb_analyze_without_axes(capsys):
    code, out, _ = run_cli(
        capsys, ["mrb", "analyze", "--input", json.dumps({"n": 3, "C": [1, 2, 3], "axes": []})]
    )
    assert code == 0
    analysis = json.loads(out)["result"]["analysis"]
    assert analysis["verdict"] == "no_single_direction"
    assert analysis["obstruction"]["mu"] == []
    assert analysis["obstruction"]["covectors"]["dim"] == 3
    assert analysis["design"]["r"] == 3 and analysis["design"]["certified"] is True


MRB_CONFIG = {"seed": 0, "trials": 64, "tol_rank": 1e-9, "tol_gap": 1e-7, "backend": None}


@pytest.mark.parametrize("include", [True, False])
def test_mrb_analyze_with_damping(include):
    # so(3) with the axis (1, 2): its operator alone generates an algebra
    # whose two-dimensional block is simple over Q(i) but not over C, which
    # the decomposition cannot split; the damping diag(1, 2, 3), once it
    # joins the generators, separates the coordinates
    payload = {"n": 3, "C": [1, 2, 3], "axes": [[1, 2]],
               "D": {"rows": 3, "cols": 3, "data": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
               "include_damping": include}
    report = build_report("mrb analyze", payload, MRB_CONFIG)
    analysis = report["result"]["analysis"]
    assert report["status"] == "ok"
    assert analysis["verdict"] == "reachable_with_additional_control"
    included = "damping included as an algebra generator" in analysis["notes"]
    assert included is include
    if include:
        assert analysis["notes"] == ["damping included as an algebra generator"]
        assert analysis["decomposition"]["block_dims"] == [1, 2]
    else:
        assert "decomposition" not in analysis
        assert analysis["notes"][0].startswith("decomposition inconclusive")


def test_mrb_analyze_three_adjacent_axes_reach_so4():
    payload = {"n": 4, "C": [1, 2, 3, 4], "axes": [[1, 2], [2, 3], [3, 4]]}
    report = build_report("mrb analyze", payload, MRB_CONFIG)
    analysis = report["result"]["analysis"]
    assert analysis["verdict"] == "reachable_with_given_controls"
    assert analysis["control_span_dim"] == 3
    # the witness is the control span S12, S23, S34 itself
    assert analysis["witness"]["subspace"]["basis"] == [
        [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]
    assert "perturbation" not in analysis and "design" not in analysis


def test_corpus_all_pass(capsys):
    config = {"seed": 0, "trials": 64, "tol_rank": 1e-9, "tol_gap": 1e-7,
              "backend": None}
    result, status = run_corpus(config)
    assert status == "ok"
    assert result["all_pass"]
    assert len(result["cases"]) >= 10


def test_corpus_command_exit_zero(capsys):
    code, out, err = run_cli(capsys, ["corpus"])
    assert code == 0
    assert "PASS" in err


def test_design_f1_is_not_certified_without_a_witness():
    payload = {"n": 6, "backend": "exact",
               "generators": [{"rows": 6, "cols": 6, "data": A} for A in F1_GENERATORS]}
    config = {"seed": 0, "trials": 64, "tol_rank": 1e-9, "tol_gap": 1e-7, "backend": None}
    report = build_report("design", payload, config)
    design = report["result"]["design"]
    assert report["status"] == "inconclusive"
    assert design["r"] == 2 and design["certified"] is False
    W = parse_matrix(design["witness_B"], EXACT)
    assert (W.rows, W.cols) == (6, 2)
    cols = W.T.row_vectors()
    G = GeneratorSet(6, [Matrix.exact(A) for A in F1_GENERATORS])
    assert orbit(G, Subspace.from_vectors(6, cols)).is_full()


def test_so5_disjoint_analysis_never_calls_symbolic_factoring(monkeypatch):
    import sympy

    def refuse(*args, **kwargs):
        raise AssertionError("sympy.factor_list called")

    monkeypatch.setattr(sympy, "factor_list", refuse)
    case = next(c for c in corpus_cases() if c["name"] == "mrb_so5_disjoint_analyze")
    config = {"seed": case["seed"], "trials": case["trials"], "tol_rank": 1e-9,
              "tol_gap": 1e-7, "backend": None}
    report = build_report(case["command"], case["input"], config)
    assert report["result"] == case["expected"]
    assert any(note.startswith("decomposition inconclusive")
               for note in report["result"]["analysis"]["notes"])


def test_import_leaves_sympy_unloaded():
    # sympy is imported on the first exact factorization, not with cyclica
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cyclica; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
