"""Command-line front end.

Subcommands: closure, orbit, cyclic-vector, cyclic-subspace, decompose,
hautus, reach, design, mrb analyze, corpus.  Inputs are JSON (a file path
or an inline literal); reports are JSON objects embedding the full
configuration, so a report can be reproduced byte for byte from itself.

Exit codes: 0 for definite verdicts (including proven negatives), 2 for
"could not decide" (status "inconclusive"), 1 for input errors, and 3 when
``cyclica corpus`` finds a case whose result differs from the frozen
expected one (status "failed").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from . import algebra, decomp, hautus, mrb, serialize, switched
from .linalg import Subspace
from .scalars import DEFAULT_TOL, ToleranceContext
from .serialize import SCHEMA, SchemaError

DEFAULT_TRIALS = 64
EXIT_CODES = {"ok": 0, "inconclusive": 2, "failed": 3}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclica",
        description="cyclicity of matrix algebras, switched-system "
                    "reachability, and rigid-body control design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="path to a JSON file, or an inline JSON literal")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: CYCLICA_SEED env var, else 0)")
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.tau_rank)
        p.add_argument("--tol-gap", type=float, default=DEFAULT_TOL.tau_gap)
        p.add_argument("--backend", choices=["exact", "float"], default=None,
                       help="override the input's scalar backend")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    for name in ("closure", "orbit", "cyclic-vector", "cyclic-subspace",
                 "decompose", "reach", "design"):
        add_common(sub.add_parser(name))
    ph = sub.add_parser("hautus")
    ph.add_argument("--r", type=int, required=True,
                    help="cyclic subspace dimension to test")
    add_common(ph)
    pm = sub.add_parser("mrb")
    msub = pm.add_subparsers(dest="mrb_command", required=True)
    add_common(msub.add_parser("analyze"))
    pc = sub.add_parser("corpus")
    add_common(pc, needs_input=False)
    return parser


def _load_input(text_or_path):
    if text_or_path.lstrip().startswith(("{", "[")):
        return json.loads(text_or_path)
    with open(text_or_path) as fh:
        return json.load(fh)


def _make_config(args):
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("CYCLICA_SEED", "0"))
    tol = ToleranceContext(args.tol_rank, args.tol_gap)  # rejects nonpositive values
    return {
        "seed": seed,
        "trials": args.trials,
        "tol_rank": tol.tau_rank,
        "tol_gap": tol.tau_gap,
        "backend": args.backend,
    }


# ---------------------------------------------------------------------------
# command implementations: each takes (payload, config, tol, r), where r is
# the subspace dimension of hautus and None for the others, and returns
# (result dict, status)
# ---------------------------------------------------------------------------


def _nested_generator_set(payload, config, tol):
    """The generator set of a payload: a bare generator-set object, or one
    nested under 'generators' for commands that take extra fields."""
    if isinstance(payload, dict) and isinstance(payload.get("generators"), dict):
        payload = payload["generators"]
    return serialize.parse_generator_set(payload, config["backend"], tol)


def _cmd_closure(payload, config, tol, r):
    G = serialize.parse_generator_set(payload, config["backend"], tol)
    cl = algebra.closure(G)
    return {
        "n": G.n,
        "dim": cl.dim,
        "transitive": cl.dim == G.n * G.n,
    }, "ok"


def _parse_seed_subspace(payload, G, tol):
    if payload.get("B") is not None:
        vecs = [serialize.parse_vector(v, G.backend, path=f"input.B[{k}]")
                for k, v in enumerate(payload["B"])]
    elif payload.get("b") is not None:
        vecs = [serialize.parse_vector(payload["b"], G.backend, path="input.b")]
    else:
        raise SchemaError("input", "need a seed vector 'b' or spanning set 'B'")
    return Subspace.from_vectors(G.n, vecs, G.backend, tol)


def _cmd_orbit(payload, config, tol, r):
    G = _nested_generator_set(payload, config, tol)
    B = _parse_seed_subspace(payload, G, tol)
    O = algebra.orbit(G, B)
    return {
        "seed_dim": B.dim,
        "orbit": serialize.subspace_to_json(O),
        "full": O.is_full(),
    }, "ok"


def _cmd_cyclic_vector(payload, config, tol, r):
    G = _nested_generator_set(payload, config, tol)
    if payload.get("b") is not None:
        b = serialize.parse_vector(payload["b"], G.backend, path="input.b")
        cert = algebra.is_cyclic_vector(G, b)
    else:
        cert = algebra.find_cyclic_vector(G, trials=config["trials"],
                                          seed=config["seed"])
    status = "inconclusive" if cert.verdict == algebra.UNDETERMINED else "ok"
    return {"certificate": serialize.certificate_to_json(cert)}, status


def _cmd_cyclic_subspace(payload, config, tol, r):
    G = _nested_generator_set(payload, config, tol)
    B = _parse_seed_subspace(payload, G, tol)
    cert = algebra.is_cyclic_subspace(G, B)
    return {"certificate": serialize.certificate_to_json(cert)}, "ok"


def _cmd_decompose(payload, config, tol, r):
    G = serialize.parse_generator_set(payload, config["backend"], tol)
    try:
        btf = decomp.block_triangularize(G, seed=config["seed"])
    except decomp.InconclusiveError as exc:
        return {"error": "inconclusive", "detail": str(exc)}, "inconclusive"
    summary = decomp.classify_blocks(btf)
    witness = None
    if decomp.multiplicity_condition(summary):
        try:
            witness = decomp.construct_cyclic_vector(
                btf, summary, trials=config["trials"], seed=config["seed"]
            )
        except decomp.InconclusiveError:
            witness = None
    return serialize.decomposition_to_json(summary, witness), "ok"


def _cmd_hautus(payload, config, tol, r):
    G = serialize.parse_generator_set(payload, config["backend"], tol)
    locus = hautus.rank_drop_locus(G)
    verdict = hautus.hautus_verdict(G, r, locus=locus)
    return {
        "r": r,
        "locus": serialize.locus_to_json(locus),
        "necessary_holds": locus.max_drop <= r,
        "verdict": verdict,
    }, "ok"


def _cmd_reach(payload, config, tol, r):
    sysm = serialize.parse_switched_system(payload, config["backend"], tol)
    R = switched.reachable_subspace(sysm)
    return {
        "reachable": serialize.subspace_to_json(R),
        "globally_reachable": R.is_full(),
    }, "ok"


def _cmd_design(payload, config, tol, r):
    G = _nested_generator_set(payload, config, tol)
    rep = switched.design_inputs(list(G.gens), trials=config["trials"],
                                 seed=config["seed"], tol=tol)
    status = "ok" if rep.certified else "inconclusive"
    return {"design": serialize.design_to_json(rep)}, status


def _cmd_mrb_analyze(payload, config, tol, r):
    sysm = serialize.parse_mrb_system(payload)
    rep = mrb.analyze(sysm, trials=config["trials"], seed=config["seed"])
    status = "inconclusive" if rep.verdict == "inconclusive" else "ok"
    return {"analysis": serialize.mrb_report_to_json(rep)}, status


_COMMANDS = {
    "closure": _cmd_closure,
    "orbit": _cmd_orbit,
    "cyclic-vector": _cmd_cyclic_vector,
    "cyclic-subspace": _cmd_cyclic_subspace,
    "decompose": _cmd_decompose,
    "hautus": _cmd_hautus,
    "reach": _cmd_reach,
    "design": _cmd_design,
    "mrb analyze": _cmd_mrb_analyze,
}


def run_command(command, payload, config, r=None):
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    tol = ToleranceContext(config["tol_rank"], config["tol_gap"])
    return _COMMANDS[command](payload, config, tol, r)


def _envelope(command, config, result, status):
    """The report around a command's result: everything needed to run it
    again, and its status."""
    return {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "result": result,
        "status": status,
    }


def build_report(command, payload, config, r=None):
    result, status = run_command(command, payload, config, r=r)
    config = dict(config, input=payload, **({"r": r} if r is not None else {}))
    return _envelope(command, config, result, status)


def rerun_report(report):
    """Re-execute a report from its embedded configuration."""
    config = dict(report["config"])
    payload = config.pop("input")
    r = config.pop("r", None)
    return build_report(report["command"], payload, config, r=r)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus_cases():
    base = resources.files("cyclica").joinpath("corpus")
    cases = []
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            cases.append(json.loads(entry.read_text()))
    return cases


def run_corpus(config):
    results = []
    all_pass = True
    for case in corpus_cases():
        case_config = dict(config)
        case_config["seed"] = case.get("seed", config["seed"])
        case_config["trials"] = case.get("trials", config["trials"])
        case_config["backend"] = None
        report = build_report(case["command"], case["input"], case_config,
                              r=case.get("r"))
        passed = report["result"] == case["expected"]
        all_pass &= passed
        results.append({
            "name": case["name"],
            "pass": passed,
            "got": report["result"] if not passed else None,
        })
    return {"cases": results, "all_pass": all_pass}, ("ok" if all_pass else "failed")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_text(report):
    lines = [f"command: {report['command']}", f"status: {report['status']}"]

    def walk(obj, indent):
        pad = "  " * indent
        # "key:" labels an object's fields, in key order, and "-" a list's items
        if isinstance(obj, dict):
            items = [(f"{k}:", obj[k]) for k in sorted(obj)]
        else:
            items = [("-", v) for v in obj]
        for label, v in items:
            if isinstance(v, (dict, list)):
                lines.append(pad + label)
                walk(v, indent + 1)
            else:
                lines.append(f"{pad}{label} {v}")

    walk(report["result"], 1)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _make_config(args)
    command = args.command
    if command == "mrb":
        command = f"mrb {args.mrb_command}"
    try:
        if command == "corpus":
            report = _envelope(command, config, *run_corpus(config))
            for case in report["result"]["cases"]:
                print(("PASS " if case["pass"] else "FAIL ") + case["name"],
                      file=sys.stderr)
        else:
            payload = _load_input(args.input)
            report = build_report(command, payload, config,
                                  r=getattr(args, "r", None))
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = render_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_CODES[report["status"]]


if __name__ == "__main__":
    sys.exit(main())
