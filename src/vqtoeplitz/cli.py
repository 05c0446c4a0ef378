"""Batch front door: solve, verify, and export traces.

Subcommands:
    solve-poisson --config problem.json [--depth D --restarts R --seed S
                                         --shots N|exact --out DIR]
    toeplitz solve|matvec --config spec.json [...]
    verify [--out DIR] [--seed S]

Exit codes: 0 ok, 1 verification failure, 2 bad configuration,
3 oracle cap exceeded, 4 degenerate input (zero image).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import decomposition as deco
from .linalg import MAX_DENSE_DIM, DimensionOverflow, ZeroVector, dense_solve, fidelity, normalize
from .poisson import UnsupportedProblem, build_poisson, prepare_b, problem_from_dict
from .toeplitz import NotBanded, ToeplitzSpec, toeplitz_to_dense
from .vqa import (
    AnsatzSpec,
    Cost,
    OptimizerConfig,
    ZeroImage,
    ansatz_state,
    default_term_lists,
    make_matvec_cost,
    make_toeplitz_system_cost,
    matvec_target_state,
    optimize,
)
from .verification import run_verification, term_count_table, verify_problem_terms

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_DEGENERATE = 4


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parse_shots(text: str) -> int | None:
    if text == "exact":
        return None
    shots = int(text)
    if shots < 1:
        raise ValueError("shots must be >= 1 or 'exact'")
    return shots


def _spec_from_config(payload: dict) -> ToeplitzSpec:
    coeffs = {int(k): complex(v) if isinstance(v, str) else v for k, v in payload["coeffs"].items()}
    return ToeplitzSpec(int(payload["n"]), coeffs)


def _vector(payload: dict, key: str, n: int) -> np.ndarray:
    """The normalized ``key`` vector of a banded config; "uniform" if absent."""
    value = payload.get(key, "uniform")
    vec = np.ones(n) if value == "uniform" else np.asarray(value, dtype=float)
    if vec.shape != (n,) or not np.all(np.isfinite(vec)):
        raise ValueError(f"{key} must be 'uniform' or {n} finite numbers")
    return normalize(vec)


def _run_and_report(cost, ansatz, config, reference, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    trace = optimize(cost, ansatz, config, reference_state=reference)
    wall = time.perf_counter() - t0
    best_fidelity = None
    if reference is not None and trace.best_params is not None:
        best_fidelity = fidelity(reference, ansatz_state(ansatz, trace.best_params))
    trace.write_csv(out_dir / "trace.csv")
    summary = {
        "best_cost": float(trace.best_cost),
        "best_fidelity": None if best_fidelity is None else float(best_fidelity),
        "restarts": config.restarts,
        "wall_time": wall,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def cmd_solve_poisson(args) -> int:
    try:
        problem = problem_from_dict(_load_config(args.config))
        shots = _parse_shots(args.shots)
    except (OSError, json.JSONDecodeError, UnsupportedProblem, ZeroVector, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if problem.total_dim > MAX_DENSE_DIM:
        print(
            f"error: problem dimension {problem.total_dim} exceeds the oracle cap; "
            "fidelity reporting is impossible",
            file=sys.stderr,
        )
        return EXIT_CAP

    term_lists = default_term_lists(problem)
    err = verify_problem_terms(problem, term_lists)
    if err > 1e-12:
        print(f"error: term-list reconstruction mismatch {err:.3e}", file=sys.stderr)
        return EXIT_VERIFY

    ansatz = AnsatzSpec(problem.total_qubits, depth=args.depth)
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    b = prepare_b(problem)
    cost = Cost(*term_lists, b, ansatz, shots=shots, seed=args.seed)
    a = build_poisson(problem)
    reference = normalize(dense_solve(a, np.asarray(b)))
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = _run_and_report(cost, ansatz, config, reference, out_dir)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_toeplitz(args) -> int:
    try:
        payload = _load_config(args.config)
        spec = _spec_from_config(payload)
        shots = _parse_shots(args.shots)
        if not spec.is_real:
            raise NotBanded("cost circuits support real bands only")
        num_qubits = spec.n.bit_length() - 1
        if spec.n != 1 << num_qubits:
            raise NotBanded("matrix size must be a power of two")
        vec = _vector(payload, "rhs" if args.mode == "solve" else "v0", spec.n)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, NotBanded, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if spec.n > MAX_DENSE_DIM:
        print("error: size exceeds the oracle cap", file=sys.stderr)
        return EXIT_CAP

    ansatz = AnsatzSpec(num_qubits, depth=args.depth)
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.mode == "solve":
        reference = normalize(dense_solve(toeplitz_to_dense(spec), vec))
        cost = make_toeplitz_system_cost(spec, vec, ansatz, shots=shots, seed=args.seed)
    else:
        reference = matvec_target_state(spec, vec)
        cost = make_matvec_cost(spec, vec, ansatz, shots=shots, seed=args.seed)

    summary = _run_and_report(cost, ansatz, config, reference, out_dir)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    results, ok = run_verification(seed=args.seed, inject_fault=args.inject_fault)
    report = {
        "checks": [r.to_jsonable() for r in results],
        "term_counts": term_count_table(),
        "term_lists": {
            "dirichlet-1d": deco.termlist_to_jsonable(deco.decompose_dirichlet_1d(8)[0]),
            "dirichlet-1d-squared": deco.termlist_to_jsonable(deco.decompose_dirichlet_1d(8)[1]),
        },
        "all_pass": ok,
    }
    out_dir = Path(args.out)
    _write_json(out_dir / "verify-report.json", report)
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: max error {result.max_error:.3e}")
    if not ok:
        failing = [r.name for r in results if not r.passed]
        print(f"error: verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqtoeplitz",
        description="Variational quantum solves for Poisson and banded-Toeplitz problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shots", default="exact", help="shot count per circuit, or 'exact'")
        p.add_argument("--restarts", type=int, default=5)
        p.add_argument("--depth", type=int, default=2)
        p.add_argument("--out", default="out")

    sp = sub.add_parser("solve-poisson", help="variational solve of a Poisson problem")
    sp.add_argument("--config", required=True, help="problem JSON path")
    common(sp)
    sp.set_defaults(func=cmd_solve_poisson)

    tp = sub.add_parser("toeplitz", help="banded-Toeplitz linear algebra")
    tp.add_argument("mode", choices=["solve", "matvec"])
    tp.add_argument("--config", required=True, help="banded spec JSON path")
    common(tp)
    tp.set_defaults(func=cmd_toeplitz)

    vp = sub.add_parser("verify", help="run the invariant suite and write a report")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--out", default="out")
    vp.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    vp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotBanded as exc:  # e.g. a band whose Gram no longer fits the size
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroImage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
