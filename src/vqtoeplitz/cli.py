"""Batch front door: solve, verify, and export traces.

Subcommands:
    solve-poisson --config problem.json [--depth D --restarts R --seed S
                                         --shots N|exact --out DIR]
    toeplitz solve|matvec --config spec.json [...]
    verify [--out DIR] [--seed S]

Exit codes: 0 ok, 1 verification failure, 2 bad configuration (any
malformed input), 3 oracle cap exceeded, 4 degenerate input (zero image
or singular matrix).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import decomposition as deco
from .linalg import (
    MAX_DENSE_DIM,
    DimensionOverflow,
    SingularMatrix,
    check_dense,
    dense_solve,
    normalize,
    num_qubits,
    real_array,
)
from .poisson import build_poisson, prepare_b, problem_from_dict
from .toeplitz import ToeplitzSpec, toeplitz_to_dense, unit_band
from .vqa import (
    AnsatzSpec,
    Cost,
    OptimizerConfig,
    ZeroImage,
    default_term_lists,
    make_matvec_cost,
    make_toeplitz_system_cost,
    matvec_target_state,
    optimize,
)
from .verification import GATE_TOL, run_verification, term_count_table, verify_problem_terms

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_DEGENERATE = 4


class TermMismatch(Exception):
    """A problem's term lists do not reconstruct its operator."""


# What a solve's setup may raise, and its exit code: the first matching row
# wins, so the specific ValueErrors come before the generic ones.
ERRORS = (
    ((TermMismatch,), EXIT_VERIFY, "verification failed"),
    ((DimensionOverflow,), EXIT_CAP, "oracle cap exceeded"),
    ((ZeroImage, SingularMatrix), EXIT_DEGENERATE, "degenerate input"),
    ((OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError),
     EXIT_CONFIG, "invalid configuration"),
)
_HANDLED = tuple(cls for classes, _, _ in ERRORS for cls in classes)


def _fail(exc: Exception) -> int:
    """Print the one error line of a handled fault and return its exit code."""
    code, label = next((c, l) for classes, c, l in ERRORS if isinstance(exc, classes))
    print(f"error: {label}: {exc}", file=sys.stderr)
    return code


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _vector(payload: dict, key: str, n: int) -> np.ndarray:
    """The normalized ``key`` vector of a banded config; "uniform" if absent."""
    value = payload.get(key, "uniform")
    vec = np.ones(n) if value == "uniform" else real_array(value, f"each {key} entry")
    if vec.shape != (n,):
        raise ValueError(f"{key} must be 'uniform' or {n} numbers")
    return normalize(vec)


def cmd_solve_poisson(args, payload: dict, shots):
    """Setup of ``solve-poisson``: problem -> term lists -> pre-solve gate ->
    cost -> dense reference solution."""
    problem = problem_from_dict(payload)
    cap = MAX_DENSE_DIM.bit_length() - 1
    if problem.total_qubits > cap:  # before n**d and the term lists, which grow as d^2
        raise DimensionOverflow(
            f"problem needs {problem.total_qubits} qubits; the dense cap is {cap}"
        )
    term_lists = default_term_lists(problem)
    err = verify_problem_terms(problem, term_lists)
    if not err <= GATE_TOL:
        raise TermMismatch(f"term-list reconstruction mismatch {err:.3e}")
    ansatz = AnsatzSpec(problem.total_qubits, depth=args.depth)
    b = prepare_b(problem)
    cost = Cost(*term_lists, b, ansatz, shots=shots, seed=args.seed)
    reference = normalize(dense_solve(build_poisson(problem), b))
    return cost, ansatz, reference


def cmd_toeplitz(args, payload: dict, shots):
    """Setup of ``toeplitz solve|matvec``: band -> ``unit_band`` -> vector ->
    cost -> classical reference (the dense solve, or the normalized image
    T|v0>), both from the scaled band."""
    keys = _object(payload["coeffs"], "coeffs")
    coeffs = {int(key): value for key, value in keys.items()}
    if len(coeffs) != len(keys):
        raise ValueError(f"two keys of {list(keys)} name the same offset")
    # one scale for the cost and the reference: the Gram band, ||T v0|| and
    # the dense LU then stay in range, and 2^j T runs as T does
    spec = unit_band(ToeplitzSpec(payload["n"], coeffs))
    check_dense(spec.n, "size")  # before the vector and the cost are built
    vec = _vector(payload, "rhs" if args.mode == "solve" else "v0", spec.n)
    ansatz = AnsatzSpec(num_qubits(vec), depth=args.depth)
    if args.mode == "solve":
        cost = make_toeplitz_system_cost(spec, vec, ansatz, shots=shots, seed=args.seed)
        reference = normalize(dense_solve(toeplitz_to_dense(spec), vec))
    else:
        cost = make_matvec_cost(spec, vec, ansatz, shots=shots, seed=args.seed)
        reference = matvec_target_state(spec, vec)
    return cost, ansatz, reference


def cmd_solve(args) -> int:
    """The run path of every solve subcommand.  Reading the input and the
    setup sit inside the one error boundary; the optimization and the report
    sit outside it, so a fault there keeps its traceback."""
    try:
        shots = None if args.shots == "exact" else int(args.shots)
        with open(args.config) as fh:
            payload = _object(json.load(fh), "the configuration")
        cost, ansatz, reference = args.setup(args, payload, shots)
        config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except _HANDLED as exc:
        return _fail(exc)

    t0 = time.perf_counter()
    trace = optimize(cost, ansatz, config, reference_state=reference)
    wall = time.perf_counter() - t0
    # optimize records the fidelity of each restart's best point as it goes
    best_fidelity = next((rec.fidelity for rec in reversed(trace.records)
                          if rec.restart == trace.best_restart), None)
    trace.write_csv(out_dir / "trace.csv")
    summary = {
        "best_cost": float(trace.best_cost),
        "best_fidelity": best_fidelity,
        "restarts": config.restarts,
        "wall_time": wall,
    }
    _write_json(out_dir / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    results, ok = run_verification(seed=args.seed)
    a_terms, a2_terms = deco.decompose_dirichlet_1d(8)
    report = {
        "checks": [r.to_jsonable() for r in results],
        "term_counts": term_count_table(),
        "term_lists": {
            "dirichlet-1d": deco.termlist_to_jsonable(a_terms),
            "dirichlet-1d-squared": deco.termlist_to_jsonable(a2_terms),
        },
        "all_pass": ok,
    }
    try:
        _write_json(Path(args.out) / "verify-report.json", report)
    except _HANDLED as exc:
        return _fail(exc)
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: max error {result.max_error:.3e}")
    if not ok:
        failing = [r.name for r in results if not r.passed]
        print(f"error: verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _seed(text: str) -> int:
    """argparse type of ``--seed``: numpy seeds are non-negative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqtoeplitz",
        description="Variational quantum solves for Poisson and banded-Toeplitz problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--shots", default="exact", help="shot count per circuit, or 'exact'")
        p.add_argument("--restarts", type=int, default=5)
        p.add_argument("--depth", type=int, default=2)
        p.add_argument("--out", default="out")

    sp = sub.add_parser("solve-poisson", help="variational solve of a Poisson problem")
    sp.add_argument("--config", required=True, help="problem JSON path")
    common(sp)
    sp.set_defaults(func=cmd_solve, setup=cmd_solve_poisson)

    tp = sub.add_parser("toeplitz", help="banded-Toeplitz linear algebra")
    tp.add_argument("mode", choices=["solve", "matvec"])
    tp.add_argument("--config", required=True, help="banded spec JSON path")
    common(tp)
    tp.set_defaults(func=cmd_solve, setup=cmd_toeplitz)

    vp = sub.add_parser("verify", help="run the invariant suite and write a report")
    vp.add_argument("--seed", type=_seed, default=0)
    vp.add_argument("--out", default="out")
    vp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
