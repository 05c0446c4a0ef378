"""Every bad input ends in its documented exit code and one error line."""

import dataclasses
import json

import pytest

from vqtoeplitz import cli, decomposition as deco
from vqtoeplitz.cli import main

DIRICHLET = {"dimension": 1, "qubits_per_axis": 2, "boundary": {"kind": "dirichlet"}}
UNIFIED = {"dimension": 1, "qubits_per_axis": 2,
           "boundary": {"kind": "unified", "alpha1": 1, "alpha2": 2, "beta1": 3, "beta2": 1}}
BAND = {"n": 4, "coeffs": {"0": 2, "1": -1, "-1": -1}}
SHOTS_PAST_INT64 = str(2**63)  # numpy draws shot counts as C longs


def run(argv):
    """main's exit code, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, payload, code",
    [
        (["toeplitz", "solve"], {"n": 8, "coeffs": {"1": 1}}, 4),
        # tridiag(1, 1, 1) is singular at n = 8 (its leading minors run 1, 0, -1,
        # -1, 0, 1, 1, 0); unscaled, its Gram band overflowed first and exited 2
        (["toeplitz", "solve"], {"n": 8, "coeffs": {"0": 1.5e308, "1": 1.5e308, "-1": 1.5e308}}, 4),
        (["solve-poisson", "--depth", "0"], DIRICHLET, 2),
        (["solve-poisson", "--restarts", "0"], DIRICHLET, 2),
        (["solve-poisson", "--seed", "-1"], DIRICHLET, 2),
        (["verify", "--seed", "-1"], None, 2),
        (["solve-poisson"], [1, 2], 2),
        (["solve-poisson"], dict(DIRICHLET, rhs=[float("nan"), 1, 1, 1]), 2),
        (["solve-poisson"], dict(DIRICHLET, rhs=[float("inf"), 1, 1, 1]), 2),
        (["solve-poisson"], dict(DIRICHLET, qubits_per_axis=1), 2),
        (["toeplitz", "solve"], {"n": 1, "coeffs": {"0": 1}}, 2),
        (["toeplitz", "matvec"], {"n": float("inf"), "coeffs": {"0": 1}}, 2),
        (["toeplitz", "solve"], {"n": 8.7, "coeffs": {"0": 2, "1": -1}}, 2),
        (["toeplitz", "matvec"], {"n": True, "coeffs": {"0": 1}}, 2),
        (["solve-poisson"], dict(DIRICHLET, dimension=True), 2),
        (["solve-poisson"], dict(DIRICHLET, dimension=1.5), 2),
        (["solve-poisson"], dict(DIRICHLET, qubits_per_axis=2.5), 2),
        (["solve-poisson"], dict(DIRICHLET, dimension=2, qubits_per_axis=True), 2),
        (["verify", "--out", "{tmp}/file/out"], None, 2),
        (["solve-poisson"], {"dimension": 2000000, "qubits_per_axis": 1}, 3),
        (["toeplitz", "solve"], {"n": 10**30, "coeffs": {"0": 2}}, 3),
        (["toeplitz", "solve"], {"n": 8, "coeffs": {"1": -1, "01": 5, "0": 2}}, 2),
        (["toeplitz", "solve"], {"n": 8, "coeffs": {"0": "2", "1": -1}}, 2),
        (["toeplitz", "solve"], {"n": 8, "coeffs": {"0": True}}, 2),
        (["toeplitz", "solve"], dict(BAND, rhs=["1", 1, 2, 3]), 2),
        (["toeplitz", "matvec"], dict(BAND, v0=[True, 1, 2, 3]), 2),
        (["solve-poisson"], dict(DIRICHLET, rhs=["1", True, 2, 3]), 2),
        (["solve-poisson"], dict(DIRICHLET, rhs=[1, True, 2, 3]), 2),
        (["solve-poisson"], {**UNIFIED, "boundary": dict(UNIFIED["boundary"], alpha1=True)}, 2),
        (["solve-poisson"], {**UNIFIED, "boundary": dict(UNIFIED["boundary"], beta2="1")}, 2),
        (["solve-poisson", "--shots", SHOTS_PAST_INT64], DIRICHLET, 2),
        (["toeplitz", "matvec", "--shots", SHOTS_PAST_INT64], BAND, 2),
        # alpha2 = beta2 = 1e-17 round c and d to exactly 1: the singular Neumann operator
        (["solve-poisson"],
         {**UNIFIED, "boundary": dict(UNIFIED["boundary"], alpha2=1e-17, beta2=1e-17)}, 4),
    ],
    ids=["singular-band", "huge-singular-band", "depth-0", "restarts-0", "seed-negative", "verify-seed-negative",
         "config-not-object", "rhs-nan", "rhs-infinity", "1d-one-qubit", "band-size-1",
         "band-size-infinity", "band-size-fraction", "band-size-boolean", "dimension-boolean",
         "dimension-fraction", "qubits-fraction", "qubits-boolean", "verify-out-below-file",
         "dimension-two-million", "band-size-huge", "band-offset-twice", "band-coeff-string",
         "band-coeff-boolean", "band-rhs-string", "band-v0-boolean", "rhs-string",
         "rhs-boolean", "boundary-boolean", "boundary-string", "shots-past-int64",
         "matvec-shots-past-int64", "both-corners-round-to-one"],
)
def test_bad_input_exit_code(tmp_path, capsys, argv, payload, code):
    (tmp_path / "file").write_text("a regular file\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    if payload is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        argv += ["--config", str(config)]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in err


def test_one_corner_rounding_to_one_solves(tmp_path):
    # alpha2 = 1e-17 rounds c to exactly 1.0, a Neumann corner; d = 0.9375 keeps A regular
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**UNIFIED, "boundary": dict(UNIFIED["boundary"], alpha2=1e-17)}))
    argv = ["solve-poisson", "--config", str(config), "--restarts", "1", "--out", str(tmp_path)]
    assert run(argv) == 0


@pytest.mark.parametrize(
    "mode, coeffs",
    [
        ("solve", {"0": 1e-13}),
        ("matvec", {"0": 1e-13}),
        ("matvec", {"0": 1.5e308, "1": 1.5e308, "-1": 1.5e308}),
        ("solve", {"0": 1.5e308, "1": -7.5e307, "-1": -7.5e307}),
    ],
    ids=["tiny-band-solve", "tiny-band-matvec", "huge-band-matvec", "huge-band-solve"],
)
def test_band_of_any_scale_solves(tmp_path, mode, coeffs):
    # both modes scale the band by toeplitz.unit_band: the degeneracy checks,
    # the stall rule and the Gram band then see max|t_l| in [1/2, 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 8, "coeffs": coeffs}))
    argv = ["toeplitz", mode, "--config", str(config), "--restarts", "1", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["best_fidelity"] > 0.99


def test_failed_gate_exits_1_before_optimizing(tmp_path, capsys, monkeypatch):
    default_term_lists = cli.default_term_lists

    def perturbed(problem):
        # the first coefficient of the square off by 0.1 %
        a_terms, a2_terms = default_term_lists(problem)
        first, *rest = a2_terms.terms
        bad = deco.DecompositionTerm(first.coefficient * 1.001, first.op)
        return a_terms, dataclasses.replace(a2_terms, terms=(bad, *rest))

    monkeypatch.setattr(cli, "default_term_lists", perturbed)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(DIRICHLET))
    out = tmp_path / "out"
    assert run(["solve-poisson", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: verification failed: "), err
    assert not (out / "trace.csv").exists()
