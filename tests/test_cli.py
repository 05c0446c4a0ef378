"""CLI contract: subcommands, artifacts, exit codes."""

import dataclasses
import json

import pytest

from vqtoeplitz import decomposition as deco
from vqtoeplitz.cli import main

DIRICHLET = {
    "dimension": 1,
    "qubits_per_axis": 2,
    "boundary": {"kind": "dirichlet"},
    "rhs": "uniform",
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


VERIFY_CHECKS = [
    "linalg/dft-unitarity",
    "linalg/shift-diagonalization",
    "toeplitz/embedding-top-left-block",
    "toeplitz/spectral-identity",
    "toeplitz/phase-tower-diagonals",
    "decompose/dirichlet-1d",
    "decompose/unified-1d",
    "decompose/dirichlet-dd",
    "decompose/bracket-counts",
    "circuits/qft-vs-dft",
    "circuits/controlled-shift-blocks",
    "circuits/phase-tower-circuits",
    "circuits/projector-pairs",
    "vqa/cost-vs-dense-hamiltonian",
    "vqa/ansatz-kernel-vs-circuit",
]


def test_verify_passes(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads((out / "verify-report.json").read_text())
    assert [check["name"] for check in report["checks"]] == VERIFY_CHECKS
    assert report["all_pass"] is True
    assert all(check["pass"] for check in report["checks"])
    counts = report["term_counts"]
    assert counts["unified-1d-linear"] == 5
    assert counts["unified-1d-squared"] == 6
    for dim in (1, 2, 3):
        assert counts[f"dirichlet-{dim}d-linear"] == 4 * dim + 1
        assert counts[f"dirichlet-{dim}d-squared"] == 12 * dim * dim
    assert report["term_lists"]["dirichlet-1d"][0]["op"]["kind"] == "toeplitz-band"


def test_verify_fault_injection(tmp_path, capsys, monkeypatch):
    decompose = deco.decompose_unified_1d

    def perturbed(n, c, d):
        # the first coefficient of the square off by 0.1 %
        a_terms, a2_terms = decompose(n, c, d)
        first, *rest = a2_terms.terms
        bad = deco.DecompositionTerm(first.coefficient * 1.001, first.op)
        return a_terms, dataclasses.replace(a2_terms, terms=(bad, *rest))

    monkeypatch.setattr("vqtoeplitz.verification.deco.decompose_unified_1d", perturbed)
    out = tmp_path / "v"
    code = main(["verify", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "decompose/unified-1d" in captured.err
    report = json.loads((out / "verify-report.json").read_text())
    assert report["all_pass"] is False


def test_solve_poisson_artifacts_and_determinism(tmp_path):
    config = write(tmp_path, "problem.json", DIRICHLET)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["solve-poisson", "--config", config, "--seed", "5", "--restarts", "2",
            "--depth", "2"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    sa, sb = read_summary(out_a), read_summary(out_b)
    assert sa["best_fidelity"] > 0.99
    assert sa["restarts"] == 2
    sa.pop("wall_time"), sb.pop("wall_time")
    assert sa == sb
    header = (out_a / "trace.csv").read_text().splitlines()[0]
    assert header == "iteration,restart,cost,fidelity"


def test_solve_poisson_paper_configuration(tmp_path):
    config = write(tmp_path, "p3.json", dict(DIRICHLET, qubits_per_axis=3))
    out = tmp_path / "out3"
    assert main(["solve-poisson", "--config", config, "--out", str(out),
                 "--seed", "3", "--restarts", "5", "--depth", "2"]) == 0
    summary = read_summary(out)
    assert summary["best_fidelity"] > 0.99
    assert summary["best_cost"] < 1e-3


def test_solve_poisson_2d_completes(tmp_path):
    config = write(
        tmp_path,
        "p2.json",
        {"dimension": 2, "qubits_per_axis": 2, "boundary": {"kind": "dirichlet"},
         "rhs": "uniform"},
    )
    out = tmp_path / "out2d"
    assert main(["solve-poisson", "--config", config, "--out", str(out),
                 "--restarts", "2", "--depth", "3", "--seed", "1"]) == 0
    assert (out / "summary.json").exists() and (out / "trace.csv").exists()


def test_solve_poisson_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-poisson", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_solve_poisson_missing_file(tmp_path):
    assert main(["solve-poisson", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_solve_poisson_cap(tmp_path):
    config = write(tmp_path, "big.json", dict(DIRICHLET, qubits_per_axis=13))
    assert main(["solve-poisson", "--config", config, "--out", str(tmp_path / "o")]) == 3


def test_toeplitz_solve_matches_poisson(tmp_path):
    config = write(
        tmp_path, "t.json", {"n": 4, "coeffs": {"0": 2, "1": -1, "-1": -1}, "rhs": "uniform"}
    )
    out = tmp_path / "ts"
    assert main(["toeplitz", "solve", "--config", config, "--out", str(out),
                 "--restarts", "2", "--seed", "3"]) == 0
    assert read_summary(out)["best_fidelity"] > 0.99


def test_toeplitz_matvec(tmp_path):
    config = write(
        tmp_path, "mv.json", {"n": 4, "coeffs": {"0": 1.5, "1": -0.5}, "v0": "uniform"}
    )
    out = tmp_path / "mv"
    assert main(["toeplitz", "matvec", "--config", config, "--out", str(out),
                 "--restarts", "3", "--depth", "3", "--seed", "2"]) == 0
    summary = read_summary(out)
    assert summary["best_fidelity"] > 0.99
    assert summary["best_cost"] < 1e-3


@pytest.mark.parametrize("scale", [1e-15, 1e200])
@pytest.mark.parametrize(
    "argv, payload, key",
    [
        (["solve-poisson"], dict(DIRICHLET, qubits_per_axis=3), "rhs"),
        (["toeplitz", "matvec"], {"n": 8, "coeffs": {"0": 1.5, "1": -0.5}}, "v0"),
    ],
    ids=["poisson-rhs", "matvec-v0"],
)
def test_vector_scale_leaves_solve_unchanged(tmp_path, argv, payload, key, scale):
    # the solve sees only the normalized vector, whatever the scale of its entries
    results = []
    for c in (1.0, scale):
        config = write(tmp_path, "s.json", dict(payload, **{key: [c] * 8}))
        out = tmp_path / f"out-{c}"
        assert main(argv + ["--config", config, "--out", str(out),
                            "--restarts", "1", "--seed", "4"]) == 0
        summary = read_summary(out)
        results.append((summary["best_cost"], summary["best_fidelity"]))
    assert results[1] == results[0]


def test_toeplitz_zero_image(tmp_path):
    config = write(
        tmp_path, "z.json", {"n": 4, "coeffs": {"1": 1.0}, "v0": [0, 0, 0, 1]}
    )
    assert main(["toeplitz", "matvec", "--config", config, "--out", str(tmp_path / "o")]) == 4


def test_toeplitz_band_guard(tmp_path, capsys):
    config = write(tmp_path, "g.json", {"n": 256, "coeffs": {"129": 1.0}, "rhs": "uniform"})
    assert main(["toeplitz", "solve", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "guard" in capsys.readouterr().err


def test_toeplitz_solve_gram_band_too_wide(tmp_path, capsys):
    # K = 2 passes the band guard at n = 4, but T^dag T has band 2K = 4
    config = write(tmp_path, "w.json", {"n": 4, "coeffs": {"0": 2, "2": 1}})
    assert main(["toeplitz", "solve", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_toeplitz_complex_band_rejected(tmp_path):
    config = write(
        tmp_path, "c.json", {"n": 4, "coeffs": {"0": "2+1j"}, "rhs": "uniform"}
    )
    assert main(["toeplitz", "solve", "--config", config, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "mode, key, value",
    [
        ("solve", "rhs", "foo"),
        ("matvec", "v0", "bar"),
        ("solve", "rhs", [1.0, 2.0, 3.0]),
        ("matvec", "v0", [1.0, 0.0, 0.0, 0.0, 0.0]),
        ("solve", "rhs", [0, 0, 0, 0]),
        ("matvec", "v0", [0.0, 0.0, 0.0, 0.0]),
    ],
    ids=["rhs-string", "v0-string", "rhs-length", "v0-length", "rhs-zero", "v0-zero"],
)
def test_toeplitz_bad_vector(tmp_path, capsys, mode, key, value):
    config = write(tmp_path, "v.json", {"n": 4, "coeffs": {"0": 2, "1": -1, "-1": -1}, key: value})
    assert main(["toeplitz", mode, "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_toeplitz_cap(tmp_path):
    config = write(tmp_path, "big.json", {"n": 8192, "coeffs": {"0": 1.0}})
    assert main(["toeplitz", "matvec", "--config", config, "--out", str(tmp_path / "o")]) == 3
