"""Property: whatever configuration the CLI reads, it ends in a documented
exit code and never raises."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vqtoeplitz import cli

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
# bad vectors: non-finite entries, or the wrong length
BAD_VECTORS = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5)
# integer fields hold JSON integers: anything else is rejected, never truncated
INTEGER_FIELDS = ("n", "dimension", "qubits_per_axis")


def not_integer(value: int):
    """A bool, or ``value`` as a float, bare or plus a fraction: both truncate
    back to ``value``."""
    return st.one_of(st.booleans(), st.sampled_from([0.7, 0.5, 0.0]).map(lambda f: value + f))


def vectors(n: int):
    """"uniform", or n numbers when n is small."""
    if n > 16:
        return st.just("uniform")
    return st.one_of(st.just("uniform"), st.lists(NUMBERS, min_size=n, max_size=n))


def corrupted(payload: dict, vector_key: str):
    """The payload as it is (half the time), or with one fault: a key
    missing, a value of the wrong type, a bad vector, or an integer field
    that is not an integer."""
    keys = st.sampled_from(sorted(payload))
    integer_keys = st.sampled_from([key for key in INTEGER_FIELDS if key in payload])
    non_integers = integer_keys.flatmap(
        lambda key: not_integer(payload[key]).map(lambda v: {**payload, key: v})
    )
    return st.one_of(
        st.just(payload),
        st.just(payload),
        st.just(payload),
        st.just(payload),
        keys.map(lambda key: {k: v for k, v in payload.items() if k != key}),
        st.tuples(keys, JUNK).map(lambda kv: {**payload, kv[0]: kv[1]}),
        BAD_VECTORS.map(lambda vec: {**payload, vector_key: vec}),
        non_integers,
    )


@st.composite
def poisson_payloads(draw):
    # grids within the 4096-point cap, past it, and without any points
    dimension, qubits = draw(st.sampled_from(
        [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (1, 1), (1, 13), (2, 7), (3, 5), (0, 2), (1, 0)]
    ))
    unified = {"kind": "unified", "alpha1": 1.0, "alpha2": 2.0, "beta1": 3.0, "beta2": 1.0}
    payload = {
        "dimension": dimension,
        "qubits_per_axis": qubits,
        "boundary": draw(st.sampled_from([{"kind": "dirichlet"}, unified])),
        "rhs": draw(vectors(2 ** (dimension * qubits))),
    }
    return ["solve-poisson"], draw(corrupted(payload, "rhs"))


@st.composite
def banded_payloads(draw):
    mode = draw(st.sampled_from(["solve", "matvec"]))
    # the cap (4096) in matvec mode only: a solve there is a 4096^2 dense LU
    sizes = [2, 4, 8, 8, 1, 6, 8192, 2**40] + ([4096] if mode == "matvec" else [])
    n = draw(st.sampled_from(sizes))
    coeffs = draw(st.dictionaries(st.sampled_from(["0", "1", "-1", "2", "-2"]), NUMBERS,
                                  min_size=1, max_size=3))
    key = "rhs" if mode == "solve" else "v0"
    payload = {"n": n, "coeffs": coeffs, key: draw(vectors(n))}
    return ["toeplitz", mode], draw(corrupted(payload, key))


OPTIMIZE = cli.optimize


def _quick_optimize(cost, ansatz, config, reference_state):
    """The real optimizer, stopped after four evaluations per restart."""
    short = dataclasses.replace(config, max_iters=4)
    return OPTIMIZE(cost, ansatz, short, reference_state=reference_state)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.one_of(poisson_payloads(), banded_payloads()),
    top_level=st.sampled_from(["object"] * 5 + ["list", "number", "truncated"]),
    shots=st.sampled_from(["exact"] * 3 + ["64", "0", "many"]),
)
def test_any_configuration_ends_in_a_documented_code(case, top_level, shots):
    command, payload = case
    text = {
        "object": json.dumps(payload),
        "list": json.dumps(list(payload.values())),
        "number": "7",
        "truncated": json.dumps(payload)[:-1],
    }[top_level]
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(cli, "optimize", _quick_optimize),
    ):
        config = Path(tmp) / "config.json"
        config.write_text(text)
        argv = command + ["--config", str(config), "--out", str(Path(tmp) / "out"),
                          "--restarts", "1", "--depth", "1", "--shots", shots]
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CAP, cli.EXIT_DEGENERATE)
    if any(isinstance(payload.get(key), (bool, float)) for key in INTEGER_FIELDS):
        assert code == cli.EXIT_CONFIG, payload


@st.composite
def scaled_bands(draw):
    """A band on 4 or 8 points and a power of two 2^j that keeps every
    coefficient finite and normal: frexp exponents within [-1021, 1024]."""
    n = draw(st.sampled_from([4, 8]))
    coeffs = draw(st.dictionaries(st.sampled_from(["0", "1", "-1"]),
                                  st.one_of(st.floats(-3.0, -1e-3), st.floats(1e-3, 3.0)),
                                  min_size=1))
    exponents = [math.frexp(t)[1] for t in coeffs.values()]
    return n, coeffs, draw(st.integers(-1021 - min(exponents), 1024 - max(exponents)))


def _toeplitz_run(tmp: Path, mode: str, payload: dict):
    """The exit code, trace.csv and summary.json (less its wall time) of one
    ``toeplitz`` run with one restart."""
    config = tmp / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp / "out"
    code = cli.main(["toeplitz", mode, "--config", str(config), "--out", str(out),
                     "--restarts", "1"])
    if code != cli.EXIT_OK:
        return code, None, None
    summary = json.loads((out / "summary.json").read_text())
    del summary["wall_time"]
    return code, (out / "trace.csv").read_bytes(), summary


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(band=scaled_bands(), mode=st.sampled_from(["solve", "matvec"]))
def test_scaled_band_runs_alike(band, mode):
    # toeplitz.unit_band maps T and 2^j T to the same band, so both runs match
    n, coeffs, j = band
    scaled = {l: math.ldexp(t, j) for l, t in coeffs.items()}
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as tmp_scaled:
        assert (_toeplitz_run(Path(tmp), mode, {"n": n, "coeffs": coeffs})
                == _toeplitz_run(Path(tmp_scaled), mode, {"n": n, "coeffs": scaled}))
