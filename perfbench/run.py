"""Benchmark of the vqtoeplitz solver: one workload per call.

    python3 perfbench/run.py --workload paper-1d --seed 0 --seconds 30 --trace 0

Workloads: paper-1d, poisson-2d, mixed-1d-shots (see NOTES.md).
With ``--trace 0`` the run reports the end-to-end metrics, measured in up to
three fresh interpreters in turn and scaled to a reference machine speed
(calibrate.py); with ``--trace 1`` it wraps the package's public functions
in spans and reports per-layer metrics instead, in its own process.  Every
operation is checked against the dense oracle.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record, and the
spans of a traced run, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 3  # measured fresh-interpreter set-ups, after one discarded warm-up
PROBE_TIMEOUT_S = 120
PARTS = 3  # fresh interpreters that measure in turn (--trace 0)
PART_TIMEOUT_S = 150
OVERHEAD_POINTS = 20
OVERHEAD_REPEATS = 5
OVERHEAD_BLOCK_S = 0.25
ORACLE_POINTS = 200
UNIT_ROOTS = ("vqa.optimize", "bench.batch")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_target_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics beyond the per-span ones built from workloads.TRACED
LAYER_UNITS = {
    "vqa.optimize.evals": "count",
    "vqa.optimize.evals_to_target": "count",
    "vqa.optimize.self_s": "s",
    "vqa.cost.p50_ms": "ms",
    "vqa.cost.p99_ms": "ms",
    "vqa.cost.self_s": "s",
    "vqa.oracle.p50_ms": "ms",
    "vqa.cost_over_oracle": "ratio",
    "toeplitz.self_s": "s",
    "toeplitz.calls_per_eval": "count",
    "circuits.shots_per_eval": "count",
    "circuits.estimations_per_eval": "count",
    "decomposition.estimations_per_eval": "count",
    "setup.import_s": "s",
    "poisson.build_s": "s",
    "decomposition.build_s": "s",
    "verification.verify_s": "s",
    "vqa.cost_build_s": "s",
    "linalg.dense_solve_s": "s",
    "trace.overhead_frac": "ratio",
}
ESTIMATORS = ("circuits.exact_bracket", "circuits.bracket", "circuits.projector_expectation")


def per_layer_units(traced_names) -> dict[str, str]:
    units = dict(LAYER_UNITS)
    for name in traced_names:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls_per_eval"] = "count"
    return units


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values) -> str:
    """Median, plus the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    if n == 0:
        return "n=0"
    text = f"median {statistics.median(values):.6g}"
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = n * (1.0 - q / 100.0)
        if beyond >= 10:
            text += f", p{q:g} {percentile(values, q):.6g} ({int(beyond)} beyond)"
            break
    return text + f", n={n}"


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str:
    """HEAD of a git checkout at the repo root, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_pinning": "none: CPUs are not pinned and other load is not kept off them, "
                       "so each value is printed beside its raw samples",
    }


# ---------------------------------------------------------------------------
# set-up probes


def probe_setup(args, cal) -> dict:
    """Fresh interpreter to ready-to-evaluate, timed from spawn to its report line.

    A calibration burst runs just before it.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    cal.burst()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        try:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out") from None
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    report = json.loads(line)
    report["setup_s"] = ready
    return report


# ---------------------------------------------------------------------------
# measurement


def run_part(args, budget: float) -> dict:
    """One measuring part: ``run.py --part`` in a fresh interpreter, for ``budget`` seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(budget), "--part"] + (["--quick"] if args.quick else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("measuring part timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"measuring part failed with exit code {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_parts(args) -> list[dict]:
    """Up to PARTS parts in turn, each given an equal share of the measuring time
    left, while another part as long as the last still fits in ``--seconds``.

    The same code runs a few percent faster or slower from one process to the
    next (memory layout, which CPU it lands on), more so on mixed-1d-shots; a
    run averages over the processes of its parts.  Each part measures at
    least one round, so a workload whose round is longer than a share runs
    fewer parts.
    """
    measured = 0.0
    parts = []
    while len(parts) < PARTS:
        parts.append(run_part(args, (args.seconds - measured) / (PARTS - len(parts))))
        measured += parts[-1]["seconds"]
        if measured + parts[-1]["seconds"] > args.seconds:
            break
    return parts


def trace_overhead(tracer, probe) -> float:
    """Traced over untraced time of the same cost evaluations, minus one.

    Blocks of at least OVERHEAD_BLOCK_S untraced, each followed by the same
    evaluations traced; the median ratio of OVERHEAD_REPEATS pairs.
    """
    points = probe.points[:: max(1, len(probe.points) // OVERHEAD_POINTS)][:OVERHEAD_POINTS]
    ratios = []
    for _ in range(OVERHEAD_REPEATS):
        block = []
        with tracer.paused():
            start = time.perf_counter()
            while time.perf_counter() - start < OVERHEAD_BLOCK_S:
                for x in points:
                    probe.cost(x)
                block.extend(points)
            plain = time.perf_counter() - start
        start = time.perf_counter()
        for x in block:
            tracer.call("vqa.cost", probe.cost, x)
        ratios.append((time.perf_counter() - start) / plain)
    return statistics.median(ratios) - 1.0


def oracle_ms(probe) -> list[float]:
    points = probe.points[:: max(1, len(probe.points) // ORACLE_POINTS)][:ORACLE_POINTS]
    out = []
    for x in points:
        start = time.perf_counter()
        probe.oracle(x)
        out.append(1000.0 * (time.perf_counter() - start))
    return out


def end_to_end(parts, units_of_part, probes, setup_cal) -> tuple[dict, dict]:
    """Metric values, and the raw samples printed beside them.

    Timings are seconds at the calibration kernel's reference speed: the
    raw figure times its calibrator's factor (each part's own, for its
    units).  Solve figures are means over the run's units, as a factor
    comes from the mean kernel time over the same stretch of its part;
    set-up is the median of the probes.
    """
    pairs = [(u, part["factor"]) for part, units in zip(parts, units_of_part) for u in units]
    solve = statistics.fmean(u.seconds * f for u, f in pairs)
    samples = {
        "setup_s": [p["setup_s"] for p in probes],
        "solve_s": [u.seconds for u, _ in pairs],
        "time_to_target_s": [u.time_to_target for u, _ in pairs],
        "evals_per_s": [u.evals / u.seconds for u, _ in pairs if u.seconds > 0],
        "calibration_ms": [1000.0 * t for part in parts for t in part["calibration_s"]],
        "setup_calibration_ms": [1000.0 * t for t in setup_cal.samples],
    }
    values = {
        "setup_s": statistics.median(samples["setup_s"]) * setup_cal.factor(),
        "solve_s": solve,
        "time_to_target_s": statistics.fmean(u.time_to_target * f for u, f in pairs),
        "evals_per_s": statistics.fmean(u.evals for u, _ in pairs) / solve,
        "peak_rss_mb": max(part["rss_mb"] for part in parts),
    }
    return values, samples


def per_layer(tracer, units, workload, probes, traced_names, workload_phases, shots, overhead,
              oracle) -> tuple[dict, dict]:
    own = tracer.self_times()
    unit_of = tracer.nearest(set(UNIT_ROOTS))
    n_units = sum(1 for i, name in enumerate(tracer.names) if name in UNIT_ROOTS and unit_of[i] == i)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    cost_ms = []
    for i, name in enumerate(tracer.names):
        if unit_of[i] < 0:
            continue
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "vqa.cost":
            cost_ms.append(1000.0 * (tracer.ends[i] - tracer.starts[i]))
    n_units = max(n_units, 1)
    n_evals = max(calls.get("vqa.cost", 0), 1)
    toeplitz = [name for name in traced_names if name.startswith("toeplitz.")]
    cost_p50 = statistics.median(cost_ms) if cost_ms else 0.0
    oracle_p50 = statistics.median(oracle) if oracle else 0.0
    values = {
        "vqa.optimize.evals": statistics.median(u.evals for u in units),
        "vqa.optimize.evals_to_target": statistics.median(u.evals_to_target for u in units),
        "vqa.optimize.self_s": sum(self_s.get(r, 0.0) for r in UNIT_ROOTS) / n_units,
        "vqa.cost.p50_ms": cost_p50,
        "vqa.cost.p99_ms": percentile(cost_ms, 99.0) if cost_ms else 0.0,
        "vqa.cost.self_s": self_s.get("vqa.cost", 0.0) / n_units,
        "vqa.oracle.p50_ms": oracle_p50,
        "vqa.cost_over_oracle": cost_p50 / oracle_p50 if oracle_p50 else 0.0,
        "toeplitz.self_s": sum(self_s.get(name, 0.0) for name in toeplitz) / n_units,
        "toeplitz.calls_per_eval": sum(calls.get(name, 0) for name in toeplitz) / n_evals,
        "circuits.shots_per_eval": shots / n_evals,
        "circuits.estimations_per_eval": sum(calls.get(name, 0) for name in ESTIMATORS) / n_evals,
        "decomposition.estimations_per_eval": workload.tally,
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "trace.overhead_frac": overhead,
    }
    for phase in workload_phases:
        values[f"{phase}_s"] = statistics.median(p["phases"].get(phase, 0.0) for p in probes)
    for name in traced_names:
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / n_units
        values[f"{name}.calls_per_eval"] = calls.get(name, 0) / n_evals
    samples = {"vqa.cost.p50_ms": cost_ms, "vqa.oracle.p50_ms": oracle}
    return values, samples


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    # one measuring part of an untraced run: print its units and calibration as JSON
    parser.add_argument("--part", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vqtoeplitz" / "__init__.py").is_file():
        print(f"error: no vqtoeplitz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported, here and in the probes
        os.environ[var] = "1"
    load_before = os.getloadavg()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from calibrate import Calibrator
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    if args.part or args.trace:
        try:
            workload = workloads.make(args.workload, args.seed, args.quick)
            workload.setup(Tracer(enabled=False))
            workload.prepare_checks()
        except workloads.SetupFailed as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
    if args.part:
        cal = Calibrator()
        start = time.perf_counter()
        units = workloads.run_rounds(workload, Tracer(enabled=False), cal, args.seconds)
        seconds = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"units": [dataclasses.asdict(u) for u in units], "seconds": seconds,
                          "factor": cal.factor(), "calibration_s": cal.samples, "rss_mb": rss_mb}))
        return 0

    setup_cal = Calibrator(enabled=not args.trace)  # traced runs report raw times
    try:
        # warm-up, discarded: compiles .pyc files, fills the page cache
        probe_setup(args, Calibrator(enabled=False))
        probes = [probe_setup(args, setup_cal) for _ in range(1 if args.quick else SETUP_PROBES)]
        setup_cal.burst()  # so that each probe has a burst on either side
        parts = [] if args.trace else run_parts(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        tracer.install("vqtoeplitz", workloads.TRACED, workloads.TALLIES)
        units = workloads.run_rounds(workload, tracer, Calibrator(enabled=False), args.seconds)
        shots = tracer.tallies.get("circuits.sample_shots", 0.0)
        probe = workload.probe()
        overhead = trace_overhead(tracer, probe)
        with tracer.paused():
            oracle = oracle_ms(probe)
        tracer.uninstall()
        metrics, samples = per_layer(tracer, units, workload, probes, list(workloads.TRACED),
                                     workloads.SETUP_PHASES, shots, overhead, oracle)
        units_of = per_layer_units(workloads.TRACED)
    else:
        units_of_part = [[workloads.Unit(**u) for u in part["units"]] for part in parts]
        units = [u for part_units in units_of_part for u in part_units]
        metrics, samples = end_to_end(parts, units_of_part, probes, setup_cal)
        units_of = END_TO_END
    attempted = sum(u.attempted for u in units)
    failures = [f for u in units for f in u.failures]
    env = environment()
    env["load_before"] = load_before
    env["load_after"] = os.getloadavg()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env.{key}: {value}")
    if not args.trace:
        factors = ", ".join(f"{part['factor']:.4f}" for part in parts)
        print(f"  (timings in seconds at the reference speed: raw x {factors} for the solves "
              f"of {len(parts)} parts, raw x {setup_cal.factor():.4f} for set-up; solves are "
              f"the mean over units, setup_s the median of the probes; beside each, the raw "
              f"samples)")
    for name, value in metrics.items():
        detail = spread(samples[name]) if name in samples else ""
        print(f"  {name:<44} {value:>14.6g} {units_of[name]:<6} {detail}")
    for name in ("calibration_ms", "setup_calibration_ms"):
        if samples.get(name):
            print(f"  {'(' + name + ', raw)':<44} {'':>14} {'ms':<6} {spread(samples[name])}")
    if not args.trace:
        lat = [1000.0 * (u.seconds / u.evals) for u in units if u.evals]
        print(f"  {'(per-unit ms per evaluation)':<44} {'':>14} {'ms':<6} {spread(lat)}")
        reached = sum(u.reached for u in units)
        print(f"  target cost {workloads.TARGET_COST:g} reached in {reached} of {len(units)} units")
    for name in tracer.absent:
        print(f"  span {name}: absent (no such function in this version)")
    print(f"  ops_attempted={attempted} ops_failed={len(failures)}")
    for failure in failures[:5]:
        print(f"  failed: {failure}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "env": env, "metrics": metrics, "samples": samples,
              "absent": tracer.absent, "failures": failures,
              "units": [dataclasses.asdict(u) for u in units]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_csv(OUT / f"{stem}-spans.csv.gz")

    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": units_of[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
