"""Set-up of one workload in a fresh interpreter, timed phase by phase.

run.py starts this script and times it from spawn to the JSON line it
prints once the workload is ready to evaluate:

    python3 perfbench/setup_probe.py --workload paper-1d --seed 0
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - start
    tracer = Tracer(enabled=True)
    workloads.make(args.workload, args.seed, args.quick).setup(tracer)
    phases = dict.fromkeys(workloads.SETUP_PHASES, 0.0)
    for name, s, e in zip(tracer.names, tracer.starts, tracer.ends):
        phases[name] += e - s
    print(json.dumps({"import_s": import_s, "phases": phases}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
