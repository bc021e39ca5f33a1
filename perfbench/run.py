"""qprank benchmark: one command that runs a workload, checks its outputs
and prints every metric by name and unit.

    python3 perfbench/run.py --workload ensemble-direct --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload untraced and then traced, one after
the other, so one command prints every metric. A workload runs in a child
process whose environment caps the BLAS thread pools at the number of
usable cores; nothing else about the machine is changed. The last line of
a workload's stdout is its result as one JSON object.

    python3 perfbench/run.py --tier1

times the repository's Tier-1 test command once, with the time of each
acceptance criterion. It is context for the baseline, not a workload.
"""

import argparse
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble-direct", "small-spectral", "cli-ingest")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    caps = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = caps
    return env


def run_workload(argv: list[str]) -> int:
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"perfbench: workload did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def tier1() -> int:
    """Time the Tier-1 command once, and each acceptance criterion within it."""
    report = ROOT / ".bench_work" / "tier1.xml"
    report.parent.mkdir(exist_ok=True)
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--junitxml={report}"]
    start = time.perf_counter()
    code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    cases = ET.parse(report).getroot().iter("testcase")
    times, failed = {}, 0
    for case in cases:
        times[f"{case.get('classname')}::{case.get('name')}"] = float(case.get("time", 0))
        failed += any(child.tag in ("failure", "error") for child in case)
    criteria = {name.split("::")[1]: t for name, t in sorted(times.items())
                if "test_acceptance" in name}
    print(json.dumps({"tier1_wall_s": wall, "exit_code": code, "tests": len(times),
                      "failed": failed, "criteria_s": criteria,
                      "nproc": len(os.sched_getaffinity(0))}, indent=1))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and 64 steps, for the benchmark's own tests")
    parser.add_argument("--capture-reference", action="store_true",
                        help="write the workload's reference outputs at the default seed")
    parser.add_argument("--tier1", action="store_true",
                        help="time the Tier-1 tests once (ungated, not a workload)")
    args = parser.parse_args()
    if args.tier1:
        return tier1()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        return run_workload(sys.argv[1:])
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    codes = [run_workload(["--workload", w, "--trace", str(t), *common])
             for w in WORKLOADS for t in (0, 1)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
