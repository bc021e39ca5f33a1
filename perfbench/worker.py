"""Runs one workload in this process and prints its result.

Started by ``run.py``, which sets the BLAS thread caps in this process's
environment. The import of the package counts toward set-up time, so it
happens below, after the clock starts. Prints a human-readable report,
then the result as one JSON object on the last line of stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from run import THREAD_VARS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "wall_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB"}


def import_package():
    """Import qprank from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import qprank
    if not Path(qprank.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qprank imported from {qprank.__file__}, not from {SRC}")
    return qprank


def environment(args) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_round(wl, index: int, tracer) -> dict:
    rows = []
    start = time.perf_counter()
    for item in wl.items(index):
        if tracer is not None:
            tracer.request = f"round{index}.{item.key}"
        t = time.perf_counter()
        try:
            raw, error = item.run(), None
        except Exception:  # a failed call is counted, and the loop goes on
            raw, error = None, traceback.format_exc()
        rows.append((item, time.perf_counter() - t, raw, error))
    return {"index": index, "traced": tracer is not None,
            "seconds": time.perf_counter() - start, "rows": rows}


def measure(wl, seconds: float, tracer) -> list[dict]:
    """Rounds until ``seconds`` pass; traced runs alternate untraced and traced rounds."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(run_round(wl, len(rounds), tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and elapsed + elapsed / len(rounds) / 2 > seconds:
            return rounds


def gate(wl, rounds: list[dict], reference) -> tuple:
    """Check every item of every round; returns the checks and round 0's outputs."""
    from workloads import Checks, mismatch, REFERENCE_KINDS
    checks = Checks()
    first_out = {}
    first_raw = {}
    for rnd in rounds:
        outs, raws = {}, {}
        for item, _, raw, error in rnd["rows"]:
            op = checks.op(f"round{rnd['index']}.{item.key}")
            if error is not None:
                checks.expect(op, False, error.strip().splitlines()[-1])
                print(error, file=sys.stderr)
                continue
            try:
                outs[item.key] = wl.outputs(item, raw)
                raws[item.key] = raw
            except Exception as exc:  # unreadable output is a wrong result
                checks.expect(op, False, f"output unreadable: {exc!r}")
        for item, _, raw, error in rnd["rows"]:
            op = f"round{rnd['index']}.{item.key}"
            if item.key not in outs:
                continue
            out = outs[item.key]
            if not first_out:
                try:
                    wl.check(op, item, raw, out, raws, outs, checks)
                except Exception as exc:  # a check that cannot run is a failure
                    checks.expect(op, False, f"check raised {exc!r}")
            elif item.key in first_out:
                for name, value in out.items():
                    if not name.startswith("_"):
                        problem = mismatch(value[0], value[1], first_out[item.key][name][1])
                        checks.expect(op, problem is None,
                                      f"{name} differs from round 0: {problem}")
        if not first_out:
            first_out, first_raw = outs, raws
    outputs = {"inputs": wl.inputs(), **first_out}
    checks.op("inputs")
    if reference is not None:
        for key, named in outputs.items():
            op = "inputs" if key == "inputs" else f"round0.{key}"
            for name, entry in named.items():
                if name.startswith("_") or entry[0] not in REFERENCE_KINDS:
                    continue
                kind, value = entry
                want = reference.get(key, {}).get(name)
                if checks.expect(op, want is not None, f"{key}.{name}: no reference value"):
                    problem = mismatch(kind, value, want[1])
                    checks.expect(op, problem is None, f"{key}.{name} vs reference: {problem}")
    try:
        wl.cross_check(first_raw, first_out, checks)
    except Exception as exc:  # a cross-check that cannot run is a failure
        checks.expect(checks.op("cross-check"), False, f"cross-check raised {exc!r}")
    return checks, outputs


def reference_record(outputs: dict) -> dict:
    from workloads import REFERENCE_KINDS, to_plain
    return {key: {name: [entry[0], to_plain(entry[1])] for name, entry in named.items()
                  if not name.startswith("_") and entry[0] in REFERENCE_KINDS}
            for key, named in outputs.items()}


def end_to_end(wl, rounds, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    graphs = sum(item.graphs for r in plain for item, *_ in r["rows"])
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["seconds"] for r in plain),
        "graphs_per_s": graphs / sum(r["seconds"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind: dict[str, list[float]] = {}
    for r in plain:
        for item, seconds, _, _ in r["rows"]:
            by_kind.setdefault(item.kind, []).append(seconds)
    named = {name: {"value": value, "unit": unit}
             for name, (value, unit) in wl.named_timings(by_kind).items()}
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in metrics.items()}, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        qprank = import_package()
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.capture_reference and (args.smoke or args.seed != workloads.DEFAULT_SEED):
        print("perfbench: references are captured at full size and the default seed",
              file=sys.stderr)
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work_dir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        tracer = tracing.Tracer(qprank) if args.trace else None
        rounds = measure(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        ref_path = REFERENCE / f"{args.workload}.json"
        reference = None
        if args.seed == workloads.DEFAULT_SEED and not args.smoke and not args.capture_reference:
            reference = json.loads(ref_path.read_text(encoding="utf-8"))["outputs"]
        checks, outputs = gate(wl, rounds, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, named = end_to_end(wl, rounds, setup_s, peak_rss_mb)
    report = {
        "environment": environment(args),
        "rounds": {"untraced": sum(not r["traced"] for r in rounds),
                   "traced": sum(r["traced"] for r in rounds)},
        "setup": {"import_s": import_s, "repeats_s": setups},
        "end_to_end": metrics,
        "workload_timings": named,
        "error_rate": {"value": checks.failed / checks.attempted, "attempted": checks.attempted,
                       "failed": checks.failed},
        "failures": checks.failures,
    }
    if tracer is not None:
        traced = [r["seconds"] for r in rounds if r["traced"]]
        layer, absent = tracing.layer_metrics(tracer.spans, tracer.wrapped, len(traced))
        layer["trace.overhead_s"] = {
            "value": statistics.median(traced) - metrics["wall_s"]["value"], "unit": "s"}
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        report.update(per_layer=layer, absent=absent, traced_wall_s=statistics.median(traced),
                      spans=str(trace_path.relative_to(ROOT)))
        metrics = layer
    print(json.dumps(report, indent=1))

    if args.capture_reference and not checks.failures:
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "outputs": reference_record(outputs)}) + "\n",
                            encoding="utf-8")
        print(f"perfbench: wrote {ref_path.relative_to(ROOT)}", file=sys.stderr)

    for op, messages in checks.failures.items():
        print(f"perfbench: FAILED {op}: {'; '.join(messages)}", file=sys.stderr)
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
