"""dcsparse benchmark: one seeded workload per run, metrics as one JSON line.

    python3 bench/run.py --workload noiseless --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else, so the command fails (exit 2, no result)
where those sources are missing.  BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: set-up
time (median of seven fresh interpreters, each importing dcsparse and
making a first tiny call), cells per second, per-cell time median and
peak RSS; times are at reference speed (see workloads.py).  The per-cell
tail is printed in the report but not gated: across seeds it spreads
about 11% on snr_sweep, too much for a 25% bound.
``--trace 1`` runs the same cells twice, untraced and then traced,
requires every NSE and iteration count to match, and prints the
per-layer metrics.  Lines before the last one are a readable
report: environment, the solver-level details (per-solver medians,
exact-recovery share, NMSE in dB, failed share) and each check.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("noiseless", "snr_sweep", "cli_roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="target measuring time; sets the number of cells")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "small"), default="default",
                        help="problem size; small is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_info():
    """BLAS name, version and thread count as numpy was built and loaded."""
    import ctypes
    import glob

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    return blas.get("name"), blas.get("version"), threads


def setup_seconds(workload, workdir):
    """Median set-up time of fresh interpreters at reference speed, and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw = [], []
    for i in range(SETUP_RUNS):
        probe_dir = workdir / f"setup{i}"
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(probe_dir)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        shutil.rmtree(probe_dir, ignore_errors=True)
        elapsed, speed = map(float, probe.stdout.strip().split("\n")[-1].split())
        raw.append(elapsed)
        times.append(elapsed * speed)
    return statistics.median(times), statistics.median(raw)


def plan_cells(workload, seconds, size):
    from workloads import WORKLOADS
    if size != "default":
        return 1
    return max(1, round(seconds / WORKLOADS[workload].cell_s))


def end_to_end(outcome, setup_s):
    cells = outcome.cell_s
    if not cells:
        return None
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (len(cells) / sum(cells), "1/s"),
        "cell_s_p50": (statistics.median(cells), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report(outcome, label):
    from workloads import tail
    cells = outcome.cell_s
    if cells:
        tail_s, pct = tail(cells)
        print(f"{label}: detail cell_s_tail = {tail_s:.6g} s (p{pct} n={len(cells)})")
        print(f"{label}: as measured, cell median {statistics.median(outcome.raw_cell_s):.6g} s,"
              f" total {sum(outcome.raw_cell_s):.6g} s")
    for name, (value, unit, note) in outcome.details.items():
        print(f"{label}: detail {name} = {value:.6g} {unit} ({note})")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"{label}: detail failed_frac = {frac:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} solves)")
    for name, ok, detail in outcome.checks:
        print(f"{label}: check {name} {'PASS' if ok else 'FAIL'}: {detail}")


def run(args):
    if not (SRC / "dcsparse" / "__init__.py").is_file():
        print(f"error: dcsparse sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dcsparse
    if not Path(dcsparse.__file__).resolve().is_relative_to(SRC):
        print(f"error: dcsparse imported from {dcsparse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    blas_name, blas_version, blas_threads = blas_info()
    print(f"env: numpy {np.__version__}, BLAS {blas_name} {blas_version}, "
          f"BLAS threads {blas_threads}, nproc {os.cpu_count()}, "
          f"affinity {len(os.sched_getaffinity(0))}, python {sys.version.split()[0]}")
    workload = workloads.WORKLOADS[args.workload]
    cells = plan_cells(args.workload, args.seconds, args.size)
    print(f"workload {args.workload}: seed {args.seed}, size {args.size} "
          f"{workloads.SIZES[args.size]}, {cells} planned cells")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s = None
        if not args.trace:
            setup_s, raw_setup_s = setup_seconds(args.workload, workdir)
            print(f"set-up: {raw_setup_s:.6g} s as measured, median of {SETUP_RUNS}")
        workloads.warm(args.workload, workdir)
        plan = workloads.Plan(seed=args.seed, cells=cells, size=args.size, workdir=workdir)
        untraced = workload.run(plan)
        report(untraced, "untraced" if args.trace else "run")
        if not args.trace:
            metrics = end_to_end(untraced, setup_s)
            if metrics is None:
                print("error: no cell completed", file=sys.stderr)
                return 1
            result = {"correct": untraced.correct, "attempted": untraced.attempted,
                      "failed": untraced.failed}
        else:
            metrics, result = traced_run(args, plan, untraced, workload)
            if metrics is None:
                return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


def traced_run(args, plan, untraced, workload):
    import tracing
    import workloads

    with tracing.Tracer() as tracer:
        traced = workload.run(plan)
    report(traced, "traced")
    missing = [name for name in workload.spans if tracer.calls(name) == 0]
    if missing:
        print(f"error: expected spans with zero calls: {', '.join(missing)}", file=sys.stderr)
        return None, None
    ours, theirs = traced.fingerprint(), untraced.fingerprint()
    differing = sum(a != b for a, b in zip(ours, theirs)) + abs(len(ours) - len(theirs))
    print(f"traced: check reproduces_untraced {'FAIL' if differing else 'PASS'}: "
          f"{differing} of {len(theirs)} solves differ in nse, outer or inner iterations")
    overhead = sum(traced.cell_s) / sum(untraced.cell_s) - 1 if untraced.cell_s else 0.0
    n, _, m = workloads.SIZES[args.size]
    values = tracer.metrics(tracing.matvec_pair_us(m, 2 * n), overhead)
    units = tracing.per_layer_units()
    (OUT / f"spans_{args.workload}_seed{args.seed}.json").write_text(
        json.dumps(tracer.table(), indent=1) + "\n")
    result = {"correct": untraced.correct and traced.correct and not differing,
              "attempted": traced.attempted, "failed": traced.failed + differing}
    return {name: (values[name], unit) for name, unit in units.items()}, result


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
