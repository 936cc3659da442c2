"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --seeds 101-110 [--workloads noiseless,snr_sweep]
                            [--trace 1] [--json out.json]

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median and,
for end-to-end metrics, the bound from BENCHMARK.json.  Runs are
sequential so they do not compete for the cores.  ``--json`` also keeps
every run's values and report lines, which is how bench/baseline.json
was recorded.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    summary = {"seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                                     str(SPEC["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                                  timeout=600)
            lines = proc.stdout.strip().split("\n")
            summary.setdefault("env", lines[0])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result, "report": lines[:-1]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else \
                f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:40s} median {median:.6g} {first['unit']} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f}{flag}", flush=True)
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
