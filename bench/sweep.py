"""Repeat the benchmark over consecutive seeds, twice, and summarize it.

    python3 bench/sweep.py --runs 10 --first-seed 100 --out bench/BENCH_0.json

For every workload this makes two sets of ``--runs`` untraced runs over the
same seeds, one run per seed, the second set after the first, and one
traced run at the first seed. Each run is a separate ``run.py`` process.
For each end-to-end metric and set it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance over the median. It also reports the shift, the
second set's median over the first's, minus 1, which is what a regression
gate at these seeds compares with the metric's bound in BENCHMARK.json,
and whether the two sets read the same at every seed, as the accuracy
metrics should.
It exits non-zero if any run fails its checks.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)}: checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def _versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for _ in range(2):
        values = {w: {} for w in workloads}
        for seed in seeds:  # workloads interleaved, so machine drift hits each alike
            for w in workloads:
                for k, v in run_once(w, seed, spec["run_seconds"], False).items():
                    values[w].setdefault(k, []).append(v)
        sets.append(values)
    summary = {}
    for w in workloads:
        rows = {}
        for k in sets[0][w]:
            first, second = (summarize(s[w][k]) for s in sets)
            shift = second["median"] / first["median"] - 1 if first["median"] else 0.0
            rows[k] = {"unit": e2e[k]["unit"], "better": e2e[k]["better"],
                       "bound": e2e[k]["bound"], "shift": shift,
                       "same_per_seed": first["values"] == second["values"],
                       "sets": [first, second]}
            print(f"{w:15s} {k:16s} median {first['median']:10.4g} {second['median']:10.4g} "
                  f"{e2e[k]['unit']:6s} spread {first['spread']:6.3f} {second['spread']:6.3f} "
                  f"shift {shift:+7.3f} (bound {e2e[k]['bound']})"
                  f"{' same per seed' if rows[k]['same_per_seed'] else ''}")
        summary[w] = {"end_to_end": rows, "per_layer_seed": seeds[0],
                      "per_layer": run_once(w, seeds[0], spec["run_seconds"], True)}
    if args.out:
        doc = {
            "machine": {"cpus": os.cpu_count(), "arch": platform.machine(), **_versions()},
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
