#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed:

    python3 perfbench/spread.py --workloads train-full,serve-gat --seeds 1-10

For every workload and end-to-end metric it prints the median, the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, the metric's bound from BENCHMARK.json, and whether
the spread stays below a third of that bound. Runs go one after another,
so only one workload loads the machine at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"metrics": {}}
            print("%s seed %d: exit %d, %s" % (
                workload, seed, res.returncode,
                ", ".join("%s %.4g" % (k, v["value"])
                          for k, v in result["metrics"].items())))
            ok &= res.returncode == 0
            if res.returncode == 0:
                runs.append(result)
        if len(runs) < 2:
            print("  %s: fewer than two correct runs" % workload)
            ok = False
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, iqr = spread(values)
            steady = iqr < m["bound"] / 3
            if m["name"] != "setup_s":
                ok &= steady
            print("  %-10s %-18s median %10.4g  spread %6.2f%%  bound %4.0f%%"
                  "  %s" % (workload, m["name"], med, 100 * iqr,
                            100 * m["bound"], "ok" if steady else "WIDE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
