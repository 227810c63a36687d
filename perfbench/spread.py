"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload ref-train --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed, one run at a time, and prints for each metric
the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. This is how the benchmark's
steadiness is judged before it is accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        t0 = time.perf_counter()
        got = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, cwd=ROOT,
            check=False)
        lines = got.stdout.strip().splitlines()
        if not lines:
            sys.stderr.write(got.stderr)
            raise SystemExit(f"seed {seed}: no result (exit {got.returncode})")
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
              f"correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    report = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        report[name] = {"median": med, "iqr_share": (q3 - q1) / med,
                        "bound": bounds[name], "values": vals}
        print(f"{name:<14} median {med:<12.6g} iqr/median "
              f"{(q3 - q1) / med:.4f}  bound {bounds[name]}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
