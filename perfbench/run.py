"""The novabert benchmark: one workload per call, or all three in turn.

    python3 perfbench/run.py --workload ref-train --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the program is imported from ``src/``. Each
workload runs in its own child process (``workloads.py``), so a child killed
for memory or raising ``MemoryError`` / ``TrainingDiverged`` is recorded as
failed operations, and ``peak_rss_mb`` is that child's peak resident set.

With ``--trace 0`` the last line of stdout is one JSON object whose metrics
are the end-to-end metrics in ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer metrics, taken from spans that wrap the program's public
functions (``spans.py``). Lines before it are a table for people, and the
full record, environment included, is written to
``perfbench/out/<workload>-seed<n>-trace<t>.json``. See
``perfbench/README.md`` for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ref-train", "ref-eval", "desk-compare")
# what seq_per_s and op_s_p50 are called on each workload
ALIASES = {"ref-train": ("train_seq_per_s", "train_step_s_p50"),
           "ref-eval": ("eval_users_per_s", "eval_pass_s_p50"),
           "desk-compare": ("train_seq_per_s", "compare_s_p50")}
END_TO_END = (("setup_s", "s"), ("seq_per_s", "seq/s"), ("op_s_p50", "s"),
              ("peak_rss_mb", "MB"))
CHILD_TIMEOUT_S = 170.0   # a run must end within 180 s
PERCENTILES = (99.9, 99, 95, 90, 75)


def blas_threads():
    """BLAS threads for the child: every CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def environment(seed, threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity_cpus": blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "machine": platform.machine(), "git_commit": commit, "seed": seed}


def run_child(workload, seed, seconds, trace, threads):
    """Run one workload in a child; returns (events, exit code, peak MB)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--out", OUT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(CHILD_TIMEOUT_S, kill)
    killer.start()
    events = []
    try:
        for line in proc.stdout:
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                sys.stderr.write(line)
    finally:
        killer.cancel()
        proc.stdout.close()
        # wait4 gives this child's own peak RSS (kB on Linux)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        code = "timeout"
    return events, code, usage.ru_maxrss / 1024


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000)[round(p * 10) - 1]
    return None


def summarise(events, code, peak_mb):
    """Metrics, accounting and a table from one child's events."""
    setup = next((e for e in events if e["event"] == "setup"), None)
    ops = [e for e in events if e["event"] == "op"]
    done = next((e for e in events if e["event"] == "done"), None)
    problems = []
    attempted = 1 + len(ops)           # the warm-up operation counts too
    failed = sum(not o["ok"] for o in ops)
    if setup is None or setup["problems"]:
        failed += 1
        problems += setup["problems"] if setup else ["set-up did not finish"]
    if done is None:
        if code == "timeout":
            why = f"killed after the {CHILD_TIMEOUT_S:g} s guard"
        elif code == -9:
            why = "killed by SIGKILL, most likely for memory"
        else:
            why = f"exit status {code}"
        problems.append(f"child ended early: {why}")
        if setup is not None:          # it died inside a timed operation
            attempted += 1
            failed += 1
    for o in ops:
        problems += [f"op {o['i']}: {p}" for p in o["problems"]]
    for c in (e for e in events if e["event"] == "check"):
        attempted += 1                 # a correctness probe after the loop
        failed += bool(c["problems"])
        problems += c["problems"]
    good = [o for o in ops if o["ok"] and not o.get("traced")]
    times = [o["seconds"] for o in good]
    m = {}
    if setup is not None:
        m["setup_s"] = statistics.median(setup["build_s"]) + setup["warmup_s"]
    if times:
        m["seq_per_s"] = statistics.median(o["seqs"] / o["seconds"]
                                           for o in good)
        m["op_s_p50"] = statistics.median(times)
    m["peak_rss_mb"] = peak_mb
    quality = {}
    last = next((o for o in reversed(ops) if o["ok"]), setup)
    if last is not None:
        quality = {k: tuple(v) for k, v in last["quality"].items()}
    return {"setup": setup, "ops": ops, "done": done,
            "problems": problems, "attempted": attempted, "failed": failed,
            "metrics": m, "quality": quality, "times": times}


def table(workload, s):
    """Human-readable lines: every end-to-end metric with unit and count."""
    m, setup = s["metrics"], s["setup"]
    rows = []
    if "setup_s" in m:
        rows.append(("setup_s", m["setup_s"], "s", len(setup["build_s"]),
                     f"median build {statistics.median(setup['build_s']):.3f}"
                     f" s + warm-up {setup['warmup_s']:.3f} s"))
    if "seq_per_s" in m:
        n = len(s["times"])
        seq_name, op_name = ALIASES[workload]
        rows.append((seq_name, m["seq_per_s"], "seq/s", n,
                     "gated as seq_per_s"))
        tail = tail_percentile(s["times"])
        note = "gated as op_s_p50; " + (
            f"p{tail[0]:g} {tail[1]:.4f} s" if tail
            else "no percentile above p50 has 10 samples beyond it")
        rows.append((op_name, m["op_s_p50"], "s", n, note))
    rows.append(("peak_rss_mb", m["peak_rss_mb"], "MB", 1, "child process"))
    rows.append(("error_rate", s["failed"] / s["attempted"], "ratio",
                 s["attempted"], f"{s['failed']} failed / {s['attempted']} "
                 "attempted, warm-up included"))
    for name, (unit, value) in sorted(s["quality"].items()):
        rows.append((name, value, unit, 1, "last operation"))
    verdict = "PASS" if not s["problems"] else "FAIL"
    lines = [f"== {workload}: correctness {verdict}"]
    lines += [f"   {p}" for p in s["problems"][:20]]
    lines.append(f"   {'metric':<22} {'value':>14} {'unit':<7} {'n':>4}  note")
    for name, value, unit, n, note in rows:
        lines.append(f"   {name:<22} {value:>14.6g} {unit:<7} {n:>4}  {note}")
    return lines


def run_one(workload, seed, seconds, trace, threads, env):
    events, code, peak_mb = run_child(workload, seed, seconds, trace, threads)
    if not any(e["event"] == "started" for e in events):
        raise SystemExit(f"{workload}: the program could not be started "
                         f"(exit code {code}); run from the repository root")
    s = summarise(events, code, peak_mb)
    layers = (s["done"] or {}).get("layers") or {}
    if trace and not layers:
        s["problems"].append("no per-layer metrics (needs at least one "
                             "traced and one untraced operation)")
    lines = table(workload, s)
    if trace:
        units = dict(per_layer_units())
        out_metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in layers.items()}
        lines.append("   per-layer (per step; per batch on ref-eval; set-up "
                     "spans per build); the figures above come from the "
                     "untraced half of the operations:")
        lines += [f"   {k:<40} {v:>14.6g} {units[k]}"
                  for k, v in layers.items()]
    else:
        out_metrics = {name: {"value": s["metrics"].get(name), "unit": unit}
                       for name, unit in END_TO_END}
    correct = not s["problems"] and all(
        v["value"] is not None for v in out_metrics.values())
    result = {"correct": correct, "attempted": s["attempted"],
              "failed": s["failed"], "metrics": out_metrics}
    record = dict(result, workload=workload, seconds=seconds, trace=trace,
                  environment=env, problems=s["problems"],
                  quality={k: {"value": v, "unit": u}
                           for k, (u, v) in s["quality"].items()},
                  setup=s["setup"], ops=s["ops"], child_exit=code)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, lines


def per_layer_units():
    from spans import per_layer_names  # noqa: E402 (needs src/)
    return per_layer_names()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "novabert", "__init__.py")):
        sys.stderr.write(f"no novabert sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    threads = blas_threads()
    env = environment(args.seed, threads)
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        t0 = time.perf_counter()
        result, lines = run_one(name, args.seed, args.seconds,
                                bool(args.trace), threads, env)
        print("\n".join(lines))
        print(f"   ({time.perf_counter() - t0:.1f} s wall)")
        results[name] = result
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
