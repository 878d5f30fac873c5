#!/usr/bin/env python3
"""Run the gateway benchmark over several seeds and report its steadiness.

Usage (from the repository root):

    python3 gwbench/steady.py [--workloads a,b,...] [--seeds N] [--first-seed S]
        [--seconds S] [--trace 0|1] [--no-pin] [--stamp FILE]

For every workload it runs `gwbench/run.py` once per seed, then prints for
each metric the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread: the interquartile range as a share of the median. With `--stamp`
it also writes those figures, and every run's value, as a baseline record
stamped with the commit, CPU model, CPU count, affinity, gateway engine
and each run's sample counts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["bulk_shm", "rpc_shm", "rpc_tcp", "sim_paper"]


def run_once(workload, seed, seconds, trace, pin):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if not pin:
        cmd.append("--no-pin")
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({out.returncode}): {out.stderr[-2000:]}")
    header = next((l for l in lines if l.startswith("gwbench:")), "")
    samples = next((l for l in lines if l.startswith("measured:")), "")
    return json.loads(lines[-1]), header, samples


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values),
            "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, cwd=HERE).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--no-pin", action="store_true")
    ap.add_argument("--stamp")
    a = ap.parse_args()
    if "MAD_ENGINE" in os.environ:
        sys.exit("steady.py: MAD_ENGINE is set; unset it so the library default is measured")
    record = {"commit": commit(), "cpu": cpu_model(), "nproc": os.cpu_count(),
              "pinned": not a.no_pin, "seconds": a.seconds, "trace": a.trace,
              "seeds": list(range(a.first_seed, a.first_seed + a.seeds)), "workloads": {}}
    for w in a.workloads.split(","):
        samples, failed, header, wall, counts = {}, 0, "", [], []
        for seed in record["seeds"]:
            t = time.monotonic()
            res, header, measured = run_once(w, seed, a.seconds, a.trace, not a.no_pin)
            wall.append(time.monotonic() - t)
            counts.append(measured)
            failed += res["failed"]
            for name, m in res["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        stats = {name: summarize(v) for name, v in samples.items()}
        record["workloads"][w] = {"runner": header, "failed": failed, "samples_per_run": counts,
                                  "run_wall_s": summarize(wall), "metrics": stats}
        print(f"{w}: {header}  failed={failed}  run wall median {statistics.median(wall):.1f}s")
        for name, s in stats.items():
            print(f"  {name:28s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {100 * s['spread']:.2f}%")
        sys.stdout.flush()
    if a.stamp:
        with open(a.stamp, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
