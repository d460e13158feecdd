#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 e2ebench/spread.py --workload net-conj --seeds 1-10 [--seconds S]
        [--trace 0] [--bin PATH]

Spread is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their
median. Runs go through the command in BENCHMARK.json, for its
``run_seconds``, unless ``--bin`` names a built benchmark binary or
``--seconds`` another length.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    base = [a.bin] if a.bin else bench["command"]
    seconds = a.seconds or str(bench["run_seconds"])
    values = {}
    for seed in seeds(a.seeds):
        cmd = base + ["--workload", a.workload, "--seed", str(seed),
                      "--seconds", seconds, "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: no result (exit {out.returncode})", file=sys.stderr)
            print(out.stderr[-2000:], file=sys.stderr)
            sys.exit(1)
        ok = result["correct"]
        print(f"seed {seed}: correct={ok} attempted={result['attempted']} failed={result['failed']}")
        if not ok:
            print("\n".join(l for l in out.stdout.splitlines() if "FAIL" in l))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
        print(f"{name:<36} median {med:>14.6g} spread {spread:>8.4f} bound {bound} {flag}")
        print("    " + " ".join(f"{x:.4g}" for x in v))


if __name__ == "__main__":
    main()
