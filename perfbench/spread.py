#!/usr/bin/env python3
"""Run one workload at several seeds and report, per metric, the median
and the interquartile range as a share of the median (the spread the
BENCHMARK.json bounds are checked against).

    python3 perfbench/spread.py --workload serve-cold --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload serve-cold --seeds 1 2 3 --save a.json
    python3 perfbench/spread.py --workload serve-cold --seeds 1 2 3 --against a.json

--save writes the per-seed values; --against prints, per metric, how far
this set's median is worse than the saved set's, next to its bound.
The run length defaults to BENCHMARK.json's run_seconds.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()
    decl = {m["name"]: m for m in bench["end_to_end"]}
    values = {}
    for seed in a.seeds:
        r = run(a.workload, seed, a.seconds, a.trace)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
              flush=True)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    if a.save:
        with open(a.save, "w") as f:
            json.dump({"workload": a.workload, "seeds": a.seeds, "values": values}, f)
    before = json.load(open(a.against))["values"] if a.against else {}
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        d = decl.get(k)
        b = d["bound"] if d else None
        flag = "" if b is None else ("  ok" if spread < b / 3 else ("  WITHIN" if spread <= b else "  OVER"))
        line = f"{k:28s} median {med:14.6g}  spread {spread:7.4f}  bound {b}{flag}"
        if d and k in before:
            m0 = statistics.median(before[k])
            worse = (med - m0) / m0 if d["better"] == "lower" else (m0 - med) / m0
            line += f"  | vs saved median {m0:.6g}: worse by {worse:+.4f}"
            line += "  ok" if worse <= b else "  OVER"
        print(line)


if __name__ == "__main__":
    main()
