#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Repeat every workload over several seeds and report, for each end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1 as a share of
the median, quartiles as statistics.quantiles(values, n=4) gives them):

    python3 perfbench/steady.py run --seeds 1-10 --out .bench_build/a.json

Compare two such sets (say, the parent commit and a change, or the same
code twice). A metric regresses when its second median is worse than the
first by more than its bound in BENCHMARK.json:

    python3 perfbench/steady.py compare .bench_build/a.json .bench_build/b.json

Both always cover every workload of BENCHMARK.json at its run_seconds.
Exit status: run -> 1 if any run failed or any spread exceeds its bound;
compare -> 1 if any metric regressed, if either set holds a failed run,
or if the two sets differ in seconds, seeds or workloads (they are then
not comparable).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def run_once(spec, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        return None
    return {m["name"]: result["metrics"][m["name"]]["value"]
            for m in spec["end_to_end"]}


def cmd_run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    data, failed, bad = {}, {}, False
    for w in workloads:
        runs = []
        failed[w] = []
        for seed in seeds:
            values = run_once(spec, w, seed, seconds)
            if values is None:
                print(f"{w} seed {seed}: FAILED", flush=True)
                failed[w].append(seed)
                bad = True
                continue
            runs.append(values)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        data[w] = runs
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med, q1, q3, spread = summary([r[name] for r in runs])
            flag = "" if spread <= bound else "  WIDE"
            bad = bad or bool(flag)
            print(f"  {name:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
        print(flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "seeds": seeds, "runs": data,
                       "failed": failed}, f, indent=1)
    return 1 if bad else 0


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    for key in ("seconds", "seeds"):
        if first[key] != second[key]:
            print(f"not comparable: {key} {first[key]} vs {second[key]}")
            return 1
    a, b = first["runs"], second["runs"]
    if set(a) != set(b):
        print(f"not comparable: workloads {sorted(a)} vs {sorted(b)}")
        return 1
    regressed = False
    for w in sorted(a):
        fails = first["failed"][w] + second["failed"][w]
        if fails:
            print(f"{w}: {len(fails)} failed runs (seeds {fails})")
            regressed = True
        if len(a[w]) < 2 or len(b[w]) < 2:
            print(f"{w}: fewer than two successful runs in a set")
            regressed = True
            continue
        print(f"{w}:")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ma = summary([r[name] for r in a[w]])[0]
            mb = summary([r[name] for r in b[w]])[0]
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > bound else "ok"
            regressed = regressed or worse > bound
            print(f"  {name:18} {ma:12.6g} -> {mb:12.6g} "
                  f"({change:+8.2%}, bound {bound:.0%}) {verdict}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="repeat every workload over seeds")
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    r.add_argument("--out", help="write every value as JSON here")
    c = sub.add_parser("compare", help="compare two sets of runs")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
