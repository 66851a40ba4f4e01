#!/usr/bin/env python3
"""Collect two interleaved sets of benchmark runs and compare them.

    python3 ifpbench/compare.py collect OUT --base TREE --change TREE
        [--runs 10] [--first-seed 1]
        [--workloads pointer-chase,array-kernels,juliet] [--trace 0|1|both]
    python3 ifpbench/compare.py diff OUT

`collect` takes two checkouts, the base and the change (the same path
twice compares a commit with itself), and runs each one's benchmark
command from its root once per workload, seed and trace mode, with
BENCHMARK.json's run_seconds. The runs are interleaved, so that a slow
drift of the host's speed reaches both sets alike: for every seed it
runs the base and then the change, or the change and then the base,
alternating the side that goes first from seed to seed. Each run's JSON
result is kept as OUT/<base|change>/<workload>/trace<T>-seed<S>.json.

`diff` prints for every metric and workload the median, quartiles and
interquartile range over median of both sets, the ratio of the medians
with its base, and a verdict:

  better      the change wins at least 9 of 10 seed-paired runs and the
              medians differ by more than the base set's interquartile
              range;
  worse       the change's median is worse than the base's by more than
              the metric's bound (per-layer metrics, which have no
              bound: the change loses 9 of 10 pairs by more than the
              base's interquartile range);
  unresolved  either set's interquartile range is wider than the bound;
  unchanged   otherwise.

Bounds and directions come from this checkout's BENCHMARK.json. `diff`
exits 1 when an end-to-end metric is worse or the two sets' shares of
failed operations differ, and 2 when the sets cannot be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def load_spec(tree=ROOT):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    trees = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    specs = {side: load_spec(tree) for side, tree in trees.items()}
    seconds = {spec["run_seconds"] for spec in specs.values()}
    if len(seconds) != 1:
        print("the two checkouts' run_seconds differ; their runs cannot be "
              "compared", file=sys.stderr)
        return 2
    seconds = seconds.pop()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in specs["base"]["workloads"]])
    traces = ["0", "1"] if args.trace == "both" else [args.trace]
    for w in workloads:
        for side in SIDES:
            os.makedirs(os.path.join(args.out, side, w), exist_ok=True)
        for k in range(args.runs):
            seed = args.first_seed + k
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                for t in traces:
                    cmd = specs[side]["command"] + [
                        "--workload", w, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", t]
                    proc = subprocess.run(cmd, cwd=trees[side],
                                          stdout=subprocess.PIPE,
                                          stderr=subprocess.DEVNULL,
                                          text=True)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"{side} {w} seed {seed} trace {t}: run "
                              f"failed (exit {proc.returncode})",
                              file=sys.stderr)
                        return 1
                    path = os.path.join(args.out, side, w,
                                        f"trace{t}-seed{seed}.json")
                    with open(path, "w") as f:
                        f.write(lines[-1] + "\n")
                    print(f"{path}: {lines[-1][:100]}...", flush=True)
    return 0


def load_set(directory):
    """{workload: {trace: {seed: result}}}."""
    out = {}
    for w in sorted(os.listdir(directory)):
        wdir = os.path.join(directory, w)
        if not os.path.isdir(wdir):
            continue
        for name in os.listdir(wdir):
            if not (name.startswith("trace") and name.endswith(".json")):
                continue
            trace, seed = name[len("trace"):-len(".json")].split("-seed")
            with open(os.path.join(wdir, name)) as f:
                out.setdefault(w, {}).setdefault(trace, {})[int(seed)] = \
                    json.load(f)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """Verdict of change set @b against base set @a (seed-paired)."""
    q1a, ma, q3a = quartiles(a)
    sign = 1 if better == "lower" else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    mb = statistics.median(b)
    moved = abs(mb - ma) > q3a - q1a
    if bound is None:
        if moved and wins >= 0.9 * len(pairs):
            return "better"
        if moved and losses >= 0.9 * len(pairs):
            return "worse"
        return "unchanged"
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if worse_by > bound:
        return "worse"
    if moved and wins >= 0.9 * len(pairs):
        return "better"
    if max(iqr_share(a), iqr_share(b)) > bound:
        return "unresolved"
    return "unchanged"


def summary(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] {iqr_share(values):6.1%}"


def diff(args):
    spec = load_spec()
    base, change = (load_set(os.path.join(args.out, side)) for side in SIDES)
    groups = [("0", spec["end_to_end"]), ("1", spec["per_layer"])]
    status = 0
    compared = 0
    for w in sorted(set(base) & set(change)):
        for trace, metrics in groups:
            seeds = sorted(set(base[w].get(trace, {})) &
                           set(change[w].get(trace, {})))
            if not seeds:
                continue
            ra = [base[w][trace][s] for s in seeds]
            rb = [change[w][trace][s] for s in seeds]
            fa = {r["failed"] / r["attempted"] for r in ra}
            fb = {r["failed"] / r["attempted"] for r in rb}
            correct = all(r["correct"] for r in ra + rb)
            print(f"\n== {w} ({'end-to-end' if trace == '0' else 'per-layer'}"
                  f"; {len(seeds)} seed-paired runs; failed share "
                  f"{sorted(fa)} vs {sorted(fb)}; all correct: {correct})")
            if fa != fb or len(fa) != 1 or not correct:
                status = 1
            print(f"{'metric':36s} {'unit':6s} "
                  f"{'base median [q1, q3] iqr/median':44s} "
                  f"{'change median [q1, q3] iqr/median':44s} "
                  f"{'change/base':>11s}  {'(base)':16s} verdict")
            for m in metrics:
                if not all(m["name"] in r["metrics"] for r in ra + rb):
                    continue
                a = [r["metrics"][m["name"]]["value"] for r in ra]
                b = [r["metrics"][m["name"]]["value"] for r in rb]
                compared += 1
                ma = statistics.median(a)
                ratio = f"{statistics.median(b) / ma:.4f}" if ma else "n/a"
                v = verdict(a, b, m["better"], m.get("bound"))
                if trace == "0" and v == "worse":
                    status = 1
                print(f"{m['name']:36s} {m['unit']:6s} {summary(a):44s} "
                      f"{summary(b):44s} {ratio:>11s}  "
                      f"{f'(base {ma:.6g})':16s} {v}")
    if compared == 0:
        print("no workload with seed-paired runs in both sets",
              file=sys.stderr)
        return 2
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--base", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads")
    c.add_argument("--trace", choices=["0", "1", "both"], default="0")
    d = sub.add_parser("diff")
    d.add_argument("out")
    args = p.parse_args()
    return {"collect": collect, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
