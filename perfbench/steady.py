"""Repeat the benchmark over seeds and report whether it is steady.

    python3 perfbench/steady.py --out A.json
    python3 perfbench/steady.py --compare A.json B.json

The first form runs `run.py` once per workload of BENCHMARK.json and seed
1-10 (untraced), then once per workload and seed 1-2 (traced), one process
at a time, from the root of the checkout. For each end-to-end metric it prints the median, the
quartiles from `statistics.quantiles(values, n=4)` and the spread (their
distance as a share of the median), next to the metric's bound in
BENCHMARK.json. It writes all of it, the per-layer table (medians over the
traced runs) and the exact counts per seed to the `--out` file.

The second form checks two such files of the same code against each other:
no end-to-end median may be worse in the second by more than its bound, and
every exact count must repeat exactly for every seed both files ran.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = tuple(range(1, 11))
TRACE_SEEDS = (1, 2)
# counts that must repeat exactly between runs of the same code and seed
EXACT = ("vit.encoder_calls", "vit.head_calls", "pseudolabel.sinkhorn_calls",
         "tensor.nodes_per_iter", "tensor.nodes_per_encode_batch",
         "ema.updates_per_iter", "checkpoint.bytes")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, env


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def measure(out_path, bench):
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "seeds": SEEDS, "trace_seeds": TRACE_SEEDS,
           "workloads": {}}
    steady = True
    for w in (w["name"] for w in bench["workloads"]):
        runs, traced, counts, env = [], [], {}, None
        attempted = failed = 0
        for trace, seed_set in ((0, SEEDS), (1, TRACE_SEEDS)):
            for seed in seed_set:
                code, res, env = run_once(w, seed, seconds, trace)
                if res is None:
                    print(f"{w} seed {seed} trace {trace}: no result (exit {code})")
                    steady = False
                    continue
                attempted += res["attempted"]
                failed += res["failed"]
                if not res["correct"]:
                    print(f"{w} seed {seed} trace {trace}: correct=false")
                    steady = False
                    continue
                vals = {k: m["value"] for k, m in res["metrics"].items()}
                if trace:
                    traced.append(vals)
                    counts[str(seed)] = {k: vals[k] for k in EXACT}
                else:
                    runs.append(vals)
                print(f"{w} seed {seed} trace {trace}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in sorted(vals.items())
                    if trace == 0 or k.startswith("trace.")), flush=True)
        entry = {"env": env, "attempted": attempted, "failed": failed,
                 "end_to_end": {}, "per_layer": {}, "exact_counts": counts}
        for m in bench["end_to_end"]:
            if len(runs) < 2:
                break
            s = summarize([r[m["name"]] for r in runs])
            s["bound"] = m["bound"]
            entry["end_to_end"][m["name"]] = s
            ok = s["spread"] <= m["bound"] / 3
            steady &= ok
            print(f"  {w:18s} {m['name']:14s} median {s['median']:12.4f} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread "
                  f"{s['spread']:.4f} bound {m['bound']}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        for m in bench["per_layer"]:
            if traced:
                entry["per_layer"][m["name"]] = statistics.median(
                    t[m["name"]] for t in traced)
        out["workloads"][w] = entry
    out["steady"] = steady
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


def load(path):
    with open(path) as fh:
        return json.load(fh)


def compare(paths, bench):
    a, b = (load(p) for p in paths)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w, ea in a["workloads"].items():
        eb = b["workloads"].get(w)
        if eb is None:
            continue
        for name, sa in ea["end_to_end"].items():
            sb = eb["end_to_end"][name]
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if spec[name]["better"] == "lower" else -change
            good = worse <= spec[name]["bound"]
            ok &= good
            print(f"{w:18s} {name:14s} {sa['median']:12.4f} -> "
                  f"{sb['median']:12.4f} ({100 * change:+.2f}%, bound "
                  f"{100 * spec[name]['bound']:.0f}%){'' if good else '  <-- worse'}")
        for seed, ca in ea["exact_counts"].items():
            cb = eb["exact_counts"].get(seed)
            if cb is not None and ca != cb:
                ok = False
                print(f"{w} seed {seed}: exact counts differ: {ca} vs {cb}")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=None)
    p.add_argument("--compare", nargs=2, metavar="FILE", default=None)
    args = p.parse_args()
    bench = load("BENCHMARK.json")
    return compare(args.compare, bench) if args.compare else measure(args.out, bench)


if __name__ == "__main__":
    sys.exit(main())
