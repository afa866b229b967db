"""dualmim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pretrain_default --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a dualmim checkout; it imports the package from
`src/` there. It builds the workload's fixture from the seed, times the
set-up in several fresh processes, then runs the workload as a closed loop
(one client; the next operation starts when the previous one ends) in one
more fresh process. An operation is one `dualmim` command, run as a user
runs it; each workload makes a fixed number of them at `--seconds 30`, and
`--seconds` scales that number. With `--trace 1` every second operation
runs under the span tracer of `tracer.py`, and the per-layer table
replaces the end-to-end metrics. The last line of stdout is the JSON
result; the lines before it name every metric with its unit. See
README.md here.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0      # every child is killed by then; the run must end in 180

UNITS = {"setup_s": "s", "iter_ms_p50": "ms", "iter_ms_tail": "ms",
         "images_per_s": "img/s", "op_s": "s", "peak_rss_mb": "MB"}

# The per-layer metrics, by the workloads that call them. The traced result
# lists all of them (the per_layer list of BENCHMARK.json) on every
# workload. A layer the workload calls must read above 0, and one it never
# calls must read exactly 0; both are checked for every traced operation.
PRETRAIN_LAYERS = (
    "train.iter_self_ms", "data.make_batch_ms", "train.prepare_step_ms",
    "vit.encoder_teacher_ms", "train.compute_loss_ms",
    "vit.encoder_student_ms", "vit.decoder_ms", "losses.recon_ms",
    "tensor.backward_ms", "optim.adamw_step_ms", "ema.update_ms",
    "checkpoint.save_ms", "vit.encoder_calls", "ema.updates_per_iter",
    "tensor.nodes_per_iter", "checkpoint.bytes", "trace.wall_ms")
# the pseudo-label path, which lambda_c=lambda_p=0 skips
PSEUDO_LAYERS = (
    "vit.head_teacher_ms", "pseudolabel.teacher_targets_ms",
    "vit.head_student_ms", "pseudolabel.match_ms", "losses.tempered_ce_ms",
    "pseudolabel.entropy_ms", "vit.head_calls", "pseudolabel.sinkhorn_calls")
EVAL_LAYERS = (
    "cli.main_self_ms", "train.trainer_load_ms", "checkpoint.load_ms",
    "data.load_ms", "train.encode_features_ms", "vit.encoder_eval_ms",
    "train.knn_eval_ms", "train.linear_probe_ms", "tensor.backward_ms",
    "optim.adamw_step_ms", "vit.encoder_calls",
    "tensor.nodes_per_encode_batch", "checkpoint.bytes", "trace.wall_ms")
PER_LAYER = tuple(dict.fromkeys(PRETRAIN_LAYERS + PSEUDO_LAYERS + EVAL_LAYERS))


def called_layers(workload):
    if WORKLOADS[workload]["kind"] == "eval":
        return set(EVAL_LAYERS)
    if WORKLOADS[workload]["overrides"]:
        return set(PRETRAIN_LAYERS)
    return set(PRETRAIN_LAYERS + PSEUDO_LAYERS)


class ChildFailed(Exception):
    pass


class Children:
    """Starts worker.py children one at a time, each killed at the deadline."""

    def __init__(self, args, work, env):
        self.args, self.work, self.env = args, work, env
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0

    def run(self, mode, *extra):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--work", self.work, *extra]
        self.attempted += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed(f"{mode}: no time left before the deadline")
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode}: killed at the deadline") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{mode}: exit code {proc.returncode}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise ChildFailed(f"{mode}: no result line") from None


def tail(samples):
    """The highest nearest-rank percentile with at least ten samples above it.

    Below 20 samples that percentile would sit at or under the median, so
    p80 is reported instead. Returns (value, percentile, samples above).
    """
    s = sorted(samples)
    rank = len(s) - 10 if len(s) >= 20 else -(-len(s) * 80 // 100)
    return s[rank - 1], 100.0 * rank / len(s), len(s) - rank


def end_to_end(kind, ops, setups, peak_rss_mb):
    iters = [t for o in ops for t in o["iter_ms"]]
    value, pct, above = tail(iters)
    busy = sum(o["wall_s"] if kind == "pretrain" else o["encode_s"] for o in ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "iter_ms_p50": statistics.median(iters),
        "iter_ms_tail": value,
        "images_per_s": sum(o["images"] for o in ops) / busy,
        "op_s": statistics.median(o["wall_s"] for o in ops),
        "peak_rss_mb": peak_rss_mb,
    }
    note = (f"samples: {len(iters)} iterations in {len(ops)} operations; "
            f"iter_ms_tail is p{pct:.1f} with {above} samples above it; "
            f"setup_s is the median of {len(setups)} fresh processes")
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, note


def layer_table(kind, ops):
    """Self times in ms per unit (training step, or knn-eval + linear-probe
    pair), summed over the traced operations, plus counts."""
    selfs, counts, wall, units = Counter(), Counter(), 0.0, 0
    for o in ops:
        selfs.update(o["trace"]["selfs"])
        counts.update(o["trace"]["counts"])
        wall += o["trace"]["wall"]
        units += o["trace"]["units"]
    per = max(units if kind == "pretrain" else units // 2, 1)
    steps = counts["train.iterations"]
    saves = counts["checkpoint.bytes_saved_files"]
    loads = counts["checkpoint.bytes_loaded_files"]
    table = {name: 1000.0 * v / per for name, v in selfs.items()}
    table.update({
        "vit.encoder_calls": counts["vit.encoder_calls"] / per,
        "vit.head_calls": counts["vit.head_calls"] / per,
        "pseudolabel.sinkhorn_calls": counts["pseudolabel.sinkhorn_calls"] / per,
        "ema.updates_per_iter": counts["ema.updates"] / steps if steps else 0.0,
        "tensor.nodes_per_iter": counts["tensor.nodes"] / steps if steps else 0.0,
        "tensor.nodes_per_encode_batch": (
            counts["tensor.nodes_encode"] / counts["encode_batches"]
            if counts["encode_batches"] else 0.0),
        "checkpoint.bytes": (counts["checkpoint.bytes_saved"] / saves if saves
                             else counts["checkpoint.bytes_loaded"] / max(loads, 1)),
        "trace.wall_ms": 1000.0 * wall / per,
    })
    return {name: table.get(name, 0.0) for name in PER_LAYER}


def layer_errors(workload, table):
    called = called_layers(workload)
    return [f"layer {name} reads {v:g}, but the workload "
            f"{'calls' if name in called else 'never calls'} it"
            for name, v in table.items() if (v > 0) != (name in called)]


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    return "bytes" if name == "checkpoint.bytes" else "count"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dualmim", "__init__.py")):
        print("perfbench: run from the root of a dualmim checkout "
              "(no src/dualmim here)", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS=str(nproc), OMP_NUM_THREADS=str(nproc),
               PYTHONDONTWRITEBYTECODE="1")
    out_root = os.path.join(root, ".perfbench")
    work = os.path.join(out_root, f"work-{os.getpid()}")
    os.makedirs(work)
    children = Children(args, work, env)
    kind = WORKLOADS[args.workload]["kind"]

    errors, setups, res = [], [], None
    try:
        if not children.run("fixture")["ok"]:
            raise ChildFailed("fixture: not built")
        for _ in range(0 if args.trace else SETUP_PROBES):
            t0 = time.perf_counter()   # CLOCK_MONOTONIC: shared with children
            probe = children.run("setup")
            if not probe["ok"]:
                raise ChildFailed("setup: wrong trainer state")
            setups.append(probe["ready"] - t0)
        trace_out = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.json")
        res = children.run("measure", "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           *(["--trace-out", trace_out] if args.trace else []))
    except ChildFailed as e:
        errors.append(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # operations: the fixture, each set-up, the warm-up (counted as the
    # measure process) and each measured operation
    ops = res["ops"] if res else []
    traced = [o for o in ops if o["traced"]]
    for o in traced:
        o["errors"] += layer_errors(args.workload, layer_table(kind, [o]))
    attempted = children.attempted + len(ops)
    warmup = res["warmup_errors"] if res else []
    failed = len(errors) + bool(warmup) + sum(1 for o in ops if o["errors"])
    errors += [f"warm-up: {e}" for e in warmup]
    errors += [e for o in ops for e in o["errors"]]
    correct = failed == 0
    metrics, notes = {}, []
    if correct and args.trace:
        table = layer_table(kind, traced)
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in table.items()}
        selfsum = sum(v for k, v in table.items() if k.endswith("_ms")
                      and k != "trace.wall_ms")
        plain = [t for o in ops if not o["traced"] for t in o["iter_ms"]]
        overhead = (statistics.median(t for o in traced for t in o["iter_ms"])
                    - statistics.median(plain))
        notes = [f"self times add up to {selfsum:.4f} ms of the traced wall "
                 f"time {table['trace.wall_ms']:.4f} ms per unit",
                 f"tracing overhead (traced minus untraced iter_ms_p50 in "
                 f"this run): {overhead:.4f} ms"]
    elif correct:
        metrics, note = end_to_end(kind, ops, setups, res["peak_rss_mb"])
        notes = [note]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    if res:
        print("env " + json.dumps(res["env"], sort_keys=True))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        shown = f"{m['value']:14.4f} {m['unit']}" if m["value"] else "    not called"
        print(f"  {name:34s} {shown}")
    print(f"  {'failed_ops':34s} {failed / attempted:14.4f} "
          f"share ({failed} of {attempted} operations)")
    for e in errors:
        print(f"  check failed: {e}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
