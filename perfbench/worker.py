"""Child process of the benchmark: builds the fixture, times one set-up, or
runs the measured closed loop of one workload.

    python3 perfbench/worker.py fixture --workload W --seed N --work DIR
    python3 perfbench/worker.py setup   --workload W --seed N --work DIR
    python3 perfbench/worker.py measure --workload W --seed N --work DIR \
        --seconds S --trace 0|1 [--trace-out FILE]

`run.py` starts each one in a fresh interpreter, with `src/` of the
checkout on PYTHONPATH, and reads the JSON object on the last line of
stdout. dualmim is imported only inside the modes, so that its import is
part of the measured set-up.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time

# Workloads. Pretrain workloads run the default config as `dualmim pretrain`
# does; 512 records at batch 128 make four steps an epoch, so a five-step
# operation crosses one epoch boundary (per-epoch EMA update and checkpoint
# save) and ends with the max-iters save. `ops` is the number of measured
# operations a run makes at `--seconds 30`, the run_seconds of
# BENCHMARK.json; another `--seconds` scales it. Every run of a workload
# thus does the same work: 15 steps, 25 steps and 36 encoded batches.
WORKLOADS = {
    "pretrain_default": {"kind": "pretrain", "records": 512, "overrides": [],
                         "ops": 3},
    "pretrain_recon": {"kind": "pretrain", "records": 512,
                       "overrides": ["--loss.lambda_c", "0",
                                     "--loss.lambda_p", "0"], "ops": 5},
    # frozen-feature evaluation of a checkpoint from a one-step default
    # pretrain: knn-eval then linear-probe, each encoding all 2304 records
    "eval_frozen": {"kind": "eval", "records": 2304, "ops": 2},
}
REFERENCE_SECONDS = 30.0
BATCH = 128             # the default optim.batch_size
STEPS_PER_OP = 5
# The first two steps of a process map the memory of the two live tapes
# (README, memory fact 1) and run up to twice as long as later steps. Each
# measured process therefore first runs a short warm-up operation that is
# checked but not timed: two steps, or one knn-eval.
WARMUP_STEPS = 2
HOLDOUT = 512
KNN_K = 20
# 10 balanced classes: chance is 0.1. A one-step checkpoint reaches about
# 0.85 kNN and 0.5 linear-probe top-1 on this fixture.
KNN_FLOOR = 0.5
PROBE_FLOOR = 0.2
# the most of a traced unit's wall time that its own self time may take
UNIT_SELF_SHARE = 0.05
LOSS_COLUMNS = ("loss_m", "loss_c", "loss_p", "total", "patch_entropy",
                "class_entropy")


def data_path(work):
    return os.path.join(work, "data.bin")


def fixture_checkpoint(work):
    return os.path.join(work, "fixture_run", "checkpoint.bin")


def run_cli(argv):
    """Run one `dualmim` command in-process; returns (exit code, stdout)."""
    from dualmim import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- modes -------------------------------------------------------------------


def fixture(args):
    from dualmim.data import make_synthetic_cifar
    spec = WORKLOADS[args.workload]
    make_synthetic_cifar(data_path(args.work), spec["records"], args.seed)
    out = {"ok": True}
    if spec["kind"] == "eval":
        code, _ = run_cli(["pretrain", "--data-dir", data_path(args.work),
                           "--out", os.path.dirname(fixture_checkpoint(args.work)),
                           "--max-iters", "1", "--seed", str(args.seed)])
        out["ok"] = code == 0 and os.path.exists(fixture_checkpoint(args.work))
    return out


def setup(args):
    """Everything a command does before its first step or encoded batch."""
    from dualmim.config import load_config
    from dualmim.data import load_data_dir
    from dualmim.train import Trainer
    spec = WORKLOADS[args.workload]
    ds = load_data_dir(data_path(args.work))
    if spec["kind"] == "eval":
        tr = Trainer.load(fixture_checkpoint(args.work))
        ok = tr.global_iter == 1
    else:
        ov = spec["overrides"]
        cfg = load_config(None, dict(zip((k[2:] for k in ov[::2]), ov[1::2])))
        cfg.seed = args.seed
        tr = Trainer(cfg, iters_per_epoch=len(ds) // cfg.optim.batch_size)
        ok = tr.pseudo_enabled == (not ov)
    return {"ready": time.perf_counter(), "ok": ok}


def read_metrics_csv(path):
    from dualmim.train import METRICS_HEADER
    cols = METRICS_HEADER.split(",")
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and line != METRICS_HEADER:
                rows.append(dict(zip(cols, map(float, line.split(",")))))
    return rows


def pretrain_op(args, spec, k, steps=STEPS_PER_OP):
    """One `dualmim pretrain` command of `steps` steps."""
    from dualmim import checkpoint
    out_dir = os.path.join(args.work, f"op{k}")
    argv = (["pretrain", "--data-dir", data_path(args.work), "--out", out_dir,
             "--max-iters", str(steps), "--seed", str(args.seed)]
            + spec["overrides"])
    t0 = time.perf_counter()
    code, _ = run_cli(argv)
    wall = time.perf_counter() - t0
    errors = [] if code == 0 else [f"exit code {code}"]
    rows = read_metrics_csv(os.path.join(out_dir, "metrics.csv")) if not errors else []
    if not errors and len(rows) != steps:
        errors.append(f"metrics.csv has {len(rows)} rows for {steps} steps")
    if any(not math.isfinite(r[c]) for r in rows for c in LOSS_COLUMNS):
        errors.append("non-finite loss in metrics.csv")
    recon = bool(spec["overrides"])
    if recon and any(r["loss_c"] != 0.0 or r["loss_p"] != 0.0 for r in rows):
        errors.append("loss_c/loss_p not exactly 0 with lambda_c=lambda_p=0")
    if not recon and any(r["loss_c"] <= 0.0 or r["loss_p"] <= 0.0 for r in rows):
        errors.append("pseudo-label losses missing from the default config")
    secs = [r["seconds"] for r in rows]
    step_ms = [1000.0 * (b - a) for a, b in zip([0.0] + secs, secs)]
    if not errors:
        _, state, records = checkpoint.load_checkpoint(
            os.path.join(out_dir, "checkpoint.bin"))
        has_head = any(n.startswith("student.head.") for n, _ in records)
        if state["global_iter"] != steps:
            errors.append(f"checkpoint at step {state['global_iter']}")
        if has_head == recon:
            errors.append("projection head built on the reconstruction-only "
                          "run" if recon else "projection head missing")
    # same seed and data in every operation: the losses must repeat bit for bit
    result = [[r[c] for c in LOSS_COLUMNS] for r in rows]
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"wall_s": wall, "iter_ms": step_ms, "images": BATCH * len(rows),
            "errors": errors, "result": result}


def eval_op(args, spec, k, tracer, probe=True):
    """`dualmim knn-eval` then `dualmim linear-probe` on the fixture."""
    common = ["--data-dir", data_path(args.work), "--out",
              os.path.join(args.work, f"op{k}"), "--checkpoint",
              fixture_checkpoint(args.work), "--holdout", str(HOLDOUT)]
    errors, lines = [], []
    t0 = time.perf_counter()
    commands = [("cli.knn_eval", ["knn-eval", "-k", str(KNN_K)]),
                ("cli.linear_probe", ["linear-probe"])]
    for name, argv in commands[:2 if probe else 1]:
        tracer.iteration += 1      # each command is one unit of work
        tracer.open(name)
        try:
            code, text = run_cli(argv + common)
        finally:
            tracer.close()
        lines.append(text.strip())
        if code != 0:
            errors.append(f"{argv[0]} exit code {code}")
    wall = time.perf_counter() - t0
    accs = [float(s.rsplit(":", 1)[1]) if ":" in s else float("nan")
            for s in lines]
    if not (accs[0] >= KNN_FLOOR):
        errors.append(f"kNN top-1 {accs[0]} below {KNN_FLOOR}")
    if probe and not (accs[1] >= PROBE_FLOOR):
        errors.append(f"linear-probe top-1 {accs[1]} below {PROBE_FLOOR}")
    return {"wall_s": wall, "errors": errors, "result": lines,
            "images": len(lines) * spec["records"]}


def run_op(args, spec, k, traced, warmup=False):
    """One operation, traced or not; returns its record and its tracer."""
    from tracer import Tracer, instrument
    tr = Tracer()
    if traced or spec["kind"] == "eval":
        instrument(tr, full=traced)
    try:
        if spec["kind"] == "pretrain":
            out = pretrain_op(args, spec, k, WARMUP_STEPS if warmup else STEPS_PER_OP)
        else:
            out = eval_op(args, spec, k, tr, probe=not warmup)
    finally:
        tr.uninstall()
    out["traced"] = traced
    if spec["kind"] == "eval":
        out["iter_ms"] = [1000.0 * (s[2] - s[1]) for s in tr.spans
                          if s[0] == "vit.encoder_eval"]
        out["encode_s"] = sum(s[2] - s[1] for s in tr.spans
                              if s[0] == "train.encode_features")
    if traced:
        selfs, wall, units = tr.self_times()
        out["trace"] = {"selfs": selfs, "wall": wall, "units": units,
                        "counts": dict(tr.counts)}
        out["errors"] += trace_checks(spec, tr, out, selfs, wall)
    return out, tr


def trace_checks(spec, tr, out, selfs, wall):
    """Checks that the tracer saw the operation the program ran."""
    errors = []
    # time inside a unit that no named span covers (loop, logging, argument
    # parsing) stays small; a large share means a layer went unwrapped
    own = selfs.get("train.iter_self_ms", 0.0) + selfs.get("cli.main_self_ms", 0.0)
    if own > UNIT_SELF_SHARE * wall:
        errors.append(f"unit self time {own:.3f} s is over {UNIT_SELF_SHARE:.0%} "
                      f"of the traced wall time {wall:.3f} s")
    if spec["kind"] == "pretrain":
        # the train.iter spans run from the first make_batch to the end of
        # pretrain(); metrics.csv's clock runs from the start of pretrain()
        # to the last step's row, before the final checkpoint save
        iters = sum(s[2] - s[1] for s in tr.spans if s[0] == "train.iter")
        saves = [s[2] - s[1] for s in tr.spans if s[0] == "checkpoint.save"]
        logged = sum(out["iter_ms"]) / 1000.0
        if not saves or abs(iters - saves[-1] - logged) > 0.02 * logged + 0.05:
            errors.append(f"traced steps take {iters:.3f} s but metrics.csv "
                          f"logs {logged:.3f} s plus the final save")
    return errors


def measure(args):
    """The closed loop: a warm-up operation, then the workload's operations
    one after another in this process. With --trace 1 every second one (the
    2nd, 4th, ...) is traced, and at least two run."""
    import dualmim
    spec = WORKLOADS[args.workload]
    count = max(2 if args.trace else 1,
                round(spec["ops"] * args.seconds / REFERENCE_SECONDS))
    warmup, _ = run_op(args, spec, 0, False, warmup=True)
    ops, tracers = [], []
    for k in range(1, count + 1):
        traced = bool(args.trace) and k % 2 == 0
        op, tr = run_op(args, spec, k, traced)
        if ops and op["result"] != ops[0]["result"]:
            op["errors"].append(f"operation {k} result differs from operation 1 "
                                "(same seed, same inputs)")
        ops.append(op)
        if traced:
            tracers.append((k, tr))
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "iteration"],
                       "ops": [{"op": k, "spans": tr.spans, "counts": tr.counts}
                               for k, tr in tracers]}, fh)
    for op in [warmup] + ops:
        del op["result"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(dualmim.__file__)))
    return {"warmup_errors": warmup["errors"], "ops": ops, "env": environment(root),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def environment(root):
    import ctypes
    import glob
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh
                    if l.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "dualmim": os.path.relpath(root, os.getcwd()),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("fixture", "setup", "measure"))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args()
    result = {"fixture": fixture, "setup": setup, "measure": measure}[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
