"""Every function in `src/dualmim` runs under some `dualmim` command.

A fresh interpreter (so no earlier import, `functools.cache` entry or test
has run anything already) profiles every Python call, in every thread,
while it runs the CLI on a tiny config: `make-data`; `pretrain` with the
defaults, resumed, with λ_c = λ_p = 0, with λ_m = 0, with one teacher,
simple-only augmentation with one pseudo-label fold, and hierarchical
layers with drop path; then `knn-eval`, `linear-probe`, `export-metrics`
and `gradcheck`. A `def` that none of them enters is code only tests reach.
Patch size 4 puts 65 tokens in an image, so the frozen-feature encodes of
48 images run in row blocks, on worker threads when OpenBLAS has two.
"""

import ast
import json
import os
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dualmim")

TINY = ["--model.patch_size", "4", "--model.embed_dim", "8",
        "--model.depth", "2", "--model.num_heads", "2",
        "--model.decoder_dim", "8", "--model.decoder_depth", "1",
        "--head.hidden_dim", "16", "--head.output_dim", "8",
        "--optim.batch_size", "16", "--optim.total_epochs", "1",
        "--optim.warmup_epochs", "1", "--seed", "5"]

VARIANTS = [["--loss.lambda_c", "0", "--loss.lambda_p", "0"],
            ["--loss.lambda_m", "0"],
            ["--teacher_mode", "single"],
            ["--augmentation_mode", "simple_only",
             "--multifold_pseudo_labeling", "false"],
            ["--model.hierarchical_layers", "[1, 2]",
             "--model.drop_path_rate", "0.1"]]


def _defs():
    """(file name, first line) -> name of every def under SRC. The first
    line is a code object's `co_firstlineno`: the first decorator's line
    for a decorated function."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([node.lineno] +
                           [d.lineno for d in node.decorator_list])
                out[(name, line)] = node.name
    return out


def _run_commands(work):
    """Run every command under a profile of all threads; write the entered
    (file name, first line) pairs to work/entered.json."""
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == SRC:
            entered.add((os.path.basename(code.co_filename),
                         code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    from dualmim.cli import main

    data = os.path.join(work, "train.bin")
    run = os.path.join(work, "run")
    ckpt = os.path.join(run, "checkpoint.bin")
    common = ["--data-dir", data] + TINY
    commands = [["make-data", "--data-dir", data, "--n", "64"],
                ["pretrain", "--out", run, "--max-iters", "2"] + common,
                ["pretrain", "--out", run, "--resume", ckpt] + common]
    commands += [["pretrain", "--out", os.path.join(work, f"v{i}"),
                  "--max-iters", "1"] + common + v
                 for i, v in enumerate(VARIANTS)]
    commands += [["knn-eval", "--checkpoint", ckpt, "-k", "5",
                  "--holdout", "16", "--data-dir", data],
                 ["linear-probe", "--checkpoint", ckpt, "--probe-epochs", "1",
                  "--holdout", "16", "--data-dir", data],
                 ["export-metrics", "--out", run],
                 ["gradcheck"]]
    for argv in commands:
        code = main(argv)
        assert code == 0, f"{argv} exited {code}"
    sys.setprofile(None)
    threading.setprofile(None)
    with open(os.path.join(work, "entered.json"), "w") as fh:
        json.dump(sorted(entered), fh)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_def_in_src_runs_under_a_command(tmp_path, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           str(tmp_path)], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
    with open(tmp_path / "entered.json") as fh:
        entered = {tuple(e) for e in json.load(fh)}
    defs = _defs()
    missing = [f"{f}:{line} {defs[f, line]}" for f, line in sorted(defs)
               if (f, line) not in entered]
    assert not missing, f"defs no command enters: {missing}"


if __name__ == "__main__":
    _run_commands(sys.argv[1])
