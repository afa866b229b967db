"""In-memory span tracer that wraps dualmim's public functions from outside.

Nothing under src/ is changed: `instrument` replaces module and class
attributes with timing wrappers and `Tracer.uninstall` puts the originals
back. A span is [name, start, end, parent index, iteration id]. The program
is single-threaded, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.

Two kinds of span are units of work, and every other span is charged to
the unit it runs inside:
  train.iter  one training step, from the `make_batch` call that starts it
              to the `make_batch` call of the next step (or the end of
              `pretrain`), so it also covers logging and checkpoint saves;
  cli.*       one `dualmim` command run by the benchmark (eval workload).
"""

import functools
import os
import time
from collections import Counter, defaultdict

UNIT_SPANS = ("train.iter", "cli.knn_eval", "cli.linear_probe")

# a unit's own self time is reported under a name of its own
SELF_METRIC = {"train.iter": "train.iter_self_ms",
               "cli.knn_eval": "cli.main_self_ms",
               "cli.linear_probe": "cli.main_self_ms"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.iteration = -1
        self._undo = []
        self._node_mark = None

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.iteration])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def top(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def end_iteration(self, node_id):
        if self.top() == "train.iter":
            if node_id is not None:
                # the probe tensors themselves take one id each
                self.counts["tensor.nodes"] += node_id() - self._node_mark - 1
            self.close()

    def next_iteration(self, node_id):
        self.end_iteration(node_id)
        self.iteration += 1
        self.counts["train.iterations"] += 1
        self.open("train.iter")
        if node_id is not None:
            self._node_mark = node_id()

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr, make):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, make(getattr(owner, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per-name self time (s) summed over every span inside a unit span,
        plus the summed unit wall time and the number of units."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        unit = [-1] * len(self.spans)
        out = defaultdict(float)
        wall, units = 0.0, 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name in UNIT_SPANS:
                unit[i] = i
                wall += end - start
                units += 1
            elif parent >= 0:
                unit[i] = unit[parent]
            if unit[i] >= 0:
                out[SELF_METRIC.get(name, name + "_ms")] += end - start - child[i]
        return dict(out), wall, units


def _span(tr, name):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tr.call(name, fn, *args, **kwargs)
        return wrapper
    return make


def instrument(tr, full=True):
    """Install the wrappers. With `full=False` only the frozen-feature
    encoder path is timed (the untraced eval run needs its batch times)."""
    from dualmim import (checkpoint, cli, data, ema, losses, optim,
                         pseudolabel, tensor, train, vit)

    node_id = (lambda: tensor.Tensor(0).node_id) if full else None

    def encoder(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if tr.top() == "train.encode_features":
                role = "vit.encoder_eval"
            elif self.cls_token.requires_grad:
                role = "vit.encoder_student"
            else:
                role = "vit.encoder_teacher"
            tr.counts["vit.encoder_calls"] += 1
            if role != "vit.encoder_eval" or node_id is None:
                return tr.call(role, fn, self, *args, **kwargs)
            mark = node_id()
            out = tr.call(role, fn, self, *args, **kwargs)
            tr.counts["tensor.nodes_encode"] += node_id() - mark - 1
            tr.counts["encode_batches"] += 1
            return out
        return wrapper

    tr.patch(vit.Encoder, "__call__", encoder)
    tr.patch(train, "encode_features", _span(tr, "train.encode_features"))
    if not full:
        return

    def head(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tr.counts["vit.head_calls"] += 1
            role = ("vit.head_student" if self.class_out.w.requires_grad
                    else "vit.head_teacher")
            return tr.call(role, fn, self, *args, **kwargs)
        return wrapper

    def make_batch(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.next_iteration(node_id)
            return tr.call("data.make_batch", fn, *args, **kwargs)
        return wrapper

    def pretrain(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.open("train.pretrain")
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end_iteration(node_id)
                tr.close()
        return wrapper

    def counted(key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tr.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def ema_update(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired = tr.call("ema.update", fn, *args, **kwargs)
            tr.counts["ema.updates"] += bool(fired)
            return fired
        return wrapper

    def sized(name, key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                out = tr.call(name, fn, path, *args, **kwargs)
                tr.counts[key] += os.path.getsize(path)
                tr.counts[key + "_files"] += 1
                return out
            return wrapper
        return make

    tr.patch(vit.Decoder, "__call__", _span(tr, "vit.decoder"))
    tr.patch(vit.ProjectionHead, "__call__", head)
    tr.patch(train, "pretrain", pretrain)
    tr.patch(train, "knn_eval", _span(tr, "train.knn_eval"))
    tr.patch(train, "linear_probe", _span(tr, "train.linear_probe"))
    tr.patch(train.Trainer, "prepare_step", _span(tr, "train.prepare_step"))
    tr.patch(train.Trainer, "compute_loss", _span(tr, "train.compute_loss"))
    tr.patch(train.Trainer, "load", _span(tr, "train.trainer_load"))
    tr.patch(data, "make_batch", make_batch)
    tr.patch(cli, "load_data_dir", _span(tr, "data.load"))
    tr.patch(pseudolabel, "teacher_targets",
             _span(tr, "pseudolabel.teacher_targets"))
    tr.patch(pseudolabel, "sinkhorn_normalize",
             counted("pseudolabel.sinkhorn_calls"))
    tr.patch(pseudolabel, "nearest_patch_match_batch",
             _span(tr, "pseudolabel.match"))
    tr.patch(pseudolabel, "mean_row_entropy", _span(tr, "pseudolabel.entropy"))
    tr.patch(losses, "tempered_cross_entropy", _span(tr, "losses.tempered_ce"))
    tr.patch(losses, "recon_loss", _span(tr, "losses.recon"))
    tr.patch(tensor.Tensor, "backward", _span(tr, "tensor.backward"))
    tr.patch(optim.AdamW, "step", _span(tr, "optim.adamw_step"))
    tr.patch(ema, "maybe_update", ema_update)
    tr.patch(checkpoint, "save_checkpoint",
             sized("checkpoint.save", "checkpoint.bytes_saved"))
    tr.patch(checkpoint, "load_checkpoint",
             sized("checkpoint.load", "checkpoint.bytes_loaded"))
