"""EMA teachers: cosine momentum schedules and frozen parameter snapshots.

Two teachers track the student: the reconstruction teacher (encoder only,
updated once per epoch) and the pseudo-labeling teacher (encoder plus
projection head, updated every iteration). A single-teacher ablation mode
lets one snapshot serve both target streams.
"""

import math
from dataclasses import dataclass

PER_ITERATION = "per_iteration"
PER_EPOCH = "per_epoch"


@dataclass
class EmaSchedule:
    start_momentum: float
    end_momentum: float
    frequency: str       # PER_ITERATION or PER_EPOCH
    total_updates: int

    def __post_init__(self):
        if not 0.0 <= self.start_momentum <= self.end_momentum <= 1.0:
            raise ValueError(
                f"need 0 <= start <= end <= 1, got "
                f"({self.start_momentum}, {self.end_momentum})")
        if self.frequency not in (PER_ITERATION, PER_EPOCH):
            raise ValueError(f"unknown frequency '{self.frequency}'")


def momentum_at(schedule, t):
    """Cosine ramp from start to end momentum over `total_updates` steps."""
    T = schedule.total_updates
    if not 0 <= t <= T:
        raise ValueError(f"schedule step {t} outside [0, {T}]")
    lo, hi = schedule.start_momentum, schedule.end_momentum
    return hi - (hi - lo) * (math.cos(math.pi * t / T) + 1.0) / 2.0


class TeacherState:
    """Frozen parameter snapshot with its EMA schedule and update counter.

    `params` are the teacher's own tensors (typically owned by a module
    mirror of the student so the teacher can run forward passes); they are
    initialized as an exact copy of the student and never require grad.
    """

    def __init__(self, params, schedule, init_from=None):
        self.schedule = schedule
        self.update_count = 0
        self.params = params
        for p in params.values():
            p.requires_grad = False
        if init_from is not None:
            for name, tp in params.items():
                tp.data[...] = init_from[name].data

    def momentum(self, t):
        return momentum_at(self.schedule, min(t, self.schedule.total_updates))


def ema_update(teacher, student_params, m):
    """theta_t <- m * theta_t + (1 - m) * theta_s, every parameter."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {m}")
    if m == 1.0:
        return
    for name, tp in teacher.params.items():
        sp = student_params.get(name)
        if sp is None or sp.data.shape != tp.data.shape:
            got = None if sp is None else sp.data.shape
            raise ValueError(
                f"teacher/student structure mismatch at '{name}': "
                f"teacher {tp.data.shape}, student {got}")
        if m == 0.0:
            tp.data[...] = sp.data
        else:
            tp.data *= m
            tp.data += (1.0 - m) * sp.data


def maybe_update(teacher, student_params, iteration, epoch, at_epoch_end):
    """Fire an EMA update if the teacher's clock says so.

    Per-iteration teachers update every iteration at momentum_at(i+1);
    per-epoch teachers update only at epoch boundaries at momentum_at(e+1).
    Returns True when an update fired.
    """
    if teacher.schedule.frequency == PER_ITERATION:
        t = iteration + 1
    elif at_epoch_end:
        t = epoch + 1
    else:
        return False
    m = teacher.momentum(t)
    ema_update(teacher, student_params, m)
    teacher.update_count += 1
    return True
