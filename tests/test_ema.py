"""EMA teacher schedule and update tests."""

import numpy as np
import pytest

from dualmim.ema import (PER_EPOCH, PER_ITERATION, EmaSchedule, TeacherState,
                         ema_update, maybe_update, momentum_at)
from dualmim.tensor import Tensor


def _sched(start=0.96, end=0.99, freq=PER_EPOCH, total=20):
    return EmaSchedule(start_momentum=start, end_momentum=end,
                       frequency=freq, total_updates=total)


def test_momentum_endpoints():
    s = _sched()
    assert momentum_at(s, 0) == 0.96
    assert momentum_at(s, 20) == 0.99


def test_momentum_midpoint():
    # cosine ramp: at t = T/2 the momentum is the arithmetic midpoint
    s = _sched(total=10)
    assert abs(momentum_at(s, 5) - 0.975) < 1e-12


def test_momentum_cl_endpoints():
    s = _sched(0.996, 1.0, PER_ITERATION, total=1000)
    assert momentum_at(s, 0) == 0.996
    assert momentum_at(s, 1000) == 1.0


def _teacher_pair(t_val, s_val):
    student = {"w": Tensor(np.full(4, s_val, np.float32), requires_grad=True)}
    teacher = TeacherState({"w": Tensor(np.full(4, t_val, np.float32))},
                           _sched())
    return teacher, student


def test_update_m1_is_identity():
    teacher, student = _teacher_pair(2.0, 4.0)
    before = teacher.params["w"].data.copy()
    ema_update(teacher, student, 1.0)
    assert np.array_equal(teacher.params["w"].data, before)


def test_update_m0_copies_student():
    teacher, student = _teacher_pair(2.0, 4.0)
    ema_update(teacher, student, 0.0)
    assert np.array_equal(teacher.params["w"].data, student["w"].data)


def test_update_half():
    teacher, student = _teacher_pair(2.0, 4.0)
    ema_update(teacher, student, 0.5)
    assert np.allclose(teacher.params["w"].data, 3.0)


def test_update_geometric_law():
    """n updates at fixed m shrink the teacher-student gap by m^n exactly."""
    teacher, student = _teacher_pair(1.0, 0.0)
    for _ in range(7):
        ema_update(teacher, student, np.float32(0.9))
    expect = np.float32(1.0)
    for _ in range(7):
        expect = np.float32(0.9) * expect
    assert np.allclose(teacher.params["w"].data, expect, rtol=1e-6)


def test_mismatched_params_raise():
    teacher, _ = _teacher_pair(1.0, 1.0)
    other = {"v": Tensor(np.zeros(4, np.float32))}
    with pytest.raises(ValueError):
        ema_update(teacher, other, 0.5)


def test_per_epoch_skips_mid_epoch():
    teacher, student = _teacher_pair(2.0, 4.0)
    before = teacher.params["w"].data.copy()
    done = maybe_update(teacher, student, iteration=5, epoch=0,
                        at_epoch_end=False)
    assert not done
    assert np.array_equal(teacher.params["w"].data, before)


def test_per_epoch_fires_at_epoch_end():
    teacher, student = _teacher_pair(2.0, 4.0)
    done = maybe_update(teacher, student, iteration=9, epoch=0,
                        at_epoch_end=True)
    assert done
    assert teacher.update_count == 1


def test_per_iteration_fires_every_iteration():
    student = {"w": Tensor(np.ones(2, np.float32), requires_grad=True)}
    teacher = TeacherState({"w": Tensor(np.zeros(2, np.float32))},
                           _sched(0.996, 1.0, PER_ITERATION, total=100))
    for it in range(4):
        assert maybe_update(teacher, student, iteration=it, epoch=0,
                            at_epoch_end=False)
    assert teacher.update_count == 4


def test_teacher_params_off_tape():
    teacher, _ = _teacher_pair(1.0, 1.0)
    assert not teacher.params["w"].requires_grad
