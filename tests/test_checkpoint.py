"""Checkpoint binary format tests."""

import os

import numpy as np
import pytest

from dualmim.checkpoint import (MAGIC, load_checkpoint, restore_into,
                                save_checkpoint)
from dualmim.errors import DataError
from dualmim.tensor import Tensor


def _records(seed=0):
    rng = np.random.default_rng(seed)
    return [("enc.w", rng.standard_normal((3, 4)).astype(np.float32)),
            ("enc.b", rng.standard_normal(4).astype(np.float32)),
            ("head.w", rng.standard_normal((4, 2)).astype(np.float32))]


def test_save_load_save_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(p1, '{"seed": 0}', {"epoch": 3}, _records())
    cfg, state, recs = load_checkpoint(p1)
    save_checkpoint(p2, cfg, state, recs)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_load_roundtrip_values(tmp_path):
    p = str(tmp_path / "c.bin")
    recs = _records(1)
    save_checkpoint(p, '{"x": 1}', {"iter": 7}, recs)
    cfg, state, loaded = load_checkpoint(p)
    assert cfg == '{"x": 1}'
    assert state == {"iter": 7}
    for (n1, a1), (n2, a2) in zip(recs, loaded):
        assert n1 == n2
        assert np.array_equal(a1, a2)


def test_bad_magic_rejected(tmp_path):
    p = str(tmp_path / "d.bin")
    with open(p, "wb") as fh:
        fh.write(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(p)


def test_truncation_reports_offset(tmp_path):
    p = str(tmp_path / "e.bin")
    save_checkpoint(p, "{}", {}, _records())
    raw = open(p, "rb").read()
    with open(p, "wb") as fh:
        fh.write(raw[:-5])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    p = str(tmp_path / "f.bin")
    save_checkpoint(p, "{}", {}, _records())
    with open(p, "ab") as fh:
        fh.write(b"\x00\x00")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(p)


def test_restore_into_copies_and_validates(tmp_path):
    p = str(tmp_path / "g.bin")
    recs = [("m.w", np.ones((2, 2), np.float32))]
    save_checkpoint(p, "{}", {}, recs)
    _, _, loaded = load_checkpoint(p)
    target = {"w": Tensor(np.zeros((2, 2), np.float32), requires_grad=True)}
    restore_into(loaded, target, "m.")
    assert np.array_equal(target["w"].data, np.ones((2, 2), np.float32))
    with pytest.raises(DataError, match="mismatch"):
        restore_into(loaded, {"other": target["w"]}, "m.")
    bad_shape = {"w": Tensor(np.zeros((3, 2), np.float32))}
    with pytest.raises(DataError, match="shape"):
        restore_into(loaded, bad_shape, "m.")


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    p = str(tmp_path / "checkpoint.bin")
    save_checkpoint(p, "{}", {"iter": 1}, _records(0))
    before = open(p, "rb").read()
    real = np.ascontiguousarray
    calls = []

    def fail_on_second_record(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(*args, **kwargs)

    # the header and the first record are written, then the write fails
    monkeypatch.setattr(np, "ascontiguousarray", fail_on_second_record)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(p, "{}", {"iter": 2}, _records(1))
    monkeypatch.undo()
    assert open(p, "rb").read() == before
    assert os.listdir(tmp_path) == ["checkpoint.bin"]
