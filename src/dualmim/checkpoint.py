"""Versioned binary checkpoints.

Layout (little-endian):
  magic   8 bytes  b"DMIMCKPT"
  version u32
  u64 length + config JSON (sorted keys, utf-8)
  u64 length + run-state JSON (counters)
  u32 record count, then per record:
      u16 name length + name utf-8
      u8 ndim, ndim x u32 dims
      float32 payload, row-major

Record order is fixed by the model's parameter dicts, so
save -> load -> save is byte-identical.
"""

import json
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"DMIMCKPT"
VERSION = 1


def save_checkpoint(path, config_json, run_state, records):
    """`records`: ordered dict/list of (name, float32 ndarray).

    The bytes go to a temporary file next to `path`, which is flushed,
    fsynced and then renamed over `path`, so a failed write leaves the
    previous checkpoint as it was.
    """
    items = list(records.items()) if isinstance(records, dict) else list(records)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            cfg = config_json.encode("utf-8")
            fh.write(struct.pack("<Q", len(cfg)))
            fh.write(cfg)
            state = json.dumps(run_state, sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<Q", len(state)))
            fh.write(state)
            fh.write(struct.pack("<I", len(items)))
            for name, arr in items:
                arr = np.ascontiguousarray(arr, dtype="<f4")
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (config_json, run_state dict, ordered list of (name, array))."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(raw):
            raise DataError(f"{path}: truncated checkpoint at byte {off}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    if take(8) != MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (clen,) = struct.unpack("<Q", take(8))
    config_json = take(clen).decode("utf-8")
    (slen,) = struct.unpack("<Q", take(8))
    run_state = json.loads(take(slen).decode("utf-8"))
    (count,) = struct.unpack("<I", take(4))
    records = []
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(take(4 * n), dtype="<f4").reshape(shape).copy()
        records.append((name, arr))
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes after records")
    return config_json, run_state, records


def restore_into(records, named_tensors, prefix):
    """Copy checkpoint records with `prefix` into matching tensors.

    Every name under the prefix must exist with an identical shape.
    """
    got = {name[len(prefix):]: arr for name, arr in records
           if name.startswith(prefix)}
    missing = set(named_tensors) - set(got)
    extra = set(got) - set(named_tensors)
    if missing or extra:
        raise DataError(
            f"checkpoint/model mismatch under '{prefix}': "
            f"missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}")
    for name, t in named_tensors.items():
        if got[name].shape != t.data.shape:
            raise DataError(
                f"checkpoint shape mismatch at '{prefix}{name}': "
                f"{got[name].shape} vs model {t.data.shape}")
        t.data[...] = got[name]
