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
  u32 CRC-32 (zlib) of every byte before it

Record order is fixed by the trainer's group table and the modules'
attribute order, so save -> load -> save is byte-identical.
"""

import json
import os
import struct
import zlib

import numpy as np

from .errors import DataError

MAGIC = b"DMIMCKPT"
VERSION = 2


def save_checkpoint(path, config_json, run_state, records):
    """`records`: ordered list of (name, float32 ndarray).

    The bytes go to a temporary file next to `path`, which is flushed,
    fsynced and then renamed over `path`, so a failed write leaves the
    previous checkpoint as it was.
    """
    cfg = config_json.encode("utf-8")
    state = json.dumps(run_state, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            crc = 0

            def put(*chunks):
                nonlocal crc
                for chunk in chunks:
                    fh.write(chunk)
                    crc = zlib.crc32(chunk, crc)

            put(MAGIC, struct.pack("<IQ", VERSION, len(cfg)), cfg,
                struct.pack("<Q", len(state)), state,
                struct.pack("<I", len(records)))
            for name, arr in records:
                arr = np.ascontiguousarray(arr, dtype="<f4")
                nb = name.encode("utf-8")
                put(struct.pack("<H", len(nb)), nb,
                    struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                    arr.tobytes())
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (config_json, run_state dict, ordered list of (name, array)).

    The magic and the version are checked first, then the CRC-32 over every
    byte before the trailer; only a file that passes both is parsed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    off, end = 0, len(raw)

    def take(n):
        nonlocal off
        if off + n > end:
            raise DataError(f"{path}: truncated checkpoint at byte {off}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    if take(8) != MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    end -= 4
    if end < off:
        raise DataError(f"{path}: truncated checkpoint at byte {end}")
    (crc,) = struct.unpack_from("<I", raw, end)
    if zlib.crc32(memoryview(raw)[:end]) != crc:
        raise DataError(f"{path}: CRC-32 mismatch; the checkpoint is corrupt, "
                        f"truncated or has trailing bytes")

    def parse_json(what):
        (n,) = struct.unpack("<Q", take(8))
        try:
            text = take(n).decode("utf-8")
            return text, json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: {what} is not UTF-8 JSON: {e}") from None

    config_json, _ = parse_json("config")  # TrainConfig.from_json parses again
    _, run_state = parse_json("run state")
    if not isinstance(run_state, dict):
        raise DataError(f"{path}: run state is not a JSON object")
    (count,) = struct.unpack("<I", take(4))
    records = []
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(
                f"{path}: record {i} name is not UTF-8: {e}") from None
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(take(4 * n), dtype="<f4").reshape(shape).copy()
        records.append((name, arr))
    if off != end:
        raise DataError(f"{path}: {end - off} trailing bytes after records")
    return config_json, run_state, records


def restore_into(records, named, prefix):
    """Copy checkpoint records with `prefix` into the matching arrays of
    `named`.

    Every name under the prefix must exist with an identical shape.
    """
    got = {name[len(prefix):]: arr for name, arr in records
           if name.startswith(prefix)}
    missing = set(named) - set(got)
    extra = set(got) - set(named)
    if missing or extra:
        raise DataError(
            f"checkpoint/model mismatch under '{prefix}': "
            f"missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}")
    for name, arr in named.items():
        if got[name].shape != arr.shape:
            raise DataError(
                f"checkpoint shape mismatch at '{prefix}{name}': "
                f"{got[name].shape} vs model {arr.shape}")
        arr[...] = got[name]
