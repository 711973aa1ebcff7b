"""Bit-exact persistence of model configurations, parameters, and provenance.

CBDC container layout:

    bytes 0..3    magic "CBDC"
    bytes 4..7    version, unsigned 32-bit little-endian (currently 1)
    bytes 8..15   header length H, unsigned 64-bit little-endian
    bytes 16..16+H  UTF-8 JSON header, keys sorted (canonical)
    remainder     raw tensor payloads, little-endian IEEE-754, row-major,
                  each aligned to an 8-byte boundary with zero padding,
                  offsets relative to the payload start

The header carries {"config": ..., "meta": ..., "tensors": [{name, dtype,
shape, byte_offset, byte_len}, ...]}.  Tensors are listed in sorted-name
order, so identical checkpoints serialize to identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .tensor import F32, F64, NonFiniteError, Tensor
from .transformer import ModelConfig, ParamSet, validate_params

MAGIC = b"CBDC"
VERSION = 1

_DTYPE_TO_TAG = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_TAG_TO_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class CheckpointError(Exception):
    """Base class for persistence failures."""


class BadMagicError(CheckpointError):
    pass


class UnsupportedVersionError(CheckpointError):
    pass


class TruncatedDataError(CheckpointError):
    pass


class ShapeMismatchError(CheckpointError):
    pass


class CorruptDataError(CheckpointError):
    """A header field or a payload holds a value that save never writes."""


def _list_of(value, *kinds: type) -> bool:
    return isinstance(value, list) and all(type(v) in kinds for v in value)


@dataclass
class Meta:
    """Provenance: lineage entries are append-only stage descriptors such as
    "distilled-from:<name>" or "interpolated alpha=<a> between <s>,<l>"."""

    name: str = ""
    seed: int = 0
    step_count: int = 0
    lineage: list[str] = field(default_factory=list)
    loss_curves: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Meta":
        """The meta record as to_dict writes it, or ValueError."""
        if not isinstance(d, dict) or set(d) != {f.name for f in fields(cls)}:
            raise ValueError("meta must hold exactly name, seed, step_count, lineage and loss_curves")
        if not (type(d["name"]) is str and type(d["seed"]) is int and type(d["step_count"]) is int
                and _list_of(d["lineage"], str) and _list_of(d["loss_curves"], dict)
                and all(_list_of(c.get("losses", []), int, float) for c in d["loss_curves"])):
            raise ValueError("meta types are not name: str, seed and step_count: int, lineage: [str],"
                             " loss_curves: [{losses: [number], ...}]")
        return cls(**d)

    def child(self, stage: str, **updates) -> "Meta":
        """New meta with the stage appended; lineage stays append-only."""
        return Meta(
            name=updates.get("name", self.name),
            seed=updates.get("seed", self.seed),
            step_count=updates.get("step_count", self.step_count),
            lineage=self.lineage + [stage],
            loss_curves=[dict(c) for c in self.loss_curves],
        )


@dataclass
class Checkpoint:
    config: ModelConfig
    params: ParamSet
    meta: Meta = field(default_factory=Meta)

    def validate(self) -> None:
        validate_params(self.config, self.params)


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    """Bitwise equality of config, payloads, and provenance."""
    if a.config != b.config or a.meta.to_dict() != b.meta.to_dict():
        return False
    if set(a.params) != set(b.params):
        return False
    return all(
        a.params[k].dtype == b.params[k].dtype
        and a.params[k].shape == b.params[k].shape
        and a.params[k].data.tobytes() == b.params[k].data.tobytes()
        for k in a.params
    )


def _align8(n: int) -> int:
    return (n + 7) & ~7


def save(ckpt: Checkpoint, path: str) -> None:
    ckpt.validate()
    names = sorted(ckpt.params)
    entries = []
    offset = 0
    for name in names:
        t = ckpt.params[name]
        tag = _DTYPE_TO_TAG[np.dtype(t.dtype)]
        byte_len = t.size * np.dtype(t.dtype).itemsize
        offset = _align8(offset)
        entries.append(
            {"name": name, "dtype": tag, "shape": list(t.shape), "byte_offset": offset, "byte_len": byte_len}
        )
        offset += byte_len
    header = {
        "config": ckpt.config.to_dict(),
        "meta": ckpt.meta.to_dict(),
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # write a temp file beside the target and rename it over the target, so a
    # reader sees the old file or the whole new one, never a partial write
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            written = 0
            for entry, name in zip(entries, names):
                pad = entry["byte_offset"] - written
                if pad:
                    fh.write(b"\x00" * pad)
                    written += pad
                payload = np.ascontiguousarray(ckpt.params[name].data, dtype=_TAG_TO_DTYPE[entry["dtype"]])
                fh.write(payload.tobytes())
                written += entry["byte_len"]
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_header(path: str) -> dict:
    """Parse magic/version/header only; cmd_inspect uses this to avoid
    reading tensor payloads."""
    header, _ = _read_header(path)
    return header


def _read_header(path: str) -> tuple[dict, int]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        raw = fh.read(4)
        if len(raw) < 4:
            raise TruncatedDataError("file ends inside the version field")
        (version,) = struct.unpack("<I", raw)
        if version != VERSION:
            raise UnsupportedVersionError(f"unsupported version {version}")
        raw = fh.read(8)
        if len(raw) < 8:
            raise TruncatedDataError("file ends inside the header length field")
        (hlen,) = struct.unpack("<Q", raw)
        # checked before the read, which would otherwise allocate hlen bytes
        if 16 + hlen > os.fstat(fh.fileno()).st_size:
            raise TruncatedDataError("file ends inside the header")
        header_bytes = fh.read(hlen)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise TruncatedDataError(f"header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise CorruptDataError(f"header is a {type(header).__name__}, not an object")
    for key in ("config", "meta", "tensors"):
        if key not in header:
            raise TruncatedDataError(f"header missing '{key}'")
    return header, 16 + hlen


def parse_records(header: dict) -> tuple[ModelConfig, Meta]:
    """The config and meta records of a header from load_header, or the
    CheckpointError that says why save would not have written them."""
    try:
        config = ModelConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:
        raise ShapeMismatchError(f"invalid config record: {e}") from e
    try:
        meta = Meta.from_dict(header["meta"])
    except (AttributeError, TypeError, ValueError) as e:
        raise CorruptDataError(f"invalid meta record: {e}") from e
    return config, meta


def load(path: str) -> Checkpoint:
    """Read a checkpoint, rejecting any header or payload that save would not
    have written with a CheckpointError."""
    header, payload_start = _read_header(path)
    config, meta = parse_records(header)
    if not isinstance(header["tensors"], list):
        raise CorruptDataError("'tensors' is not a list")

    params: ParamSet = {}
    end = 0  # payloads come in order and may not overlap
    with open(path, "rb") as fh:
        file_len = fh.seek(0, 2)
        for entry in header["tensors"]:
            try:
                name, tag, shape, offset, byte_len = (
                    entry[key] for key in ("name", "dtype", "shape", "byte_offset", "byte_len"))
            except (KeyError, TypeError) as e:
                raise CorruptDataError(f"tensor entry {entry!r} lacks a field: {e}") from e
            if not isinstance(name, str) or name in params:
                raise CorruptDataError(f"tensor name {name!r} is not a new string")
            if not isinstance(tag, str) or tag not in _TAG_TO_DTYPE:
                raise ShapeMismatchError(f"tensor {name} has unknown dtype tag {tag!r}")
            if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
                raise CorruptDataError(f"tensor {name}: shape {shape!r} is not a list of sizes")
            if type(offset) is not int or offset < end:
                raise CorruptDataError(f"tensor {name}: byte_offset {offset!r} is negative or overlaps")
            dtype = _TAG_TO_DTYPE[tag]
            expected_len = math.prod(shape) * dtype.itemsize
            if byte_len != expected_len:
                raise ShapeMismatchError(f"tensor {name}: byte_len {byte_len} != shape {shape} x {dtype.itemsize}")
            end = offset + expected_len
            if payload_start + end > file_len:
                raise TruncatedDataError(f"tensor {name} payload is truncated")
            fh.seek(payload_start + offset)
            arr = np.frombuffer(fh.read(expected_len), dtype=dtype).reshape(shape)
            native = F32 if tag == "f32" else F64
            try:
                params[name] = Tensor(arr.astype(native), dtype=native)
            except NonFiniteError as e:
                raise CorruptDataError(f"tensor {name} holds non-finite values") from e

    ckpt = Checkpoint(config=config, params=params, meta=meta)
    try:
        ckpt.validate()
    except Exception as e:
        raise ShapeMismatchError(str(e)) from e
    return ckpt
