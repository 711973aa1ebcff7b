import json
import resource
import signal
import struct

import numpy as np
import pytest

from chainkd import checkpoint as ckpt
from chainkd import transformer as M
from chainkd.checkpoint import (
    BadMagicError,
    Checkpoint,
    CheckpointError,
    CorruptDataError,
    Meta,
    ShapeMismatchError,
    TruncatedDataError,
    UnsupportedVersionError,
    checkpoints_equal,
    load,
    load_header,
    save,
)
from chainkd.tensor import F64, Tensor
from chainkd.transformer import ModelConfig

CFG = ModelConfig(n_layers=2, n_heads=2, head_dim=4, d_model=8, d_ff=16, vocab_size=11, max_seq_len=10)


def make_ckpt(seed=0, dtype=np.float32) -> Checkpoint:
    params = M.init_random(CFG, seed)
    if dtype is not np.float32:
        params = {k: v.astype(dtype) for k, v in params.items()}
    meta = Meta(name="toy", seed=seed, step_count=0, lineage=["random-init"])
    return Checkpoint(config=CFG, params=params, meta=meta)


class TestRoundtrip:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_save_load_bitwise(self, tmp_path, dtype):
        c = make_ckpt(3, dtype)
        p = tmp_path / "a.cbdc"
        save(c, str(p))
        assert checkpoints_equal(load(str(p)), c)

    def test_save_twice_identical_bytes(self, tmp_path):
        c = make_ckpt(5)
        p1, p2 = tmp_path / "a.cbdc", tmp_path / "b.cbdc"
        save(c, str(p1))
        save(c, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_mutated_weight_changes_bytes(self, tmp_path):
        c1 = make_ckpt(5)
        c2 = make_ckpt(5)
        arr = c2.params["embed.tok"].data.copy()
        arr[0, 0] += 1.0
        c2.params["embed.tok"] = Tensor(arr)
        p1, p2 = tmp_path / "a.cbdc", tmp_path / "b.cbdc"
        save(c1, str(p1))
        save(c2, str(p2))
        assert p1.read_bytes() != p2.read_bytes()

    def test_lineage_order_preserved(self, tmp_path):
        c = make_ckpt(1)
        c.meta.lineage.extend(["distilled-from:teacher", "interpolated alpha=0.5 between a,b"])
        p = tmp_path / "a.cbdc"
        save(c, str(p))
        assert load(str(p)).meta.lineage == c.meta.lineage

    def test_loss_curves_roundtrip(self, tmp_path):
        c = make_ckpt(1)
        c.meta.loss_curves.append({"stage": 0, "losses": [2.5, 2.25, 2.0]})
        p = tmp_path / "a.cbdc"
        save(c, str(p))
        assert load(str(p)).meta.loss_curves == c.meta.loss_curves

    def test_failed_save_keeps_old_file(self, tmp_path):
        p = tmp_path / "a.cbdc"
        save(make_ckpt(1), str(p))
        old = p.read_bytes()
        # a file-size limit below the checkpoint's size fails the write partway
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(old) // 2, limits[1]))
        try:
            with pytest.raises(OSError):
                save(make_ckpt(2), str(p))
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["a.cbdc"]


class TestFormat:
    def test_layout_fields(self, tmp_path):
        p = tmp_path / "a.cbdc"
        save(make_ckpt(0), str(p))
        raw = p.read_bytes()
        assert raw[:4] == b"CBDC"
        assert struct.unpack("<I", raw[4:8])[0] == 1
        hlen = struct.unpack("<Q", raw[8:16])[0]
        header = raw[16 : 16 + hlen].decode("utf-8")
        assert header.startswith('{"config":')

    def test_offsets_are_8_aligned(self, tmp_path):
        p = tmp_path / "a.cbdc"
        save(make_ckpt(0), str(p))
        for entry in load_header(str(p))["tensors"]:
            assert entry["byte_offset"] % 8 == 0

    def test_header_readable_without_payload(self, tmp_path):
        p = tmp_path / "a.cbdc"
        save(make_ckpt(0), str(p))
        header = load_header(str(p))
        assert header["config"]["d_model"] == 8
        assert header["meta"]["name"] == "toy"


class TestCorruption:
    def corrupt(self, tmp_path, mutate):
        p = tmp_path / "a.cbdc"
        save(make_ckpt(0), str(p))
        raw = bytearray(p.read_bytes())
        mutate(raw)
        p.write_bytes(bytes(raw))
        return str(p)

    def test_bad_magic(self, tmp_path):
        path = self.corrupt(tmp_path, lambda raw: raw.__setitem__(slice(0, 4), b"XXXX"))
        with pytest.raises(BadMagicError):
            load(path)

    def test_unsupported_version(self, tmp_path):
        path = self.corrupt(tmp_path, lambda raw: raw.__setitem__(slice(4, 8), struct.pack("<I", 9)))
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.cbdc"
        save(make_ckpt(0), str(p))
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(TruncatedDataError):
            load(str(p))

    def test_shape_config_mismatch(self, tmp_path):
        c = make_ckpt(0)
        bad = dict(c.params)
        bad["embed.tok"] = Tensor(np.zeros((3, 3), dtype=np.float32))
        broken = Checkpoint(config=CFG, params=bad, meta=c.meta)
        p = tmp_path / "a.cbdc"
        with pytest.raises(Exception):
            save(broken, str(p))  # rejected on save
        # also rejected on load if the header lies about the config
        save(c, str(p))
        raw = bytearray(p.read_bytes())
        hlen = struct.unpack("<Q", raw[8:16])[0]
        header = raw[16 : 16 + hlen].decode("utf-8")
        patched = header.replace('"d_model":8', '"d_model":4')
        assert len(patched) == len(header)
        raw[16 : 16 + hlen] = patched.encode("utf-8")
        p.write_bytes(bytes(raw))
        with pytest.raises(ShapeMismatchError):
            load(str(p))


def _rewrite_header(raw: bytearray, mutate) -> bytearray:
    """The same file with mutate(header) applied to its parsed JSON header."""
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16 : 16 + hlen])
    mutate(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :]


def _set(path, value):
    def mutate(header):
        *keys, last = path
        target = header
        for key in keys:
            target = target[key]
        target[last] = value
    return mutate


def _nan_payload(raw: bytearray) -> bytearray:
    hlen = struct.unpack("<Q", raw[8:16])[0]
    entry = json.loads(raw[16 : 16 + hlen])["tensors"][0]
    start = 16 + hlen + entry["byte_offset"]
    raw[start : start + 4] = np.float32("nan").tobytes()
    return raw


# each mutation of a saved checkpoint, and the error load must raise for it
MUTATIONS = {
    "negative byte_offset": (
        lambda raw: _rewrite_header(raw, _set(["tensors", 1, "byte_offset"], -8)), CorruptDataError),
    "overlapping offsets": (lambda raw: _rewrite_header(
        raw, lambda h: h["tensors"][1].update(byte_offset=h["tensors"][0]["byte_offset"] + 4)), CorruptDataError),
    "duplicated tensor entry": (lambda raw: _rewrite_header(
        raw, lambda h: h["tensors"].insert(1, dict(h["tensors"][0]))), CorruptDataError),
    "shape entry 'x'": (lambda raw: _rewrite_header(raw, _set(["tensors", 0, "shape", 0], "x")), CorruptDataError),
    "entry without dtype": (lambda raw: _rewrite_header(raw, lambda h: h["tensors"][0].pop("dtype")), CorruptDataError),
    "unhashable dtype": (lambda raw: _rewrite_header(raw, _set(["tensors", 0, "dtype"], [1])), ShapeMismatchError),
    "tensors is a string": (lambda raw: _rewrite_header(raw, _set(["tensors"], "zz")), CorruptDataError),
    "meta.seed not a number": (lambda raw: _rewrite_header(raw, _set(["meta", "seed"], "abc")), CorruptDataError),
    "config.vocab_size a float": (lambda raw: _rewrite_header(raw, _set(["config", "vocab_size"], 11.0)), ShapeMismatchError),
    "config.tied_lm_head an int": (lambda raw: _rewrite_header(raw, _set(["config", "tied_lm_head"], 1)), ShapeMismatchError),
    "NaN in a payload": (_nan_payload, CorruptDataError),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_corrupt_checkpoint_raises_checkpoint_error(tmp_path, mutation):
    mutate, error = MUTATIONS[mutation]
    p = tmp_path / "a.cbdc"
    save(make_ckpt(0), str(p))
    p.write_bytes(bytes(mutate(bytearray(p.read_bytes()))))
    with pytest.raises(CheckpointError) as info:
        load(str(p))
    assert type(info.value) is error
