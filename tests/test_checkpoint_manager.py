"""Tests for the checkpoint codec and the crash-safe CheckpointManager."""

import json
import os
import struct

import numpy as np
import pytest

from repro.checkpoint import (
    SCHEMA_VERSION,
    CheckpointCorruptError,
    CheckpointEncodeError,
    CheckpointManager,
    decode_tree,
    encode_tree,
)


def assert_tree_equal(a, b):
    """Structural bitwise equality for state_dict-style trees."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for k in a:
            assert_tree_equal(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_tree_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    else:
        assert type(a) is type(b)
        assert a == b or (a != a and b != b)  # NaN-tolerant


class TestTreeCodec:
    def test_roundtrip_nested_tree(self):
        tree = {
            "none": None,
            "flag": True,
            "count": 12345,
            "big": (1 << 127) + 17,  # PCG64-sized state word
            "pi": 0.1 + 0.2,  # not exactly representable in decimal
            "name": "deeppower",
            "arr": np.arange(12, dtype=np.float32).reshape(3, 4),
            "ints": np.array([1, 2, 3], dtype=np.int64),
            "nested": {"list": [1, [2, {"deep": np.zeros(2)}]]},
            "pair": (1, "two"),
            "blob": b"\x00\x01\xff",
        }
        skeleton, arrays = encode_tree(tree)
        # the skeleton must survive an actual JSON round-trip
        skeleton = json.loads(json.dumps(skeleton))
        out = decode_tree(skeleton, arrays)
        assert_tree_equal(out, tree)
        assert out["big"] == (1 << 127) + 17
        assert out["pair"] == (1, "two") and isinstance(out["pair"], tuple)
        assert out["blob"] == b"\x00\x01\xff"

    def test_numpy_scalar_keeps_dtype(self):
        skeleton, arrays = encode_tree({"t": np.float32(1.5), "n": np.int32(7)})
        out = decode_tree(skeleton, arrays)
        assert out["t"].dtype == np.float32 and out["t"] == np.float32(1.5)
        assert out["n"].dtype == np.int32 and out["n"] == 7

    def test_float64_bit_exact(self):
        vals = [0.1, 1e-300, np.nextafter(1.0, 2.0), float(np.pi)]
        skeleton, arrays = encode_tree(vals)
        out = decode_tree(json.loads(json.dumps(skeleton)), arrays)
        for a, b in zip(vals, out):
            assert struct.pack("<d", a) == struct.pack("<d", b)

    def test_arrays_are_copied_on_decode(self):
        src = np.arange(4.0)
        skeleton, arrays = encode_tree({"a": src})
        out = decode_tree(skeleton, arrays)
        out["a"][0] = 99.0
        assert arrays["a0"][0] == 0.0

    def test_non_string_key_raises(self):
        with pytest.raises(CheckpointEncodeError):
            encode_tree({1: "x"})

    def test_pickle_fallback_roundtrips_objects(self):
        class Thing:
            def __init__(self, v):
                self.v = v

            def __eq__(self, other):
                return self.v == other.v

        skeleton, arrays = encode_tree({"obj": {"v": 3}, "t": (1, 2)})
        assert decode_tree(skeleton, arrays) == {"obj": {"v": 3}, "t": (1, 2)}
        # a genuinely un-JSON-able object goes through pickle
        skeleton, arrays = encode_tree(complex(1, 2))
        assert decode_tree(skeleton, arrays) == complex(1, 2)

    def test_allow_pickle_false_rejects_objects(self):
        with pytest.raises(CheckpointEncodeError):
            encode_tree(complex(1, 2), allow_pickle=False)
        skeleton, arrays = encode_tree(complex(1, 2), allow_pickle=True)
        with pytest.raises(CheckpointEncodeError):
            decode_tree(skeleton, arrays, allow_pickle=False)


class TestCheckpointManager:
    def _state(self, k=0):
        return {"step": k, "w": np.full((2, 3), float(k)), "meta": ("a", k)}

    def test_save_load_roundtrip(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(self._state(3), step=3, meta={"kind": "test"})
        assert os.path.exists(path)
        rec = mgr.load(path)
        assert rec.step == 3
        assert rec.meta == {"kind": "test"}
        assert rec.schema == SCHEMA_VERSION
        assert_tree_equal(rec.state, self._state(3))
        assert_tree_equal(mgr.load_step(3).state, rec.state)

    def test_save_leaves_no_temp_files(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(self._state(), step=1)
        assert os.listdir(tmp_path) == ["ckpt-0000000001.dpck"]

    def test_rotation_keeps_last_n(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep_last=2)
        for k in range(5):
            mgr.save(self._state(k), step=k)
        assert mgr.list_steps() == [3, 4]
        assert mgr.latest_step() == 4

    def test_truncated_newest_falls_back_with_warning(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep_last=3)
        for k in (1, 2, 3):
            mgr.save(self._state(k), step=k)
        with open(mgr.path_for(3), "r+b") as f:
            f.truncate(os.path.getsize(mgr.path_for(3)) // 2)
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            rec = mgr.load_latest()
        assert rec is not None and rec.step == 2
        assert_tree_equal(rec.state, self._state(2))

    def test_all_corrupt_returns_none(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep_last=3)
        for k in (1, 2):
            mgr.save(self._state(k), step=k)
        for k in (1, 2):
            with open(mgr.path_for(k), "wb") as f:
                f.write(b"garbage")
        with pytest.warns(UserWarning):
            assert mgr.load_latest() is None

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointManager(str(tmp_path)).load_latest() is None
        assert CheckpointManager(str(tmp_path / "missing")).load_latest() is None

    def test_bit_flip_detected_by_crc(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(self._state(), step=1)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF  # damage the npz payload
        with open(path, "wb") as f:
            f.write(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="truncated or corrupt"):
            mgr.load(path)

    def test_bad_magic_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = str(tmp_path / "ckpt-0000000001.dpck")
        with open(path, "wb") as f:
            f.write(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointCorruptError, match="bad magic"):
            mgr.load(path)

    def test_unknown_schema_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(self._state(), step=1)
        blob = open(path, "rb").read()
        (hlen,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16 : 16 + hlen])
        header["schema"] = SCHEMA_VERSION + 1
        hb = json.dumps(header, separators=(",", ":")).encode()
        with open(path, "wb") as f:
            f.write(blob[:8] + struct.pack("<Q", len(hb)) + hb + blob[16 + hlen :])
        with pytest.raises(CheckpointCorruptError, match="schema"):
            mgr.load(path)

    def test_stray_files_ignored(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(self._state(), step=7)
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "ckpt-0000000009.dpck.tmp-123").write_text("partial")
        (tmp_path / "other-0000000005.dpck").write_text("different prefix")
        assert mgr.list_steps() == [7]

    def test_prefixes_share_directory(self, tmp_path):
        a = CheckpointManager(str(tmp_path), prefix="train")
        b = CheckpointManager(str(tmp_path), prefix="exp")
        a.save(self._state(1), step=1)
        b.save(self._state(2), step=9)
        assert a.list_steps() == [1]
        assert b.list_steps() == [9]

    def test_nested_dirs_created_on_demand(self, tmp_path):
        deep = os.path.join(str(tmp_path), "a", "b", "c")
        mgr = CheckpointManager(deep)
        mgr.save({"v": 1}, step=1)
        assert mgr.load_latest().state["v"] == 1

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), keep_last=0)
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), prefix="bad/prefix")
