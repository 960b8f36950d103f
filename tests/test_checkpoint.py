import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_in_x_out, in_x_out_shapes, rewrite_meta, tiny_model, toy_tgt_vocab
from polyg2p import checkpoint
from polyg2p.checkpoint import MAGIC, ModelBundle, load_checkpoint, save_checkpoint
from polyg2p.corpus import RESERVED, Vocabulary


def _bundle(seed=0):
    config, params = tiny_model(seed=seed, src_vocab=8, tgt_vocab=7)
    src_vocab = Vocabulary(RESERVED + ("<aaa>", "a", "b", "c"))
    tgt_vocab = toy_tgt_vocab(3)
    meta = {"lang_token": True, "languages": ["aaa"], "epoch": 4}
    return ModelBundle(params, config, src_vocab, tgt_vocab, meta)


def test_checkpoint_roundtrip_preserves_everything(tmp_path):
    bundle = _bundle()
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, bundle)
    loaded = load_checkpoint(path)

    assert loaded.config == bundle.config
    assert loaded.src_vocab.tokens == bundle.src_vocab.tokens
    assert loaded.tgt_vocab.tokens == bundle.tgt_vocab.tokens
    assert loaded.meta["languages"] == ["aaa"]
    assert loaded.meta["epoch"] == 4
    assert loaded.meta["gate_order"] == "input,forget,cell,output"
    for (name_a, t_a), (name_b, t_b) in zip(bundle.params.items(), loaded.params.items()):
        assert name_a == name_b
        assert np.array_equal(t_a.data, t_b.data), name_a


def test_checkpoint_with_another_gate_order_is_rejected(tmp_path):
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, _bundle())
    rewrite_meta(path, lambda meta: meta.update(gate_order="forget,input,cell,output"))
    with pytest.raises(ValueError, match=f"^{path}: gate order 'forget,input,cell,output'"):
        load_checkpoint(path)
    # a file without the key loads as before
    rewrite_meta(path, lambda meta: meta.pop("gate_order"))
    assert "gate_order" not in load_checkpoint(path).meta


def test_checkpoint_save_load_save_is_bit_exact(tmp_path):
    bundle = _bundle(seed=3)
    first = tmp_path / "a.mg2p"
    second = tmp_path / "b.mg2p"
    save_checkpoint(first, bundle)
    save_checkpoint(second, load_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_write_that_fails_midway_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, _bundle(seed=1))
    before = path.read_bytes()

    def fail(fh, vocab):  # after the header and every tensor are written
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "_write_vocab", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, _bundle(seed=2))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.mg2p"]  # no temporary file left
    monkeypatch.undo()
    save_checkpoint(path, _bundle(seed=2))
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["model.mg2p"]


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "junk.mg2p"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_guard(tmp_path):
    bundle = _bundle()
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, bundle)
    clipped = tmp_path / "clipped.mg2p"
    clipped.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(clipped)


def test_checkpoint_version_guard(tmp_path):
    bundle = _bundle()
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, bundle)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    bad = tmp_path / "versioned.mg2p"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad)
    assert bytes(raw[:4]) == MAGIC


def _manifest(raw: bytes) -> dict[str, tuple[int, ...]]:
    """Tensor names and dims from a checkpoint's header."""
    (count,) = struct.unpack_from("<I", raw, 8)
    offset, manifest = 12, {}
    for _ in range(count):
        (length,) = struct.unpack_from("<I", raw, offset)
        name = raw[offset + 4 : offset + 4 + length].decode("utf-8")
        (rank,) = struct.unpack_from("<I", raw, offset + 4 + length)
        offset += 8 + length
        manifest[name] = struct.unpack_from(f"<{rank}Q", raw, offset)
        offset += 8 * rank
    return manifest


def test_checkpoint_holds_weight_matrices_out_x_in(tmp_path):
    bundle = _bundle(seed=5)
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, bundle)
    manifest = _manifest(path.read_bytes())
    transposed = in_x_out_shapes(bundle.config)
    assert list(manifest) == list(bundle.params)
    for name, tensor in bundle.params.items():
        want = transposed[name][::-1] if name in transposed else tensor.data.shape
        assert manifest[name] == want, name
    loaded = load_checkpoint(path)
    assert_in_x_out(loaded.params, loaded.config)


def test_fixture_checkpoint_resaves_to_recorded_bytes(tmp_path):
    fixture = Path(__file__).resolve().parent.parent / "bench" / "fixture"
    record = json.loads((fixture / "fixture.json").read_text(encoding="utf-8"))
    path = tmp_path / "resaved.mg2p"
    save_checkpoint(path, load_checkpoint(fixture / record["checkpoint"]))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == record["sha256"]
