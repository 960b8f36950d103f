import contextlib
import dataclasses
import hashlib
import io
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_in_x_out, in_x_out_shapes, rewrite_meta, tiny_model, toy_tgt_vocab
from polyg2p import checkpoint
from polyg2p.checkpoint import MAGIC, ModelBundle, load_checkpoint, save_checkpoint
from polyg2p.cli import main
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


@pytest.mark.parametrize("command", [["translate", "--word", "cab", "--lang", "aaa"],
                                     ["analyze", "--mode", "phonemes", "--query", "p3"]])
@pytest.mark.parametrize("sizes", [(6, 7), (8, 5)], ids=["source", "target"])
def test_checkpoint_whose_vocabulary_disagrees_with_its_config_is_user_error(
        tmp_path, capsys, sizes, command):
    bundle = _bundle()  # 8 source and 7 target tokens
    bundle.config, bundle.params = tiny_model(src_vocab=sizes[0], tgt_vocab=sizes[1])
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, bundle)
    code = main([command[0], "--checkpoint", str(path)] + command[1:])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ") and "vocabulary has" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("layers", [(1, 3), (3, 1), (2, 2)])
@pytest.mark.parametrize("input_feeding", [True, False])
def test_checkpoint_of_any_depth_loads(tmp_path, layers, input_feeding):
    # the layer counts in meta are checked against the header's tensor count
    config, params = tiny_model(seed=4, src_vocab=8, tgt_vocab=7, enc_layers=layers[0],
                                dec_layers=layers[1], input_feeding=input_feeding)
    path = tmp_path / "model.mg2p"
    save_checkpoint(path, dataclasses.replace(_bundle(), params=params, config=config))
    assert load_checkpoint(path).config == config


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A tiny checkpoint's bytes, and the path its edited copies go to."""
    path = tmp_path_factory.mktemp("fuzz") / "tiny.mg2p"
    save_checkpoint(path, _bundle())
    return path.read_bytes(), path.with_name("edited.mg2p")


def _sections(raw: bytes) -> list[tuple[int, int]]:
    """[start, end) of a checkpoint's header, tensor block, vocabularies and meta."""
    meta = next(p for p in range(len(raw) - 2, 8, -1)
                if struct.unpack("<Q", raw[p - 8 : p])[0] == len(raw) - p) - 8
    vocabs = raw.index(struct.pack("<I", len(RESERVED[0])) + RESERVED[0].encode()) - 4
    tensors = vocabs - 4 * sum(math.prod(dims) for dims in _manifest(raw).values())
    return [(0, tensors), (tensors, vocabs), (vocabs, meta), (meta, len(raw))]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(data=st.data())
def test_checkpoint_truncations_and_byte_edits_exit_0_or_1(tiny_checkpoint, data):
    # in every section of the file, each drawn about as often, though the
    # tensor block is most of it. An edit inside the float data may still
    # load, since no digest covers it.
    raw, path = tiny_checkpoint
    start, end = data.draw(st.sampled_from(_sections(raw)), label="section")
    offset = data.draw(st.integers(start, end - 1), label="offset")
    value = data.draw(st.none() | st.integers(0, 255), label="byte (None truncates)")
    path.write_bytes(raw[:offset] if value is None else
                     raw[:offset] + bytes([value]) + raw[offset + 1 :])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["translate", "--checkpoint", str(path), "--word", "ab", "--lang", "aaa",
                     "--width", "2"])
    assert code in (0, 1), err.getvalue()[-300:]
    if code == 1:
        assert err.getvalue().startswith(f"error: {path}: "), err.getvalue()[-300:]


def test_fixture_checkpoint_resaves_to_recorded_bytes(tmp_path):
    fixture = Path(__file__).resolve().parent.parent / "bench" / "fixture"
    record = json.loads((fixture / "fixture.json").read_text(encoding="utf-8"))
    path = tmp_path / "resaved.mg2p"
    save_checkpoint(path, load_checkpoint(fixture / record["checkpoint"]))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == record["sha256"]
