"""Self-describing binary checkpoints.

Layout (all integers little-endian):

    magic   4 bytes  b"MG2P"
    version u32
    count   u32                         named tensors
    per tensor: name_len u32, name utf-8, rank u32, dims rank x u64
    per tensor, manifest order: raw float32 data
    source vocabulary: count u32, per token: len u32 + utf-8 bytes
    target vocabulary: same encoding
    meta    u64 length + utf-8 JSON (model config, gate order, lang_token: the
            model's language-token rule, training languages, schedule snapshot)

Every matrix is written in its canonical layout, weight matrices [out x in],
whatever layout the model holds in memory (`model.TRANSPOSED`): the format
does not depend on how the products are computed.

Round trips are bit-exact: loading and re-saving reproduces the same bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .corpus import Vocabulary, source_tokens, tokenize_graphemes
from .model import GATE_ORDER, ModelConfig, ModelParams, canonical_arrays, params_from_arrays

MAGIC = b"MG2P"
VERSION = 1


@dataclass
class ModelBundle:
    """Everything needed to run a trained model: weights, config, vocabularies."""

    params: ModelParams
    config: ModelConfig
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    meta: dict

    @property
    def uses_lang_token(self) -> bool:
        """Whether the encoder reads `<lang>` before the graphemes: the one
        reader of meta ``lang_token`` (true when absent)."""
        return bool(self.meta.get("lang_token", True))

    def source_ids(self, word: str, lang: str | None) -> list[int]:
        """The encoder input for `word` in `lang` under this model's rule; `lang`
        may be None only for a model without language tokens."""
        use_lang_token = self.uses_lang_token
        if use_lang_token and lang is None:
            raise ValueError("this model uses language tokens and needs a language code")
        return self.src_vocab.encode(source_tokens(tokenize_graphemes(word), lang, use_lang_token))


def _write_str(fh: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError("truncated checkpoint file")
    return raw


def _read_str(fh: BinaryIO) -> str:
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, n).decode("utf-8")


def _write_vocab(fh: BinaryIO, vocab: Vocabulary) -> None:
    fh.write(struct.pack("<I", len(vocab)))
    for token in vocab.tokens:
        _write_str(fh, token)


def _read_vocab(fh: BinaryIO) -> Vocabulary:
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return Vocabulary([_read_str(fh) for _ in range(n)])


def save_checkpoint(path, bundle: ModelBundle) -> None:
    """Write `bundle` to `path` atomically: the bytes go to a temporary file in
    the same directory, which replaces `path` only once it is complete, so a
    crash mid-write leaves any earlier checkpoint at `path` as it was."""
    named = list(canonical_arrays(bundle.params).items())
    meta = dict(bundle.meta)
    meta["model"] = asdict(bundle.config)
    meta["gate_order"] = GATE_ORDER
    meta_json = json.dumps(meta, sort_keys=True, ensure_ascii=False, separators=(",", ":"))

    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(named)))
            for name, array in named:
                _write_str(fh, name)
                fh.write(struct.pack("<I", array.ndim))
                fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
            for _, array in named:
                fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())
            _write_vocab(fh, bundle.src_vocab)
            _write_vocab(fh, bundle.tgt_vocab)
            raw = meta_json.encode("utf-8")
            fh.write(struct.pack("<Q", len(raw)))
            fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> ModelBundle:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        manifest: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(count):
            name = _read_str(fh)
            (rank,) = struct.unpack("<I", _read_exact(fh, 4))
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank))
            manifest.append((name, tuple(int(d) for d in dims)))
        # one read for every tensor: the arrays are views of it, and
        # params_from_arrays makes the only copy
        sizes = [math.prod(dims) for _, dims in manifest]
        data = np.frombuffer(_read_exact(fh, 4 * sum(sizes)), dtype="<f4")
        ends = np.cumsum(sizes)
        arrays = {name: data[end - size : end].reshape(dims)
                  for (name, dims), size, end in zip(manifest, sizes, ends)}
        src_vocab = _read_vocab(fh)
        tgt_vocab = _read_vocab(fh)
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8))
        meta = json.loads(_read_exact(fh, meta_len).decode("utf-8"))

    try:
        config = ModelConfig(**meta.pop("model"))
        params = params_from_arrays(config, arrays)
    except KeyError:
        raise ValueError(f"{path}: checkpoint meta has no model config") from None
    except (TypeError, ValueError) as exc:  # an unknown field, or tensors that do not fit
        raise ValueError(f"{path}: {exc}") from None
    return ModelBundle(params, config, src_vocab, tgt_vocab, meta)
