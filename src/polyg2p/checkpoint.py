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
            model's language-token rule, training languages, schedule snapshot,
            and from training the split settings `config.SPLIT_FIELDS`)

The tensors are `model.param_specs`'s, in its order and with its canonical
shapes (weight matrices [out x in]), whatever layout the model holds in
memory: the format does not depend on how the products are computed. A load
accepts exactly that set of tensors, and no gate order but
`model.GATE_ORDER`. Every length in the header is checked against the bytes
left in the file before it is read, and the meta's layer counts against the
header's tensor count. Meta `epoch`, `languages` and `lang_token`, when
present, must be an integer >= 0, a list of strings and a boolean.

Round trips are bit-exact: loading and re-saving reproduces the same bytes.

`ModelBundle.source_ids` is the one gate from a user's spelling to the
model: it applies the lexicon's rules (`corpus.source_problem`) before it
builds the encoder's ids, so every command that decodes a typed word rejects
what a lexicon line would be rejected for, with the same message.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from typing import BinaryIO

import numpy as np

from .corpus import Vocabulary, atomic_write, source_problem, source_tokens, tokenize_graphemes
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
        """The encoder input for `word` in `lang` under this model's rule: the one
        gate from a user's spelling to the model. A word or language that a
        lexicon line would be rejected for (`corpus.source_problem`) raises
        ValueError with the lexicon's message; `lang` may be None only for a
        model without language tokens."""
        problem = source_problem(lang, word)
        if problem is not None:
            raise ValueError(problem)
        use_lang_token = self.uses_lang_token
        if use_lang_token and lang is None:
            raise ValueError("this model uses language tokens and needs a language code")
        return self.src_vocab.encode(source_tokens(tokenize_graphemes(word), lang, use_lang_token))


def _write_str(fh: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _write_vocab(fh: BinaryIO, vocab: Vocabulary) -> None:
    fh.write(struct.pack("<I", len(vocab)))
    for token in vocab.tokens:
        _write_str(fh, token)


class _Reader:
    """Reads a checkpoint file front to back. Every length is checked against
    the bytes left before it is read, so a corrupt one cannot ask for more
    memory than the file holds."""

    def __init__(self, fh: BinaryIO):
        self.fh, self.left = fh, os.fstat(fh.fileno()).st_size

    def need(self, n: int) -> None:
        if n > self.left:
            raise ValueError("truncated checkpoint file")

    def take(self, n: int) -> bytes:
        self.need(n)
        raw = self.fh.read(n)
        if len(raw) != n:
            raise ValueError("truncated checkpoint file")
        self.left -= n
        return raw

    def text(self) -> str:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n).decode("utf-8")

    def vocab(self) -> Vocabulary:
        (n,) = struct.unpack("<I", self.take(4))
        self.need(4 * n)  # each token takes at least its length field
        return Vocabulary([self.text() for _ in range(n)])


def save_checkpoint(path, bundle: ModelBundle) -> None:
    """Write `bundle` to `path` through `corpus.atomic_write`, so a crash
    mid-write leaves any earlier checkpoint at `path` as it was."""
    named = list(canonical_arrays(bundle.params, bundle.config).items())
    meta = dict(bundle.meta)
    meta["model"] = asdict(bundle.config)
    meta["gate_order"] = GATE_ORDER
    meta_json = json.dumps(meta, sort_keys=True, ensure_ascii=False, separators=(",", ":"))

    with atomic_write(path, "wb") as fh:
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


def load_checkpoint(path) -> ModelBundle:
    """Read a checkpoint; malformed content raises ValueError naming `path`."""
    try:
        with open(path, "rb") as fh:
            return _read_bundle(_Reader(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_bundle(r: _Reader) -> ModelBundle:
    if r.take(4) != MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", r.take(4))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", r.take(4))
    manifest: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(count):
        name = r.text()
        (rank,) = struct.unpack("<I", r.take(4))
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        # every dim is bounded too, or a zero dim would let another overflow
        r.need(4 * math.prod(max(d, 1) for d in dims))
        manifest.append((name, dims))
    # one read for every tensor: the arrays are views of it, and
    # params_from_arrays makes the only copy
    sizes = [math.prod(dims) for _, dims in manifest]
    data = np.frombuffer(r.take(4 * sum(sizes)), dtype="<f4")
    ends = np.cumsum(sizes)
    arrays = {name: data[end - size : end].reshape(dims)
              for (name, dims), size, end in zip(manifest, sizes, ends)}
    src_vocab = r.vocab()
    tgt_vocab = r.vocab()
    (meta_len,) = struct.unpack("<Q", r.take(8))
    meta = json.loads(r.take(meta_len).decode("utf-8"))

    if not isinstance(meta, dict) or "model" not in meta:
        raise ValueError("checkpoint meta has no model config")
    gate_order = meta.get("gate_order", GATE_ORDER)
    if gate_order != GATE_ORDER:
        raise ValueError(f"gate order {gate_order!r} is not this model's {GATE_ORDER!r}")
    try:
        config = ModelConfig(**meta.pop("model"))
    except TypeError as exc:  # an unknown or missing field
        raise ValueError(str(exc)) from None
    # `param_specs`'s count, checked before it builds a list that long
    if 7 + 6 * config.enc_layers + 3 * config.dec_layers != count:
        raise ValueError(f"{config.enc_layers} encoder and {config.dec_layers} decoder layers "
                         f"do not match the {count} tensors in the file")
    epoch = meta.get("epoch", 0)
    if type(epoch) is not int or epoch < 0:
        raise ValueError("meta epoch must be an integer >= 0")
    languages = meta.get("languages", [])
    if type(languages) is not list or not all(type(lang) is str for lang in languages):
        raise ValueError("meta languages must be a list of strings")
    if type(meta.get("lang_token", True)) is not bool:
        raise ValueError("meta lang_token must be true or false")
    return ModelBundle(params_from_arrays(config, arrays), config, src_vocab, tgt_vocab, meta)
