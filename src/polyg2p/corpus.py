"""Pronunciation lexicons: parsing, tokenization, vocabularies, and splits.

Lexicon files are UTF-8, one entry per line::

    lang<TAB>spelling<TAB>phoneme tokens separated by spaces

where ``lang`` is an ISO 639-3 code. Lines starting with ``#`` are ignored.
Spellings pass `source_problem`, then are tokenized into Unicode codepoints
after NFC normalization; phoneme fields are taken verbatim, split on
whitespace (`metrics` normalizes them only to score). Every text input
(lexicons, inventories, vocabularies, config files, `translate --input`) is
read through `open_text`, and every file the package writes, text or binary,
is written through `atomic_write`.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import math
import os
import re
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Reserved vocabulary slots, in fixed order. Uppercase so they can never
# collide with language-ID tokens, which are all-lowercase `<xxx>`.
PAD, BOS, EOS, UNK = "<PAD>", "<BOS>", "<EOS>", "<UNK>"
RESERVED = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
_RESERVED_SET = frozenset(RESERVED)

_LANG_RE = re.compile(r"[a-z]{3}")
_LANG_TOKEN_RE = re.compile(r"^<[a-z]{3}>$")


def lang_token(lang: str) -> str:
    """Surface form of the artificial language-ID token, e.g. ``<eng>``."""
    return f"<{lang}>"


def is_lang_token(token: str) -> bool:
    return _LANG_TOKEN_RE.match(token) is not None


@dataclass(frozen=True)
class LexiconEntry:
    """One (language, spelling, pronunciation) sample."""

    lang: str
    graphemes: tuple[str, ...]
    phonemes: tuple[str, ...]

    def source_tokens(self, use_lang_token: bool) -> tuple[str, ...]:
        return source_tokens(self.graphemes, self.lang, use_lang_token)


class Reject(NamedTuple):
    line_no: int
    line: str
    reason: str


class ParsedLexicon(NamedTuple):
    entries: list[LexiconEntry]
    rejects: list[Reject]


def tokenize_graphemes(word: str) -> tuple[str, ...]:
    """Split a spelling into codepoint tokens after NFC normalization; case is
    preserved. Checks nothing: a spelling from outside the program has passed
    `source_problem` before it gets here."""
    return tuple(unicodedata.normalize("NFC", word))


def source_tokens(graphemes: tuple[str, ...], lang: str,
                  use_lang_token: bool) -> tuple[str, ...]:
    """The encoder's input tokens: the graphemes, after `<lang>` when the model
    uses language tokens. The one place that adds the language token."""
    if use_lang_token:
        return (lang_token(lang),) + graphemes
    return graphemes


def source_problem(lang: str | None, spelling: str) -> str | None:
    """Why `spelling` in language `lang` cannot be a source, or None if it can:
    the one home of the lexicon's rules. Two callers apply them:
    `parse_lexicon` to each line, and `ModelBundle.source_ids` to every word a
    command decodes. A `lang` of None (no language given) is not checked."""
    if lang is not None and not _LANG_RE.fullmatch(lang):
        return f"invalid language code {lang!r}"
    if not spelling:
        return "empty spelling"
    if any(ch.isspace() for ch in spelling):
        return "spelling contains whitespace"
    return None


def open_text(path) -> io.StringIO:
    """UTF-8 text file `path` as a stream of lines, split like an open text
    file's (universal newlines) and carrying the path as `name`. A leading
    byte-order mark is dropped, so files saved by editors that write one read
    the same. An invalid byte raises ValueError `<path>:<line>: not valid
    UTF-8`, the line counted from the byte offset."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ValueError(f"{path}:{line}: not valid UTF-8") from None
    stream = io.StringIO(text, newline=None)
    stream.name = str(path)
    return stream


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open `path` for writing (mode "w", UTF-8 text, or "wb") so that it
    changes all at once. The data goes to `.{name}.{pid}.tmp` in the same
    directory, which on a clean exit is flushed, synced and renamed over
    `path`, and the directory is synced so that the new name survives a power
    cut; on an exception the temporary file is removed and `path` is left as
    it was, so a crash mid-write never leaves a torn file. The path is
    resolved first: a symlink keeps its link and the file it points to is
    replaced. A path that exists and is not a regular file (a FIFO, a device)
    is written in place."""
    target = Path(os.path.realpath(path))
    encoding = None if "b" in mode else "utf-8"
    if target.exists() and not target.is_file():  # replacing it would make it a plain file
        with open(target, mode, encoding=encoding) as fh:
            yield fh
        return
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, encoding=encoding)
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        directory = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_lexicon(stream: Iterable[str]) -> ParsedLexicon:
    """Parse a lexicon stream, collecting malformed lines instead of raising.

    Returns entries plus a list of rejects (line number, raw line, reason).
    Blank lines and ``#`` comment lines are skipped entirely.
    """
    entries: list[LexiconEntry] = []
    rejects: list[Reject] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            rejects.append(Reject(line_no, line, f"expected 3 tab-separated fields, got {len(fields)}"))
            continue
        lang, spelling, phoneme_field = fields
        problem = source_problem(lang, spelling)
        if problem is not None:
            rejects.append(Reject(line_no, line, problem))
            continue
        phonemes = tuple(phoneme_field.split())
        if not phonemes:
            rejects.append(Reject(line_no, line, "empty phoneme field"))
            continue
        if not _RESERVED_SET.isdisjoint(phonemes):
            token = next(p for p in phonemes if p in RESERVED)
            rejects.append(Reject(line_no, line, f"reserved token {token} in phoneme field"))
            continue
        entries.append(LexiconEntry(lang, tokenize_graphemes(spelling), phonemes))
    return ParsedLexicon(entries, rejects)


def write_lexicon(fh, entries: Iterable[LexiconEntry]) -> None:
    for e in entries:
        fh.write(f"{e.lang}\t{''.join(e.graphemes)}\t{' '.join(e.phonemes)}\n")


class Vocabulary:
    """Bijective token<->index map with PAD/BOS/EOS/UNK at indices 0..3."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[:4] != RESERVED:
            raise ValueError(f"first four tokens must be {RESERVED}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = tokens
        self.index = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to indices, falling back to UNK for unknown tokens."""
        return [self.index.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls([line.rstrip("\n") for line in open_text(path) if line.rstrip("\n")])


def build_vocab(
    entries: Sequence[LexiconEntry],
    side: str,
    min_count: int = 1,
    lang_tokens: bool = True,
) -> Vocabulary:
    """Build a vocabulary over one side of the corpus.

    Tokens are ordered by descending frequency, ties broken lexicographically,
    after the reserved slots. For the source side, language-ID tokens are
    counted like any other token when `lang_tokens` is set.
    """
    if not entries:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    counts: Counter[str] = Counter()
    for e in entries:
        counts.update(e.source_tokens(lang_tokens) if side == "source" else e.phonemes)
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    return Vocabulary(RESERVED + tuple(kept))


@dataclass
class DatasetSplit:
    train: list[LexiconEntry]
    validation: list[LexiconEntry]


DEFAULT_CAP = 10000          # words kept per language
DEFAULT_VAL_FRACTION = 0.1   # share of them held out for validation


def check_split(cap: int, val_fraction: float, seed: int) -> None:
    """Raise ValueError naming a split setting that `split_train_val` cannot use."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not 0 <= val_fraction < 1:
        raise ValueError("val_fraction must be in [0, 1)")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def split_train_val(
    entries: Sequence[LexiconEntry],
    cap: int = DEFAULT_CAP,
    val_fraction: float = DEFAULT_VAL_FRACTION,
    seed: int = 0,
) -> DatasetSplit:
    """Per-language capped train/validation split.

    Per language: the first `cap` entries in corpus order are kept, shuffled
    deterministically, and ceil(val_fraction * kept) go to validation -- except
    that train is never left empty for a language that has any entries.
    """
    check_split(cap, val_fraction, seed)
    by_lang: dict[str, list[LexiconEntry]] = defaultdict(list)
    for e in entries:
        by_lang[e.lang].append(e)
    train: list[LexiconEntry] = []
    validation: list[LexiconEntry] = []
    for lang in sorted(by_lang):
        kept = by_lang[lang][:cap]
        rng = np.random.default_rng([seed] + list(lang.encode("utf-8")))
        shuffled = [kept[i] for i in rng.permutation(len(kept))]
        n_val = min(math.ceil(val_fraction * len(kept)), len(kept) - 1)
        validation.extend(shuffled[:n_val])
        train.extend(shuffled[n_val:])
    return DatasetSplit(train, validation)


def encode_pairs(
    entries: Iterable[LexiconEntry],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    use_lang_token: bool,
) -> list[tuple[list[int], list[int]]]:
    """Encode entries into (source ids, target ids) pairs for the model."""
    return [
        (src_vocab.encode(e.source_tokens(use_lang_token)), tgt_vocab.encode(e.phonemes))
        for e in entries
    ]


# --- Phoneme inventories and transcription cleaning -------------------------

_FEATURE_VALUES = {"+": 1, "0": 0, "-": -1}


class InventoryTable(NamedTuple):
    by_lang: dict[str, dict[str, tuple[int, ...]]]  # lang -> its phonemes' feature vectors
    features: dict[str, tuple[int, ...]]  # global phoneme -> feature vector


def parse_inventory(stream: Iterable[str]) -> InventoryTable:
    """Parse an inventory file.

    Format: a header line ``lang<TAB>phoneme<TAB>name1,name2,...`` naming the
    features, then one row per (language, phoneme) with values in {+, 0, -}.
    A language's inventory is a dict from each of its phonemes to its feature
    vector, every vector as long as the header's feature list; `features`
    keeps each phoneme's first vector. Errors begin ``<file>:<line>:``, the
    file being the stream's ``name``.
    """
    where = getattr(stream, "name", "<inventory>")
    lines = iter(enumerate(stream, start=1))
    header = None
    for _, raw in lines:
        line = raw.rstrip("\r\n")
        if line.strip() and not line.startswith("#"):
            header = line.split("\t")
            break
    if header is None or len(header) != 3:
        raise ValueError(f"{where}: inventory file needs a 3-field header line")
    n_features = len(header[2].split(","))

    per_lang_features: dict[str, dict[str, tuple[int, ...]]] = defaultdict(dict)
    global_features: dict[str, tuple[int, ...]] = {}
    for line_no, raw in lines:
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{where}:{line_no}: expected 3 fields")
        lang, phoneme, values = fields
        parts = values.split(",")
        if len(parts) != n_features:
            raise ValueError(f"{where}:{line_no}: expected {n_features} feature values")
        try:
            vector = tuple(_FEATURE_VALUES[p] for p in parts)
        except KeyError as exc:
            raise ValueError(f"{where}:{line_no}: bad feature value {exc}") from None
        per_lang_features[lang][phoneme] = vector
        global_features.setdefault(phoneme, vector)

    return InventoryTable(dict(per_lang_features), global_features)


class CleanResult(NamedTuple):
    phonemes: tuple[str, ...]
    warnings: list[str]


def hamming(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError(f"feature vectors of different length: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def clean_transcription(
    phonemes: Sequence[str],
    inventory: dict[str, tuple[int, ...]],
    feature_table: dict[str, tuple[int, ...]],
) -> CleanResult:
    """Map phonemes missing from `inventory` (one language's phoneme ->
    feature vector dict) to the nearest phoneme in it.

    Nearest = minimal Hamming distance between articulatory feature vectors,
    ties broken lexicographically. Phonemes without a feature vector in the
    (global) feature table pass through unchanged with a warning. Idempotent.
    """
    cleaned: list[str] = []
    warnings: list[str] = []
    for p in phonemes:
        if p in inventory:
            cleaned.append(p)
            continue
        vector = feature_table.get(p)
        if vector is None:
            warnings.append(f"no feature vector for {p!r}; left unchanged")
            cleaned.append(p)
            continue
        best = min(inventory, key=lambda q: (hamming(vector, inventory[q]), q))
        cleaned.append(best)
    return CleanResult(tuple(cleaned), warnings)
