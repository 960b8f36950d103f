import ast
import io
import math
import os
import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyg2p
from polyg2p.corpus import (
    BOS,
    EOS,
    PAD,
    RESERVED,
    UNK,
    UNK_ID,
    CleanResult,
    LexiconEntry,
    atomic_write,
    build_vocab,
    clean_transcription,
    hamming,
    lang_token,
    open_text,
    parse_inventory,
    parse_lexicon,
    source_tokens,
    split_train_val,
    tokenize_graphemes,
)

PACKAGE = Path(polyg2p.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

WIKTIONARY_SAMPLE = (
    "deu\tAnsbach\ta: n s b a: x\n"
    "deu\tKaninchen\tk a: n I n x @ n\n"
    "eus\tuntxi\tu n̪ t̪ ʃ i\n"
)


def test_open_text_drops_a_leading_byte_order_mark(tmp_path):
    # a BOM-first file (as some editors save UTF-8) reads as the same lines;
    # kept, the BOM would start the first entry's language code
    text = WIKTIONARY_SAMPLE.replace("\n", "\r\n", 1).encode("utf-8")
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    lines = open_text(plain).readlines()
    assert lines == open_text(marked).readlines() == WIKTIONARY_SAMPLE.splitlines(keepends=True)
    assert parse_lexicon(open_text(marked)).entries[0].lang == "deu"
    assert open_text(marked).name == str(marked)


@pytest.mark.parametrize("data,line", [(b"\xff", 1), (b"a\nb\xfe\n", 2), (b"a\r\n\r\n\xc3", 3),
                                       (b"a\rb\rc\xff", 3), (b"\xef\xbb\xbf\n\n\x80", 3)])
def test_open_text_names_the_line_of_an_invalid_byte(tmp_path, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: not valid UTF-8$"):
        open_text(path)


def _calls_and_attributes(tree: ast.AST):
    """(innermost enclosing function's name or None, node) for every call and
    attribute in a module."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Call, ast.Attribute)):
                yield func, child
            yield from visit(child, child.name if isinstance(child, ast.FunctionDef) else func)
    return visit(tree, None)


def _can_write(call: ast.Call) -> bool:
    """Whether an `open(...)` call's mode may write: a literal mode with w, a,
    x or +, or a mode computed at run time other than `os.open`'s O_RDONLY."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    if isinstance(mode, ast.Attribute):
        return mode.attr != "O_RDONLY"
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def test_every_file_is_written_through_atomic_write():
    # the one write path, with no exception: an open() that can write,
    # Path.write_text/write_bytes, os.replace and os.fsync appear only in
    # corpus.atomic_write, in the package and in its scripts
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + scripts:
        for func, node in _calls_and_attributes(ast.parse(path.read_text(encoding="utf-8"))):
            where = (path.name, func)
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "os" \
                        and node.attr in ("replace", "fsync"):
                    found.append((*where, f"os.{node.attr}"))
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
            if name in ("write_text", "write_bytes"):
                found.append((*where, name))
            elif name == "open" and _can_write(node):
                found.append((*where, "open"))
    atomic_write = ("corpus.py", "atomic_write")
    assert sorted(found) == [(*atomic_write, "open"), (*atomic_write, "open"),
                             (*atomic_write, "os.fsync"), (*atomic_write, "os.fsync"),
                             (*atomic_write, "os.replace")]


def test_atomic_write_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    # a rename is durable only once its directory is synced (Pillai et al.,
    # OSDI 2014): the file's data, then the rename, then the directory
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    target = tmp_path / "out.txt"
    with atomic_write(target) as fh:
        fh.write("new\n")
    assert events == [("fsync", target.stat().st_ino), ("replace", "out.txt"),
                      ("fsync", tmp_path.stat().st_ino)]
    assert target.read_text(encoding="utf-8") == "new\n"


def test_parse_german_entry():
    entries, rejects = parse_lexicon(io.StringIO("deu\tAnsbach\ta: n s b a: x\n"))
    assert rejects == []
    assert entries == [
        LexiconEntry("deu", ("A", "n", "s", "b", "a", "c", "h"), ("a:", "n", "s", "b", "a:", "x"))
    ]


def test_parse_empty_stream():
    assert parse_lexicon(io.StringIO("")) == ([], [])


def test_parse_multi_codepoint_phonemes():
    entries, _ = parse_lexicon(io.StringIO("eus\tuntxi\tu n̪ t̪ ʃ i\n"))
    (entry,) = entries
    assert len(entry.graphemes) == 5
    assert len(entry.phonemes) == 5
    assert entry.phonemes[1] == "n̪"  # multi-codepoint token kept whole


def test_parse_rejects_malformed_lines():
    text = (
        "deu\tAnsbach\ta: n s\n"
        "too\tfew\n"
        "DEU\tAnsbach\ta:\n"
        "deu\t\ta:\n"
        "deu\tAnsbach\t\n"
        "deu\tAns bach\ta:\n"
        "deu\tAnsbach\ta: <EOS> x\n"
        "# a comment, ignored entirely\n"
        "\n"
        "eng\treal\tr i: l\n"
    )
    entries, rejects = parse_lexicon(io.StringIO(text))
    assert len(entries) == 2
    assert [r.line_no for r in rejects] == [2, 3, 4, 5, 6, 7]
    reasons = [r.reason for r in rejects]
    assert "expected 3 tab-separated fields, got 2" in reasons[0]
    assert "invalid language code" in reasons[1]
    assert reasons[5] == "reserved token <EOS> in phoneme field"


@given(st.lists(st.text(alphabet="ab\tc ", max_size=12), max_size=20))
def test_parse_never_raises_and_accounts_for_every_line(lines):
    stream = [line + "\n" for line in lines]
    entries, rejects = parse_lexicon(stream)
    countable = sum(1 for l in lines if l.strip() and not l.startswith("#"))
    assert len(entries) + len(rejects) == countable


def test_tokenize_real_with_language_token():
    graphemes = tokenize_graphemes("real")
    assert source_tokens(graphemes, "eng", True) == ("<eng>", "r", "e", "a", "l")
    assert source_tokens(graphemes, "eng", False) == ("r", "e", "a", "l")


def test_tokenize_preserves_case():
    assert source_tokens(tokenize_graphemes("Ansbach"), "deu", True) == (
        "<deu>", "A", "n", "s", "b", "a", "c", "h")


def test_tokenize_applies_nfc():
    decomposed = "é"  # e + combining acute
    assert tokenize_graphemes(decomposed) == (unicodedata.normalize("NFC", decomposed),)
    assert len(tokenize_graphemes(decomposed)) == 1


@given(st.text(min_size=1, max_size=10).filter(lambda w: unicodedata.normalize("NFC", w)))
def test_lang_token_is_exactly_a_prefix(word):
    graphemes = tokenize_graphemes(word)
    with_token = source_tokens(graphemes, "xyz", True)
    assert with_token == ("<xyz>",) + source_tokens(graphemes, "xyz", False)
    assert with_token == LexiconEntry("xyz", graphemes, ("p",)).source_tokens(True)


def _entry(lang, word, phones):
    return LexiconEntry(lang, tuple(word), tuple(phones.split()))


def test_build_vocab_frequency_then_lexicographic():
    entries = [_entry("aaa", "aab", "x"), _entry("aaa", "a", "x")]
    vocab = build_vocab(entries, "source", lang_tokens=False)
    assert vocab.tokens == RESERVED + ("a", "b")


def test_build_vocab_min_count_cutoff():
    entries = [_entry("aaa", "aab", "x"), _entry("aaa", "a", "x")]
    vocab = build_vocab(entries, "source", min_count=2, lang_tokens=False)
    assert vocab.tokens == RESERVED + ("a",)
    assert vocab.encode(["b"]) == [UNK_ID]
    for below_one in (0, -1):
        with pytest.raises(ValueError, match="min_count must be >= 1"):
            build_vocab(entries, "source", min_count=below_one)


def test_build_vocab_over_wiktionary_sample():
    entries, _ = parse_lexicon(io.StringIO(WIKTIONARY_SAMPLE))
    vocab = build_vocab(entries, "source")
    letters = set("Ansbach") | set("Kaninchen") | set("untxi")
    assert len(letters) == 13
    assert set(vocab.tokens) == set(RESERVED) | {"<deu>", "<eus>"} | letters


def test_vocab_reserved_slots_and_bijection():
    vocab = build_vocab([_entry("aaa", "ab", "p q")], "target")
    assert vocab.tokens[:4] == (PAD, BOS, EOS, UNK)
    for token, idx in vocab.index.items():
        assert vocab.tokens[idx] == token


def test_vocab_save_writes_one_token_per_line(tmp_path):
    vocab = build_vocab([_entry("deu", "ab", "p q")], "source")
    path = tmp_path / "v.vocab"
    vocab.save(path)
    assert path.read_text(encoding="utf-8").splitlines() == list(vocab.tokens)


@given(st.lists(
    st.tuples(st.sampled_from(["aaa", "bbb"]),
              st.text(alphabet="abcdef", min_size=1, max_size=6),
              st.lists(st.sampled_from(["p", "q", "r̃"]), min_size=1, max_size=4)),
    min_size=1, max_size=15))
def test_vocab_roundtrip_introduces_no_unk(raw):
    entries = [LexiconEntry(lang, tuple(word), tuple(phones)) for lang, word, phones in raw]
    src = build_vocab(entries, "source")
    tgt = build_vocab(entries, "target")
    for e in entries:
        tokens = e.source_tokens(True)
        assert src.decode(src.encode(tokens)) == list(tokens)
        assert tgt.decode(tgt.encode(e.phonemes)) == list(e.phonemes)


def _many(lang, n):
    return [_entry(lang, f"w{i}x", "p") for i in range(n)]


def test_split_paper_cap_gives_9000_train():
    split = split_train_val(_many("deu", 12000), seed=5)
    assert len(split.train) == 9000
    assert len(split.validation) == 1000


def test_split_single_entry_keeps_train_nonempty():
    split = split_train_val(_many("deu", 1), seed=5)
    assert len(split.train) == 1
    assert len(split.validation) == 0


def test_split_ceiling_rule():
    split = split_train_val(_many("deu", 25), seed=5)
    assert len(split.validation) == 3  # ceil(0.1 * 25)
    assert len(split.train) == 22


def test_split_is_deterministic_and_disjoint():
    entries = _many("aaa", 40) + _many("bbb", 7)
    one = split_train_val(entries, seed=9)
    two = split_train_val(entries, seed=9)
    assert one.train == two.train and one.validation == two.validation
    ids_train = {id(e) for e in one.train}
    assert not any(id(e) in ids_train for e in one.validation)
    other = split_train_val(entries, seed=10)
    assert other.train != one.train  # different seed reshuffles


@given(st.integers(1, 60), st.integers(0, 1000))
@settings(max_examples=40)
def test_split_counts_obey_cap_and_ceiling(n, seed):
    cap = 30
    split = split_train_val(_many("zzz", n), cap=cap, val_fraction=0.1, seed=seed)
    kept = min(n, cap)
    expected_val = min(math.ceil(0.1 * kept), kept - 1)
    assert len(split.validation) == expected_val
    assert len(split.train) == kept - expected_val
    assert len(split.train) >= 1


INVENTORY_SAMPLE = (
    "lang\tphoneme\tdorsal,continuant,voice\n"
    "deu\tx\t+,+,-\n"
    "deu\tk\t+,-,-\n"
    "deu\tg\t+,-,+\n"
    "# χ is not in the deu inventory but has features in other languages\n"
    "heb\tχ\t+,+,-\n"
)


def test_parse_inventory():
    table = parse_inventory(io.StringIO(INVENTORY_SAMPLE))
    assert set(table.by_lang) == {"deu", "heb"}
    assert table.by_lang["deu"] == {"x": (1, 1, -1), "k": (1, -1, -1), "g": (1, -1, 1)}
    assert table.features["χ"] == (1, 1, -1)


@pytest.mark.parametrize("row, message", [
    ("deu\tg\t+,-\n", "expected 3 feature values"),
    ("deu\tg\n", "expected 3 fields"),
    ("deu\tg\t+,-,?\n", "bad feature value '?'"),
])
def test_inventory_errors_name_file_and_line(tmp_path, row, message):
    path = tmp_path / "inv.tsv"
    path.write_text(INVENTORY_SAMPLE.replace("deu\tg\t+,-,+\n", row), encoding="utf-8")
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as err:
        parse_inventory(fh)
    assert str(err.value) == f"{path}:4: {message}"


def test_clean_maps_uvular_fricative_to_velar():
    table = parse_inventory(io.StringIO(INVENTORY_SAMPLE))
    result = clean_transcription(["χ", "k"], table.by_lang["deu"], table.features)
    assert result.phonemes == ("x", "k")
    assert result.warnings == []


def test_clean_identity_for_in_inventory_phoneme():
    table = parse_inventory(io.StringIO(INVENTORY_SAMPLE))
    assert clean_transcription(["x"], table.by_lang["deu"], table.features).phonemes == ("x",)


def test_clean_toy_hamming_example():
    inventory = {"m": (1, 1, 1), "n": (-1, -1, -1)}
    result = clean_transcription(["z"], inventory, {"z": (1, 1, -1)})
    assert result.phonemes == ("m",)  # distance 1 beats distance 2


def test_clean_tie_breaks_lexicographically():
    inventory = {"b": (0, 1, 0), "a": (1, 0, 0)}
    result = clean_transcription(["z"], inventory, {"z": (0, 0, 0)})
    assert result.phonemes == ("a",)  # both at distance 1


def test_clean_unknown_phoneme_passes_through_with_warning():
    inventory = {"a": (1,)}
    result = clean_transcription(["mystery"], inventory, {})
    assert result.phonemes == ("mystery",)
    assert len(result.warnings) == 1


@given(st.lists(st.sampled_from(["x", "k", "g", "χ", "q"]), min_size=1, max_size=8))
def test_clean_is_idempotent(phones):
    table = parse_inventory(io.StringIO(INVENTORY_SAMPLE))
    once = clean_transcription(phones, table.by_lang["deu"], table.features)
    twice = clean_transcription(once.phonemes, table.by_lang["deu"], table.features)
    assert twice.phonemes == once.phonemes


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError):
        hamming((1, 0), (1, 0, -1))


def test_lang_token_surface_form():
    assert lang_token("eng") == "<eng>"
