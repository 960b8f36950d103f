import contextlib
import dataclasses
import errno
import io
import json
import os
import re
import runpy
import stat
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import rewrite_meta
from polyg2p import cli, decoding
from polyg2p.checkpoint import load_checkpoint
from polyg2p.cli import main
from polyg2p.config import ConfigError, RunConfig, load_config
from polyg2p.corpus import is_lang_token
from polyg2p.decoding import beam_search
from polyg2p.model import train_model

LEXICON = (
    "aaa\tbaba\tβ ɑ β ɑ\n"
    "aaa\tabab\tɑ β ɑ β\n"
    "aaa\tbb\tβ β\n"
    "aaa\taa\tɑ ɑ\n"
    "aaa\tab\tɑ β\n"
    "bbb\tbaba\tq i q i\n"
    "bbb\tabab\ti q i q\n"
    "bbb\tbb\tq q\n"
    "bbb\taa\ti i\n"
    "bbb\tba\tq i\n"
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

FAST = ["--hidden-size", "8", "--src-embed", "6", "--tgt-embed", "6", "--dropout", "0",
        "--epochs", "2", "--batch-size", "4", "--lr", "0.5", "--seed", "3",
        "--val-fraction", "0.2"]


@pytest.fixture
def lexicon(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text(LEXICON, encoding="utf-8")
    return path


@pytest.fixture
def run_dir(tmp_path, lexicon):
    out = tmp_path / "run"
    code = main(["train", "--train-lexicon", str(lexicon),
                 "--checkpoint-dir", str(out)] + FAST)
    assert code == 0
    return out


def test_prepare_writes_artifacts(tmp_path, lexicon):
    out = tmp_path / "prep"
    code = main(["prepare", "--train-lexicon", str(lexicon), "--out", str(out),
                 "--val-fraction", "0.2", "--seed", "3"])
    assert code == 0
    for name in ("train.tsv", "val.tsv", "src.vocab", "tgt.vocab", "stats.tsv",
                 "run_manifest.json"):
        assert (out / name).exists(), name
    stats = (out / "stats.tsv").read_text(encoding="utf-8")
    assert "aaa\t4\t1" in stats
    assert "#languages\t2" in stats
    vocab = (out / "src.vocab").read_text(encoding="utf-8").splitlines()
    assert "<aaa>" in vocab and "<bbb>" in vocab
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "prepare"
    assert manifest["config"]["val_fraction"] == 0.2


def test_prepare_language_filter(tmp_path, lexicon):
    out = tmp_path / "prep"
    code = main(["prepare", "--train-lexicon", str(lexicon), "--out", str(out),
                 "--language-filter", "aaa"])
    assert code == 0
    stats = (out / "stats.tsv").read_text(encoding="utf-8")
    assert "#languages\t1" in stats
    assert "bbb" not in stats


def test_prepare_empty_filter_is_user_error(tmp_path, lexicon, capsys):
    code = main(["prepare", "--train-lexicon", str(lexicon), "--out", str(tmp_path / "x"),
                 "--language-filter", ","])
    assert code == 1
    assert "filter" in capsys.readouterr().err


def test_prepare_unreadable_lexicon_is_user_error(tmp_path, capsys):
    code = main(["prepare", "--train-lexicon", str(tmp_path / "missing.tsv"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert str(tmp_path / "missing.tsv") in capsys.readouterr().err


# each text reader's input with an invalid UTF-8 byte on line 3 (after a
# CRLF line, which counts once), and the command that reads it
INVALID_UTF8 = {
    "lexicon": (b"aaa\tbaba\t\xce\xb2 \xc9\x91\r\naaa\tbb\t\xce\xb2 \xce\xb2\naaa\tb\xffb\tq q\n",
                ["prepare", "--out", "{tmp}/prep", "--train-lexicon", "{file}"]),
    "inventory": (b"lang\tphoneme\tvoice\r\naaa\t\xce\xb2\t+\naaa\t\xff\t-\n",
                  ["prepare", "--out", "{tmp}/prep", "--train-lexicon", "{lexicon}", "--clean",
                   "--inventory", "{file}"]),
    "config": (b"seed = 3\r\n# a comment\nhidden_size = \xff8\n",
               ["prepare", "--out", "{tmp}/prep", "--train-lexicon", "{lexicon}",
                "--config", "{file}"]),
    "translate --input": (b"aaa\tba\r\n\nbbb\t\xffab\n",
                          ["translate", "--checkpoint", "{run}/final.mg2p", "--input", "{file}"]),
}


@pytest.mark.parametrize("reader", sorted(INVALID_UTF8))
def test_invalid_utf8_names_the_file_and_line(request, tmp_path, lexicon, capsys, reader):
    data, argv = INVALID_UTF8[reader]
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    run = request.getfixturevalue("run_dir") if reader == "translate --input" else None
    capsys.readouterr()
    code = main([arg.format(tmp=tmp_path, file=path, lexicon=lexicon, run=run) for arg in argv])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}:3: not valid UTF-8\n"


@pytest.mark.parametrize("command,flag,corpus", [("prepare", "--train-lexicon", "training"),
                                                 ("evaluate", "--test-lexicon", "test")])
def test_empty_corpus_names_the_file(run_dir, tmp_path, capsys, command, flag, corpus):
    path = tmp_path / "empty.tsv"
    path.write_text("# comments only\n", encoding="utf-8")
    args = ["--out", str(tmp_path / "out")]
    if command == "evaluate":
        args += ["--checkpoint", str(run_dir / "final.mg2p")]
    capsys.readouterr()
    assert main([command, flag, str(path)] + args) == 1
    assert capsys.readouterr().err == f"error: {path}: empty {corpus} corpus\n"


def test_inventory_error_names_file_and_line(tmp_path, lexicon, capsys):
    inventory = tmp_path / "inv.tsv"
    inventory.write_text("lang\tphoneme\tvoice,nasal\naaa\tβ\t+,-\naaa\tɑ\t+\n",
                         encoding="utf-8")
    code = main(["prepare", "--train-lexicon", str(lexicon), "--out", str(tmp_path / "prep"),
                 "--clean", "--inventory", str(inventory)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {inventory}:3: expected 2 feature values\n"


def test_clean_warns_once_per_language_naming_the_inventory(tmp_path, lexicon, capsys):
    # no language's inventory gives β a feature vector, so aaa keeps its β;
    # bbb has no inventory at all
    inventory = tmp_path / "inv.tsv"
    inventory.write_text("lang\tphoneme\tvoice\naaa\tɑ\t+\n", encoding="utf-8")
    out = tmp_path / "prep"
    capsys.readouterr()
    assert main(["prepare", "--train-lexicon", str(lexicon), "--out", str(out),
                 "--clean", "--inventory", str(inventory)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"{inventory}: aaa: no feature vector for 'β'; left unchanged",
        f"{inventory}: no inventory for bbb; transcriptions left as-is"]
    assert "β" in (out / "train.tsv").read_text(encoding="utf-8")


def test_train_writes_checkpoints_and_log(run_dir):
    assert (run_dir / "final.mg2p").exists()
    assert (run_dir / "best.mg2p").exists()
    log = (run_dir / "training_log.tsv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "epoch\tlr\ttrain_loss\tval_loss"
    assert len(log) == 3  # header + 2 epochs
    assert json.loads((run_dir / "run_manifest.json").read_text())["command"] == "train"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_that_diverges_is_a_user_error(tmp_path, lexicon, capsys):
    # at lr 1e38 an update overflows float32, and a later batch's loss is not finite
    out = tmp_path / "diverged"
    code = main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(out)]
                + FAST + ["--lr", "1e38", "--val-fraction", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: non-finite loss or gradient at epoch 1, batch 2; no parameter was updated"]
    assert "Traceback" not in err
    assert not list(out.glob("*.mg2p"))


def test_train_default_config_runs_13_epochs_and_writes_2_checkpoints(tmp_path, lexicon):
    out = tmp_path / "defaults"
    code = main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(out)])
    assert code == 0
    log = (out / "training_log.tsv").read_text(encoding="utf-8").splitlines()
    assert len(log) == 14  # header + the default 13 epochs
    assert sorted(p.name for p in out.glob("*.mg2p")) == ["best.mg2p", "final.mg2p"]


def test_train_resume_continues_epoch_numbering(tmp_path, lexicon, run_dir):
    code = main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(run_dir),
                 "--resume", str(run_dir / "final.mg2p")] + FAST[:-4] + ["--seed", "3",
                 "--val-fraction", "0.2", "--epochs", "4"])
    assert code == 0
    log = (run_dir / "training_log.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in log[1:]] == ["1", "2", "3", "4"]


def test_resume_from_an_earlier_checkpoint_drops_the_superseded_epochs(tmp_path, lexicon):
    # the log is the history of the final.mg2p next to it: resuming the 2-epoch
    # checkpoint a second time replaces the first resume's epochs 3 and 4
    run = tmp_path / "run"
    train = ["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(run)] + FAST
    assert main(train) == 0
    first = (run / "training_log.tsv").read_text(encoding="utf-8").splitlines()
    earlier = tmp_path / "epoch2.mg2p"
    earlier.write_bytes((run / "final.mg2p").read_bytes())
    for lr in ("0.5", "0.25"):
        assert main(train + ["--epochs", "4", "--lr", lr, "--resume", str(earlier)]) == 0
    log = (run / "training_log.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in log[1:]] == ["1", "2", "3", "4"]
    assert log[:3] == first
    assert [line.split("\t")[1] for line in log[3:]] == ["0.250000", "0.250000"]


def test_resume_drops_a_torn_last_line_of_the_log(tmp_path, lexicon, run_dir):
    # a crash mid-write of an older writer could leave the last line without
    # its newline; the resumed log keeps only whole lines of earlier epochs
    log_path = run_dir / "training_log.tsv"
    whole = log_path.read_text(encoding="utf-8")
    log_path.write_text(whole + "3\t0.5", encoding="utf-8")
    assert main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(run_dir),
                 "--resume", str(run_dir / "final.mg2p")] + FAST + ["--epochs", "3"]) == 0
    log = log_path.read_text(encoding="utf-8")
    assert log.startswith(whole)
    fields = [line.split("\t") for line in log.splitlines()]
    assert [row[0] for row in fields[1:]] == ["1", "2", "3"]
    assert {len(row) for row in fields} == {4}


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--batch-size", "0"], "batch_size must be >= 1"),
    (["--lr", "-1"], "lr must be >= 0"),
    (["--clip", "-1"], "clip must be > 0"),
    (["--lr-decay-factor", "0.5"], "lr_decay_factor and lr_decay_start must be set together"),
    (["--lr-decay-factor", "0", "--lr-decay-start", "2"], "lr_decay_factor must be > 0"),
    (["--lr-decay-factor", "0.5", "--lr-decay-start", "0"], "lr_decay_start must be >= 1"),
], ids=["epochs", "batch_size", "lr", "clip", "decay_factor_alone", "decay_factor", "decay_start"])
def test_invalid_schedule_is_user_error_before_anything_is_written(run_dir, lexicon, capsys,
                                                                   flags, message):
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    code = main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(run_dir)]
                + FAST + flags)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("command, dir_flag", [("prepare", "--out"),
                                              ("train", "--checkpoint-dir")])
@pytest.mark.parametrize("flags, message", [
    (["--cap", "0"], "cap must be >= 1"),
    (["--val-fraction", "1.5"], "val_fraction must be in [0, 1)"),
    (["--seed", "-1"], "seed must be >= 0"),
], ids=["cap", "val_fraction", "seed"])
def test_invalid_split_setting_is_user_error_before_any_directory_is_made(
        tmp_path, lexicon, capsys, command, dir_flag, flags, message):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--train-lexicon", str(lexicon), dir_flag, str(out)] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--hidden-size", "3"], "hidden_size must be even (split across encoder directions)"),
    (["--dropout", "1.0"], "dropout must be in [0, 1)"),
], ids=["hidden_size", "dropout"])
def test_invalid_model_setting_is_user_error_before_any_directory_is_made(
        tmp_path, lexicon, capsys, flags, message):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(out)]
                + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_width_zero_is_user_error_before_anything_is_decoded(
        run_dir, lexicon, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(decoding, "beam_search", lambda *args, **kwargs: pytest.fail("decoded"))
    out = tmp_path / "report"
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--test-lexicon", str(lexicon), "--width", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: beam_width must be >= 1\n"
    assert not out.exists()


def test_out_of_range_config_value_names_the_file_that_set_it(tmp_path, lexicon, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("cap = 0\n", encoding="utf-8")
    prepare = ["prepare", "--train-lexicon", str(lexicon), "--config", str(config)]
    capsys.readouterr()
    assert main(prepare + ["--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err == f"error: {config}: cap must be >= 1\n"
    assert not (tmp_path / "a").exists()
    # a flag's value wins over the file's, and a bad one is the flag's
    assert main(prepare + ["--out", str(tmp_path / "b"), "--cap", "2"]) == 0
    config.write_text("cap = 2\n", encoding="utf-8")
    capsys.readouterr()
    assert main(prepare + ["--out", str(tmp_path / "c"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("trained, opposite", [("--lang-token", "--no-lang-token"),
                                               ("--no-lang-token", "--lang-token")],
                         ids=["lang_token_model", "no_lang_token_model"])
def test_resume_keeps_the_checkpoints_language_token_rule(tmp_path, lexicon, monkeypatch,
                                                         trained, opposite):
    train = ["train", "--train-lexicon", str(lexicon)] + FAST
    first = tmp_path / "first"
    assert main(train + ["--checkpoint-dir", str(first), trained]) == 0
    sources = []

    def recording_train_model(pairs, *args, **kwargs):
        sources.append([src for src, _ in pairs])
        return train_model(pairs, *args, **kwargs)

    monkeypatch.setattr(cli, "train_model", recording_train_model)
    for flag in (trained, opposite):
        assert main(train + ["--checkpoint-dir", str(tmp_path / flag), flag, "--epochs", "3",
                             "--resume", str(first / "final.mg2p")]) == 0

    uses_lang = trained == "--lang-token"
    resumed = load_checkpoint(tmp_path / opposite / "final.mg2p")
    assert resumed.meta["lang_token"] is uses_lang
    assert resumed.src_vocab.tokens == load_checkpoint(first / "final.mg2p").src_vocab.tokens
    assert sources[0] == sources[1]
    assert all(is_lang_token(resumed.src_vocab.tokens[src[0]]) is uses_lang
               for src in sources[1])
    assert ((tmp_path / opposite / "final.mg2p").read_bytes()
            == (tmp_path / trained / "final.mg2p").read_bytes())
    manifest = json.loads((tmp_path / opposite / "run_manifest.json").read_text())
    assert manifest["config"]["lang_token"] is uses_lang
    log = (tmp_path / opposite / "training_log.tsv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "epoch\tlr\ttrain_loss\tval_loss"
    assert [line.split("\t")[0] for line in log[1:]] == ["3"]


@pytest.mark.parametrize("flags", [["--seed", "4"], ["--val-fraction", "0.5"], ["--cap", "3"],
                                   ["--language-filter", "aaa"]],
                         ids=["seed", "val_fraction", "cap", "language_filter"])
def test_resume_keeps_the_checkpoints_split(tmp_path, lexicon, run_dir, monkeypatch, flags):
    # the seed-3 run holds out aaa `bb` and bbb `ba`; a resumed run that split
    # again under other settings would train on them
    held_out = []

    def recording_train_model(train_pairs, val_pairs, *args, **kwargs):
        held_out.extend(val_pairs)
        return train_model(train_pairs, val_pairs, *args, **kwargs)

    monkeypatch.setattr(cli, "train_model", recording_train_model)
    out = tmp_path / "resumed"
    assert main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(out),
                 "--resume", str(run_dir / "final.mg2p")] + FAST + flags + ["--epochs", "3"]) == 0
    tgt_vocab = load_checkpoint(run_dir / "final.mg2p").tgt_vocab
    assert sorted(tuple(tgt_vocab.decode(tgt)) for _, tgt in held_out) == [("q", "i"), ("β", "β")]
    recorded = {"seed": 3, "val_fraction": 0.2, "cap": RunConfig.cap, "language_filter": None}
    assert json.loads((out / "run_manifest.json").read_text())["config"].items() >= \
        recorded.items()
    assert load_checkpoint(out / "final.mg2p").meta.items() >= recorded.items()


@pytest.mark.parametrize("setting, value, message", [
    ("cap", 0, "cap must be >= 1"),
    ("val_fraction", 1.5, "val_fraction must be in [0, 1)"),
])
def test_resume_out_of_range_split_setting_names_the_checkpoint(run_dir, tmp_path, lexicon,
                                                                capsys, setting, value, message):
    path = tmp_path / "bad.mg2p"
    path.write_bytes((run_dir / "final.mg2p").read_bytes())
    rewrite_meta(path, lambda meta: meta.update({setting: value}))
    code = main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir",
                 str(tmp_path / "resumed"), "--resume", str(path)] + FAST + ["--epochs", "3"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "resumed").exists()


def test_translate_single_word(run_dir, capsys):
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--word", "ba", "--lang", "aaa", "--width", "5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert 1 <= len(lines) <= 5
    word, rank, logprob, phones = lines[0].split("\t")
    assert word == "ba" and rank == "1"
    assert float(logprob) <= 0.0


def test_translate_requires_lang_for_langid_model(run_dir, capsys):
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"), "--word", "ba"])
    assert code == 1
    assert "language" in capsys.readouterr().err


def test_translate_unseen_language_warns_but_proceeds(run_dir, capsys):
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--word", "ba", "--lang", "zzz"])
    assert code == 0
    captured = capsys.readouterr()
    assert "unseen" in captured.err
    assert captured.out.startswith("ba\t1\t")


def test_translate_input_file(run_dir, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("aaa\tba\nbbb\tab\n", encoding="utf-8")
    out = tmp_path / "nbest.tsv"
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--input", str(words), "--width", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("ba\t1\t") for line in lines)
    assert any(line.startswith("ab\t1\t") for line in lines)


def test_translate_input_warns_once_per_unseen_language_before_decoding(run_dir, tmp_path,
                                                                        capsys, monkeypatch):
    err_at_first_decode = []

    def recording_beam_search(*args, **kwargs):
        if not err_at_first_decode:
            err_at_first_decode.append(capsys.readouterr().err)
        return beam_search(*args, **kwargs)

    monkeypatch.setattr(decoding, "beam_search", recording_beam_search)
    words = tmp_path / "words.txt"
    words.write_text("zzz\tba\nzzz\tab\nzzz\tbab\n", encoding="utf-8")
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--input", str(words), "--width", "2"])
    assert code == 0
    assert err_at_first_decode == [
        "warning: language 'zzz' unseen in training; using an untrained token\n"]
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split("\t")[:2] for line in captured.out.splitlines()
            if line.split("\t")[1] == "1"] == [["ba", "1"], ["ab", "1"], ["bab", "1"]]


@pytest.mark.parametrize("line,reason", [
    ("\tba", "invalid language code ''"),
    ("XX\tba", "invalid language code 'XX'"),
    ("aaa\ta b", "spelling contains whitespace"),
    ("aaa\t", "empty spelling"),
])
def test_translate_input_is_checked_like_a_lexicon(run_dir, tmp_path, capsys, line, reason):
    # every line is checked before any output, and an error names the file and line
    words = tmp_path / "words.txt"
    words.write_text(f"aaa\tba\n# comment\n{line}\n", encoding="utf-8")
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--input", str(words), "--width", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {words}:3: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["translate", "crosstoken"])
@pytest.mark.parametrize("word,lang,reason", [
    ("a b", "aaa", "spelling contains whitespace"),
    ("", "aaa", "empty spelling"),
    ("ba", "XX", "invalid language code 'XX'"),
    ("ba", "", "invalid language code ''"),
])
def test_translate_word_is_checked_like_a_lexicon(run_dir, capsys, word, lang, reason, command):
    # both commands reach the model through ModelBundle.source_ids; crosstoken
    # asks for a word and a language before that gate
    if command == "translate":
        argv = ["translate", "--word", word, "--lang", lang]
    else:
        argv = ["analyze", "--mode", "crosstoken", "--word", word, "--langs", lang]
        if not word or not lang:
            reason = "crosstoken mode needs --word and --langs"
    code = main(argv + ["--checkpoint", str(run_dir / "final.mg2p")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {reason}\n"
    assert captured.out == ""


def test_translate_missing_checkpoint_is_user_error(tmp_path, capsys):
    code = main(["translate", "--checkpoint", str(tmp_path / "no.mg2p"), "--word", "x",
                 "--lang", "aaa"])
    assert code == 1


def test_translate_directory_checkpoint_is_user_error(tmp_path, capsys):
    code = main(["translate", "--checkpoint", str(tmp_path), "--word", "x", "--lang", "aaa"])
    assert code == 1
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:WER 100")
def test_evaluate_writes_reports(run_dir, lexicon, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["evaluate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--test-lexicon", str(lexicon), "--width", "5", "--out", str(out)])
    assert code == 0
    table = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "lang\twords\tWER\tWER100\tPER"
    assert table[-1].startswith("MACRO\t")
    for line in table[1:]:
        fields = line.split("\t")
        assert float(fields[3]) <= float(fields[2])  # WER100 <= WER per row
    payload = json.loads((out / "report.json").read_text())
    assert set(payload["per_language"]) == {"aaa", "bbb"}
    assert "MACRO" in capsys.readouterr().out


@pytest.mark.parametrize("width", [["--width", "0"], ["--beam-width", "0"]])
def test_evaluate_width_zero_is_user_error(run_dir, lexicon, capsys, width):
    code = main(["evaluate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--test-lexicon", str(lexicon)] + width)
    assert code == 1
    assert capsys.readouterr().err == "error: beam_width must be >= 1\n"


@pytest.mark.filterwarnings("ignore:WER 100")
def test_evaluate_manifest_records_the_width_it_decoded_at(run_dir, lexicon, tmp_path,
                                                           monkeypatch):
    # a manifest fed back as the config decodes at the width it records
    widths = []

    def recording_beam_search(*args, width, **kwargs):
        widths.append(width)
        return beam_search(*args, width=width, **kwargs)

    monkeypatch.setattr(decoding, "beam_search", recording_beam_search)
    base = ["evaluate", "--checkpoint", str(run_dir / "final.mg2p"),
            "--test-lexicon", str(lexicon)]
    first, again, default = (tmp_path / name for name in ("first", "again", "default"))
    assert main(base + ["--width", "2", "--out", str(first)]) == 0
    assert main(base + ["--config", str(first / "run_manifest.json"), "--out", str(again)]) == 0
    assert main(base + ["--out", str(default)]) == 0
    recorded = [json.loads((out / "run_manifest.json").read_text())["config"]["beam_width"]
                for out in (first, again, default)]
    assert recorded == [2, 2, 100]
    words = len(LEXICON.splitlines())
    assert widths == [2] * (2 * words) + [100] * words


def test_evaluate_out_that_is_a_file_fails_before_any_word_is_decoded(run_dir, lexicon, tmp_path,
                                                                     monkeypatch, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n", encoding="utf-8")
    decoded = []
    monkeypatch.setattr(decoding, "beam_search", lambda *args, **kwargs: decoded.append(args))
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--test-lexicon", str(lexicon), "--width", "2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert decoded == []
    assert out.read_text(encoding="utf-8") == "a file, not a directory\n"


@pytest.mark.filterwarnings("ignore:WER 100")
def test_evaluate_unseen_only_with_full_coverage_errors(run_dir, lexicon, capsys):
    code = main(["evaluate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--test-lexicon", str(lexicon), "--width", "2", "--unseen-only"])
    assert code == 1
    assert "unseen" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:WER 100")
def test_evaluate_unseen_only_scores_new_language(run_dir, tmp_path, capsys):
    test_file = tmp_path / "test.tsv"
    test_file.write_text("ccc\tba\tq i\naaa\tba\tβ ɑ\n", encoding="utf-8")
    code = main(["evaluate", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--test-lexicon", str(test_file), "--width", "2", "--unseen-only"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ccc" in out and "\naaa" not in out


def test_analyze_phonemes_mode(run_dir, capsys):
    code = main(["analyze", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--mode", "phonemes", "--query", "ɑ", "--k", "2"])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("ɑ\t")
    assert len(line.split("\t")[1].split(", ")) == 2


def test_analyze_languages_mode(run_dir, capsys):
    code = main(["analyze", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--mode", "languages", "--query", "aaa", "--k", "3"])
    assert code == 0
    assert "<bbb>" in capsys.readouterr().out


def test_analyze_crosstoken_mode(run_dir, capsys):
    code = main(["analyze", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--mode", "crosstoken", "--word", "ba", "--langs", "aaa,bbb"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("aaa\t") and lines[1].startswith("bbb\t")


def test_crosstoken_warns_about_unseen_languages_before_decoding(run_dir, capsys, monkeypatch):
    err_at_first_decode = []

    def recording_beam_search(*args, **kwargs):
        if not err_at_first_decode:
            err_at_first_decode.append(capsys.readouterr().err)
        return beam_search(*args, **kwargs)

    monkeypatch.setattr(decoding, "beam_search", recording_beam_search)
    code = main(["analyze", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--mode", "crosstoken", "--word", "ba", "--langs", "zzz,aaa,qal"])
    assert code == 0
    assert err_at_first_decode == ["".join(
        f"warning: language {lang!r} unseen in training; using an untrained token\n"
        for lang in ("zzz", "qal"))]
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == \
        ["zzz", "aaa", "qal"]


@pytest.mark.parametrize("mode,query,message", [
    ("phonemes", "zz", "unknown phoneme 'zz'"),
    ("languages", "xyz", "unknown language token '<xyz>'"),
], ids=["phonemes", "languages"])
def test_analyze_unknown_phoneme_is_user_error(run_dir, capsys, mode, query, message):
    code = main(["analyze", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--mode", mode, "--query", query])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "hidden_size = 32\n"
        "lang_token = false\n"
        "language_filter = aaa, bbb\n"
        "lr_decay_factor = none\n"
        "dropout = 0.1\n",
        encoding="utf-8",
    )
    config = load_config(cfg)
    assert config.hidden_size == 32
    assert config.lang_token is False
    assert config.language_filter == ["aaa", "bbb"]
    assert config.lr_decay_factor is None
    assert config.dropout == 0.1


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\nnot_a_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config key") as err:
        load_config(cfg)
    assert str(err.value).startswith(f"{cfg}:2: ")


def test_config_parse_error_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 2\nhidden_size = abc\n", encoding="utf-8")
    assert main(["prepare", "--config", str(cfg), "--out", str(tmp_path / "prep")]) == 1
    assert f"{cfg}:2: hidden_size: cannot parse 'abc'" in capsys.readouterr().err
    manifest = tmp_path / "bad.json"
    manifest.write_text('{"config": {\n"epochs": 2,\n}}\n', encoding="utf-8")
    assert main(["prepare", "--config", str(manifest), "--out", str(tmp_path / "prep")]) == 1
    assert f"{manifest}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("epochs", "epochs = none\n"),
    ("checkpoint_dir", "checkpoint_dir = none\n"),
    ("epochs", '{"config": {"epochs": null}}\n'),
])
def test_config_none_rejected_for_required_field(tmp_path, lexicon, capsys, name, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--train-lexicon", str(lexicon)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and name in err


def test_manifest_is_a_valid_config(tmp_path, lexicon):
    out = tmp_path / "prep"
    assert main(["prepare", "--train-lexicon", str(lexicon), "--out", str(out)]) == 0
    config = load_config(out / "run_manifest.json")
    assert isinstance(config, RunConfig)
    assert config.train_lexicon == str(lexicon)


def test_manifest_round_trips_every_value(tmp_path, lexicon):
    out = tmp_path / "prep"
    assert main(["prepare", "--train-lexicon", str(lexicon), "--out", str(out),
                 "--language-filter", "aaa,bbb", "--val-fraction", "0.2",
                 "--lr-decay-factor", "0.5", "--lr-decay-start", "3", "--no-lang-token"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert dataclasses.asdict(load_config(out / "run_manifest.json")) == manifest["config"]


@pytest.mark.parametrize("name, value", [
    ("hidden_size", '"abc"'),
    ("epochs", "2.5"),
    ("lang_token", '"maybe"'),
    ("language_filter", "[1, 2]"),
    ("dropout", '{"rate": 0.3}'),
])
def test_manifest_value_of_wrong_type_is_config_error(tmp_path, lexicon, capsys, name, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(f'{{"config": {{"{name}": {value}}}}}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg))}: {name}: cannot parse"):
        load_config(cfg)
    assert main(["train", "--config", str(cfg), "--train-lexicon", str(lexicon)]) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and name in err


def test_cli_flag_overrides_config_file(tmp_path, lexicon):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("val_fraction = 0.2\nseed = 9\n", encoding="utf-8")
    out = tmp_path / "prep"
    code = main(["prepare", "--config", str(cfg), "--train-lexicon", str(lexicon),
                 "--out", str(out), "--seed", "4"])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 4
    assert manifest["config"]["val_fraction"] == 0.2


def test_nolangid_mode_translates_without_lang(tmp_path, lexicon, capsys):
    out = tmp_path / "nolang"
    code = main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(out),
                 "--no-lang-token"] + FAST)
    assert code == 0
    capsys.readouterr()
    code = main(["translate", "--checkpoint", str(out / "final.mg2p"), "--word", "ba",
                 "--width", "2"])
    assert code == 0
    without_lang = capsys.readouterr()
    assert without_lang.out.startswith("ba\t1\t")
    # the language is ignored, and no token is reported unseen
    code = main(["translate", "--checkpoint", str(out / "final.mg2p"), "--word", "ba",
                 "--width", "2", "--lang", "zzz"])
    assert code == 0
    assert capsys.readouterr() == without_lang
    # every language would encode as UNK, so cross-token rows would mean nothing
    code = main(["analyze", "--checkpoint", str(out / "final.mg2p"), "--mode", "crosstoken",
                 "--word", "ba", "--langs", "aaa,bbb"])
    assert code == 1
    captured = capsys.readouterr()
    assert "language tokens" in captured.err and captured.out == ""


@pytest.mark.parametrize("fault", ["no_model", "unknown_field", "renamed_tensor", "wrong_shape",
                                   "gate_order"])
def test_malformed_checkpoint_is_user_error_naming_the_file(run_dir, tmp_path, capsys, fault):
    path = tmp_path / "bad.mg2p"
    path.write_bytes((run_dir / "final.mg2p").read_bytes())
    if fault == "no_model":
        rewrite_meta(path, lambda meta: meta.pop("model"))
    elif fault == "unknown_field":
        rewrite_meta(path, lambda meta: meta["model"].update(heads=4))
    elif fault == "gate_order":
        rewrite_meta(path, lambda meta: meta.update(gate_order="forget,input,cell,output"))
    elif fault == "renamed_tensor":  # same length: only the header's first name changes
        path.write_bytes(path.read_bytes().replace(b"generator.bias", b"generator.biaz", 1))
    else:
        rewrite_meta(path, lambda meta: meta["model"].update(hidden_size=10))
    code = main(["translate", "--checkpoint", str(path), "--word", "ba", "--lang", "aaa"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda meta: meta["model"].update(enc_layers=8.5),
    lambda meta: meta["model"].update(dec_layers=8.5),
    lambda meta: meta["model"].update(enc_layers=10**30),
    lambda meta: meta["model"].update(dec_layers=10**30),
    lambda meta: meta.update(languages="aaa"),
    lambda meta: meta.update(languages=["aaa", 1]),
    lambda meta: meta.update(epoch=None),
    lambda meta: meta.update(epoch=[]),
    lambda meta: meta.update(epoch={}),
    lambda meta: meta.update(epoch=-1),
    lambda meta: meta.update(epoch=2.0),
    lambda meta: meta.update(lang_token="false"),
], ids=["enc_layers_float", "dec_layers_float", "enc_layers_huge", "dec_layers_huge",
        "languages_str", "languages_int_item", "epoch_null", "epoch_list", "epoch_dict",
        "epoch_negative", "epoch_float", "lang_token_str"])
def test_malformed_checkpoint_meta_is_user_error_naming_the_file(run_dir, tmp_path, capsys,
                                                                edit):
    # every command loads through the same checks: translate, evaluate
    # --unseen-only (which reads languages) and train --resume (which reads epoch)
    path = tmp_path / "bad.mg2p"
    path.write_bytes((run_dir / "final.mg2p").read_bytes())
    rewrite_meta(path, edit)
    commands = (["translate", "--checkpoint", str(path), "--word", "ba", "--lang", "aaa"],
                ["evaluate", "--checkpoint", str(path), "--test-lexicon", str(path),
                 "--unseen-only"],
                ["train", "--resume", str(path), "--train-lexicon", str(path),
                 "--checkpoint-dir", str(tmp_path / "resumed")])
    for command in commands:
        code = main(command)
        err = capsys.readouterr().err
        assert code == 1, command[0]
        assert err.startswith(f"error: {path}: "), command[0]
        assert "Traceback" not in err
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("argv, flag, value", [
    (["analyze", "--mode", "phonemes", "--query", "ɑ"], "--k", "0"),
    (["analyze", "--mode", "phonemes", "--query", "ɑ"], "--k", "-1"),
    (["translate", "--word", "ba", "--lang", "eng"], "--width", "0"),
    (["translate", "--word", "ba", "--lang", "eng"], "--max-len", "0"),
    (["analyze", "--mode", "crosstoken", "--word", "ba", "--langs", "aaa"], "--width", "0"),
], ids=["0", "-1", "translate_width", "translate_max_len", "crosstoken_width"])
def test_analyze_k_below_one_is_user_error(tmp_path, capsys, argv, flag, value):
    # checked when parsed: the checkpoint, which does not exist, is never read
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--checkpoint", str(tmp_path / "none.mg2p"), flag, value])
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == (f"polyg2p {argv[0]}: error: argument {flag}: "
                                       f"must be a positive integer, got {value!r}\n")


def test_checkpoint_header_byte_edits_exit_0_or_1(run_dir, tmp_path, capsys):
    # each byte of the header, set to a large, a mid and a small value: a
    # corrupt length, rank or dim is an error naming the file, never an
    # allocation the file cannot back
    raw = (run_dir / "final.mg2p").read_bytes()
    path = tmp_path / "edited.mg2p"
    faults = {}
    for offset in range(8, 200):
        for value in (0xFF, 0x7F, 0x40):
            path.write_bytes(raw[:offset] + bytes([value]) + raw[offset + 1 :])
            code = main(["translate", "--checkpoint", str(path), "--word", "ba", "--lang", "aaa",
                         "--width", "2"])
            err = capsys.readouterr().err
            if code not in (0, 1) or (code == 1 and not err.startswith(f"error: {path}: ")):
                faults[offset, value] = (code, err[-200:])
    assert faults == {}


# --- one write path -----------------------------------------------------------

PREPARE = ["prepare", "--train-lexicon", "{lexicon}", "--out", "{out}", "--val-fraction", "0.2"]
EVALUATE = ["evaluate", "--checkpoint", "{run}/final.mg2p", "--test-lexicon", "{lexicon}",
            "--width", "2", "--out", "{out}"]
SCRIPT = ["make_synthetic_corpus.py", "--out-dir", "{out}", "--words", "5"]

# every file the package writes, with the command that writes it: (argv, file)
WRITERS = {
    "save_checkpoint": (["train", "--train-lexicon", "{lexicon}", "--checkpoint-dir", "{out}"]
                        + FAST, "final.mg2p"),
    "Vocabulary.save src": (PREPARE, "src.vocab"),
    "Vocabulary.save tgt": (PREPARE, "tgt.vocab"),
    "write_manifest": (PREPARE, "run_manifest.json"),
    "prepare train.tsv": (PREPARE, "train.tsv"),
    "prepare val.tsv": (PREPARE, "val.tsv"),
    "prepare stats.tsv": (PREPARE, "stats.tsv"),
    "evaluate report.tsv": (EVALUATE, "report.tsv"),
    "evaluate report.json": (EVALUATE, "report.json"),
    "translate --out": (["translate", "--checkpoint", "{run}/final.mg2p", "--word", "ba",
                         "--lang", "aaa", "--width", "2", "--out", "{out}/nbest.tsv"],
                        "nbest.tsv"),
    "analyze --out": (["analyze", "--checkpoint", "{run}/final.mg2p", "--mode", "languages",
                       "--query", "aaa", "--out", "{out}/neighbours.tsv"], "neighbours.tsv"),
    "script bilingual.tsv": (SCRIPT, "bilingual.tsv"),
    "script memorize.tsv": (SCRIPT, "memorize.tsv"),
}


def _run(argv, monkeypatch) -> int:
    """`main(argv)`, or for a script, its exit code when run as a program."""
    if argv[0].endswith(".py"):
        monkeypatch.setattr(sys, "argv", argv)
        try:
            runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
        except OSError:
            return 1  # an uncaught exception
        return 0
    return main(argv)


@pytest.mark.filterwarnings("ignore:WER 100")
@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_write_that_fails_part_way_leaves_the_old_file(request, tmp_path, lexicon, monkeypatch,
                                                         capsys, writer):
    argv, name = WRITERS[writer]
    run = request.getfixturevalue("run_dir") if "{run}" in "".join(argv) else None
    out = tmp_path / "out"
    out.mkdir()
    target = out / name
    target.write_bytes(b"the last good copy\n")
    real_fsync = os.fsync

    def fsync(fd):  # the disk fills up once the new copy of the target is written
        if any(out.glob(f".{name}.*.tmp")):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    argv = [arg.format(lexicon=lexicon, out=out, run=run) for arg in argv]
    capsys.readouterr()
    assert _run(argv, monkeypatch) == 1
    assert target.read_bytes() == b"the last good copy\n"
    assert list(tmp_path.rglob("*.tmp")) == []


def test_out_in_a_missing_directory_names_the_file(run_dir, tmp_path, capsys):
    out = tmp_path / "missing" / "nbest.tsv"
    capsys.readouterr()
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"), "--word", "ba",
                 "--lang", "aaa", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_translate_out_to_a_fifo_writes_into_it(run_dir, tmp_path):
    # replacing a FIFO, or a device such as /dev/null, would make it a plain file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"), "--word", "ba",
                 "--lang", "aaa", "--width", "2", "--out", str(fifo)])
    reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received[0].decode("utf-8").startswith("ba\t1\t")
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def test_translate_out_through_a_symlink_keeps_the_link(run_dir, tmp_path):
    target = tmp_path / "io" / "data" / "nbest.tsv"
    target.parent.mkdir(parents=True)
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "io" / "link.tsv"
    link.symlink_to(target)
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"), "--word", "ba",
                 "--lang", "aaa", "--width", "2", "--out", str(link)])
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8").startswith("ba\t1\t")
    assert sorted(p.name for p in link.parent.rglob("*")) == ["data", "link.tsv", "nbest.tsv"]


# --- fuzzed text readers ------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding `LEXICON` and a model trained on it."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "train.tsv").write_text(LEXICON, encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--train-lexicon", str(path / "train.tsv"),
                     "--checkpoint-dir", str(path)] + FAST) == 0
    return path


def _fuzz_inputs(fields: list[str], sep: str):
    """Bytes for a text reader: two runs of `fields` (pieces of the reader's
    syntax and values), field separators `sep` and line ends, with or without
    an invalid UTF-8 byte between the runs; or arbitrary bytes."""
    pieces = [p.encode("utf-8") for p in fields + [sep, sep, "\n", "\n", "\r\n", "\r"]]
    valid = st.lists(st.sampled_from(pieces), max_size=30).map(b"".join)
    bad = st.sampled_from([b""] * 5 + [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x80"])
    return st.tuples(valid, bad, valid).map(b"".join) | st.binary(max_size=120)


# each text reader: the command that reads it, the pieces of its fields (one
# may be a whole line) and the field separator
FUZZED_READERS = {
    "lexicon": (["prepare", "--out", "{dir}/prep", "--train-lexicon", "{file}"],
                ["aaa\tba\tβ ɑ", "aaa", "bbb", "AB", "ba", "β ɑ", "q", " ", "#", "<EOS>",
                 "\ufeff"], "\t"),
    "inventory": (["prepare", "--out", "{dir}/prep", "--train-lexicon", "{dir}/train.tsv",
                   "--clean", "--inventory", "{file}"],
                  ["lang\tphoneme\tvoice,nasal", "aaa\tβ\t+,-", "aaa", "bbb", "β", "ɑ", "q",
                   "voice,nasal", "+,-", "0,+", "+", ",", "#", " "], "\t"),
    "config": (["prepare", "--out", "{dir}/prep", "--train-lexicon", "{dir}/train.tsv",
                "--config", "{file}"],
               ["seed ", "hidden_size", "epochs", " lang_token", "3", "0", "-1", "1.5", " true",
                "none", "x", "#", '{"config": {"seed": 3}}', '{"epochs": [', "}", '"', "="],
               " = "),
    "translate --input": (["translate", "--checkpoint", "{dir}/final.mg2p", "--lang", "aaa",
                           "--width", "1", "--input", "{file}"],
                          ["aaa", "bbb", "XX", "ba", "ab", "β", "\u0301", " ", "#"], "\t"),
}


@pytest.mark.parametrize("reader", list(FUZZED_READERS))
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_text_file_exits_0_or_1_naming_the_file(fuzz_dir, reader, data):
    argv, fields, sep = FUZZED_READERS[reader]
    path = fuzz_dir / "input.txt"
    path.write_bytes(data.draw(_fuzz_inputs(fields, sep), label="file"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg.format(dir=fuzz_dir, file=path) for arg in argv])
    assert code in (0, 1), err.getvalue()[-300:]
    if code == 1:  # after any rejected lexicon lines, which name the file too
        assert err.getvalue().splitlines()[-1].startswith(f"error: {path}"), err.getvalue()[-300:]
