import dataclasses
import json
import re

import pytest

from helpers import rewrite_meta
from polyg2p import cli
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


def test_train_writes_checkpoints_and_log(run_dir):
    assert (run_dir / "final.mg2p").exists()
    assert (run_dir / "best.mg2p").exists()
    log = (run_dir / "training_log.tsv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "epoch\tlr\ttrain_loss\tval_loss"
    assert len(log) == 3  # header + 2 epochs
    assert json.loads((run_dir / "run_manifest.json").read_text())["command"] == "train"


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


@pytest.mark.parametrize("word,lang,reason", [
    ("a b", "aaa", "spelling contains whitespace"),
    ("", "aaa", "empty spelling"),
    ("ba", "XX", "invalid language code 'XX'"),
    ("ba", "", "invalid language code ''"),
])
def test_translate_word_is_checked_like_a_lexicon(run_dir, capsys, word, lang, reason):
    code = main(["translate", "--checkpoint", str(run_dir / "final.mg2p"), "--word", word,
                 "--lang", lang])
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
    assert "beam width must be >= 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:WER 100")
def test_evaluate_manifest_records_the_width_it_decoded_at(run_dir, lexicon, tmp_path,
                                                           monkeypatch):
    # a manifest fed back as the config decodes at the width it records
    widths = []

    def recording_beam_search(*args, width, **kwargs):
        widths.append(width)
        return beam_search(*args, width=width, **kwargs)

    monkeypatch.setattr(cli, "beam_search", recording_beam_search)
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


def test_analyze_unknown_phoneme_is_user_error(run_dir, capsys):
    code = main(["analyze", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--mode", "phonemes", "--query", "nope"])
    assert code == 1


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
                 "--lr-decay-factor", "0.5", "--no-lang-token"]) == 0
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


@pytest.mark.parametrize("k", ["0", "-1"])
def test_analyze_k_below_one_is_user_error(run_dir, capsys, k):
    code = main(["analyze", "--checkpoint", str(run_dir / "final.mg2p"),
                 "--mode", "phonemes", "--query", "ɑ", "--k", k])
    assert code == 1
    assert "k must be at least 1" in capsys.readouterr().err


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
