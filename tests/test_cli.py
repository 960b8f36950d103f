import json

import pytest

from polyg2p.cli import main
from polyg2p.config import ConfigError, RunConfig, load_config

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


def test_prepare_unreadable_lexicon_is_user_error(tmp_path):
    code = main(["prepare", "--train-lexicon", str(tmp_path / "missing.tsv"),
                 "--out", str(tmp_path / "x")])
    assert code == 1


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


def test_translate_missing_checkpoint_is_user_error(tmp_path, capsys):
    code = main(["translate", "--checkpoint", str(tmp_path / "no.mg2p"), "--word", "x",
                 "--lang", "aaa"])
    assert code == 1


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


def test_nolangid_mode_translates_without_lang(tmp_path, lexicon):
    out = tmp_path / "nolang"
    code = main(["train", "--train-lexicon", str(lexicon), "--checkpoint-dir", str(out),
                 "--no-lang-token"] + FAST)
    assert code == 0
    code = main(["translate", "--checkpoint", str(out / "final.mg2p"), "--word", "ba",
                 "--width", "2"])
    assert code == 0
