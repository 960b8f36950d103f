"""Train the paper-size checkpoint that the `decode` workload loads.

Generates the fixture lexicon (20 languages x 150 words, `lexgen`), splits it
as `polyg2p train` does, trains the paper configuration (2x150 BiLSTM encoder,
2-layer decoder with input feeding, batch 64, dropout 0.3, SGD lr 1.0, clip
5) and writes `fixture/paper.mg2p` with `save_checkpoint`. It then scores the
validation words with width-100 beam search and records the macro WER/PER and
the checkpoint's SHA-256 in `fixture/fixture.json`.

Run from the repository root (takes about ten minutes on one core):

    python3 bench/make_fixture.py

Everything is seeded, and training runs with one BLAS thread, so a rerun on
the same machine is expected to write the same bytes; the recorded SHA-256
shows whether it did.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lexgen  # noqa: E402
from polyg2p import metrics  # noqa: E402
from polyg2p.checkpoint import ModelBundle, save_checkpoint  # noqa: E402
from polyg2p.corpus import build_vocab, encode_pairs, parse_lexicon, split_train_val  # noqa: E402
from polyg2p.decoding import beam_search  # noqa: E402
from polyg2p.model import ModelConfig, TrainingSchedule, train_model  # noqa: E402

FIXTURE_DIR = HERE / "fixture"
CHECKPOINT = FIXTURE_DIR / "paper.mg2p"
RECORD = FIXTURE_DIR / "fixture.json"

WORD_SEED = 2017
WORDS_PER_LANGUAGE = 150
SPLIT_SEED = 1
SCHEDULE = TrainingSchedule(epochs=100, batch_size=64, lr=1.0, clip=5.0, seed=1,
                            lr_decay_factor=0.7, lr_decay_start=75)


def fixture_entries():
    """The fixture lexicon's parsed entries (training and validation words)."""
    words = lexgen.sample_words(lexgen.make_languages(), WORDS_PER_LANGUAGE, WORD_SEED)
    parsed = parse_lexicon(lexgen.lexicon_lines(words))
    if parsed.rejects:
        raise RuntimeError(f"generator wrote rejected lines: {parsed.rejects[:3]}")
    return parsed.entries


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> int:
    split = split_train_val(fixture_entries(), val_fraction=0.1, seed=SPLIT_SEED)
    src_vocab = build_vocab(split.train, "source", lang_tokens=True)
    tgt_vocab = build_vocab(split.train, "target")
    train_pairs = encode_pairs(split.train, src_vocab, tgt_vocab, True)
    val_pairs = encode_pairs(split.validation, src_vocab, tgt_vocab, True)
    config = ModelConfig(len(src_vocab), len(tgt_vocab))
    print(f"{len(train_pairs)} training words, {len(val_pairs)} validation words, "
          f"{len(src_vocab)} source / {len(tgt_vocab)} target symbols", flush=True)

    started = time.monotonic()

    def on_epoch(epoch, _params, stats):
        print(f"epoch {epoch}: lr {stats.lr:.4f} train {stats.train_loss:.4f} "
              f"val {stats.val_loss:.4f} ({time.monotonic() - started:.0f} s)", flush=True)

    result = train_model(train_pairs, val_pairs, config, SCHEDULE, epoch_callback=on_epoch)
    languages = sorted({e.lang for e in split.train})
    meta = {"lang_token": True, "languages": languages, "epoch": SCHEDULE.epochs,
            "schedule": vars(SCHEDULE)}
    FIXTURE_DIR.mkdir(exist_ok=True)
    save_checkpoint(CHECKPOINT, ModelBundle(result.params, config, src_vocab, tgt_vocab, meta))

    def decode_fn(entry):
        src = src_vocab.encode(entry.source_tokens(True))
        return beam_search(src, result.params, config, tgt_vocab, width=100)

    report = metrics.evaluate(split.validation, decode_fn, width=100)
    record = {
        "checkpoint": CHECKPOINT.name,
        "sha256": sha256_of(CHECKPOINT),
        "train_words": len(train_pairs),
        "validation_words": len(val_pairs),
        "final_val_loss": result.history[-1].val_loss,
        "validation_macro": {"wer": report.macro.wer, "wer100": report.macro.wer100,
                             "per": report.macro.per},
        "train_seconds": round(time.monotonic() - started, 1),
    }
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    if not 0.0 < report.macro.wer < 100.0:
        print("held-out WER must be neither 0 nor 100: change the generator or the schedule",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
