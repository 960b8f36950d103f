"""Command-line surface: prepare, train, translate, evaluate, analyze.

Exit codes: 0 success, 1 user error (bad arguments, unreadable or empty
inputs, a non-finite checkpoint or decode step) or a diverged training run,
2 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import sys
import traceback
from collections import Counter
from pathlib import Path

from . import analysis, metrics
from .checkpoint import ModelBundle, load_checkpoint, save_checkpoint
from .config import (FIELDS, SPLIT_FIELDS, ConfigError, RunConfig, apply_overrides, comma_list,
                     json_value, load_config, parse_bool, shared_fields, write_manifest)
from .corpus import (
    DatasetSplit,
    LexiconEntry,
    Vocabulary,
    atomic_write,
    build_vocab,
    clean_transcription,
    encode_pairs,
    lang_token,
    open_text,
    parse_inventory,
    parse_lexicon,
    split_train_val,
    write_lexicon,
)
from .decoding import decode_words, write_nbest
from .model import train_model


EVALUATE_WIDTH = 100  # `evaluate`'s beam width when neither a flag nor the config sets one


class UserError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; user errors are 1
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Every RunConfig field becomes an override flag; None means 'not given'."""
    parser.add_argument("--config", help="key = value config file or run manifest")
    for name, spec in FIELDS.items():
        flag = "--" + name.replace("_", "-")
        if spec.parse is parse_bool:
            parser.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction,
                                default=None)
        else:
            parser.add_argument(flag, dest=name, type=spec.parse, default=None)


def _positive_int(raw: str) -> int:
    """argparse `type` of the decode flags: a bad value is an error naming the
    flag, before any file is read."""
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def _setting_problem(config: RunConfig) -> str | None:
    try:
        config.check()
    except ValueError as exc:
        return str(exc)
    return None


def _resolve_config(args) -> RunConfig:
    """The config file's settings, if one is given, under the flags given,
    checked before anything else is read or written. A bad value that the
    flags alone do not give came from the file, and the error names it."""
    flags = {name: getattr(args, name) for name in FIELDS}
    config = apply_overrides(load_config(args.config) if args.config else RunConfig(), flags)
    problem = _setting_problem(config)
    if problem is None:
        return config
    if args.config and _setting_problem(apply_overrides(RunConfig(), flags)) != problem:
        problem = f"{args.config}: {problem}"
    raise UserError(problem)


def _read_lexicon_file(path, corpus: str) -> list[LexiconEntry]:
    """Parse lexicon `path`, printing its rejected lines. No entries is an
    error naming the path and the `corpus` ("training" or "test")."""
    if path is None:
        raise UserError("no lexicon path given (set train_lexicon/test_lexicon)")
    entries, rejects = parse_lexicon(open_text(path))
    for reject in rejects:
        print(f"{path}:{reject.line_no}: rejected: {reject.reason}", file=sys.stderr)
    if not entries:
        raise UserError(f"{path}: empty {corpus} corpus")
    return entries


def _filter_languages(entries: list[LexiconEntry], config: RunConfig) -> list[LexiconEntry]:
    if config.language_filter is None:
        return entries
    if not config.language_filter:
        raise UserError("language filter is empty")
    keep = set(config.language_filter)
    filtered = [e for e in entries if e.lang in keep]
    if not filtered:
        raise UserError("no entries left after language filtering")
    return filtered


def _clean_entries(entries: list[LexiconEntry], config: RunConfig) -> list[LexiconEntry]:
    if not config.clean:
        return entries
    if config.inventory is None:
        raise UserError("cleaning requested but no inventory file configured")
    table = parse_inventory(open_text(config.inventory))
    cleaned: list[LexiconEntry] = []
    warned: set[str] = set()

    def warn(message: str) -> None:  # each distinct warning once
        if message not in warned:
            warned.add(message)
            print(f"{config.inventory}: {message}", file=sys.stderr)

    for entry in entries:
        inventory = table.by_lang.get(entry.lang)
        if inventory is None:
            warn(f"no inventory for {entry.lang}; transcriptions left as-is")
            cleaned.append(entry)
            continue
        result = clean_transcription(entry.phonemes, inventory, table.features)
        for message in result.warnings:
            warn(f"{entry.lang}: {message}")
        cleaned.append(dataclasses.replace(entry, phonemes=result.phonemes))
    return cleaned


def _output(path):
    """`--out`'s file, written through `atomic_write`, or stdout without one."""
    return atomic_write(path) if path else contextlib.nullcontext(sys.stdout)


def _load_dataset(config: RunConfig) -> tuple[DatasetSplit, Vocabulary, Vocabulary]:
    entries = _read_lexicon_file(config.train_lexicon, "training")
    entries = _clean_entries(_filter_languages(entries, config), config)
    split = split_train_val(entries, cap=config.cap, val_fraction=config.val_fraction,
                            seed=config.seed)
    src_vocab = build_vocab(split.train, "source", config.min_count, lang_tokens=config.lang_token)
    tgt_vocab = build_vocab(split.train, "target", config.min_count)
    return split, src_vocab, tgt_vocab


# --- subcommands --------------------------------------------------------------


def cmd_prepare(args) -> int:
    config = _resolve_config(args)
    split, src_vocab, tgt_vocab = _load_dataset(config)  # checked before anything is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    with atomic_write(out_dir / "train.tsv") as fh:
        write_lexicon(fh, split.train)
    with atomic_write(out_dir / "val.tsv") as fh:
        write_lexicon(fh, split.validation)
    src_vocab.save(out_dir / "src.vocab")
    tgt_vocab.save(out_dir / "tgt.vocab")

    train_counts = Counter(e.lang for e in split.train)
    val_counts = Counter(e.lang for e in split.validation)
    graphemes = {g for e in split.train for g in e.graphemes}
    phonemes = {p for e in split.train for p in e.phonemes}
    with atomic_write(out_dir / "stats.tsv") as fh:
        fh.write("lang\ttrain_words\tval_words\n")
        for lang in sorted(train_counts):
            fh.write(f"{lang}\t{train_counts[lang]}\t{val_counts.get(lang, 0)}\n")
        fh.write(f"TOTAL\t{sum(train_counts.values())}\t{sum(val_counts.values())}\n")
        fh.write(f"#languages\t{len(train_counts)}\n")
        fh.write(f"#distinct_graphemes\t{len(graphemes)}\n")
        fh.write(f"#distinct_phonemes\t{len(phonemes)}\n")

    write_manifest(out_dir / "run_manifest.json", "prepare", config,
                   {"train_lexicon": config.train_lexicon},
                   ["train.tsv", "val.tsv", "src.vocab", "tgt.vocab", "stats.tsv"])
    print(f"prepared {sum(train_counts.values())} train / {sum(val_counts.values())} val words "
          f"in {len(train_counts)} languages -> {out_dir}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_config(args)
    bundle = load_checkpoint(args.resume) if args.resume else None
    start_epoch = 1
    if bundle is not None:  # the checkpoint's model, language-token rule and split win
        try:
            split = {name: json_value(name, bundle.meta[name])
                     for name in SPLIT_FIELDS if name in bundle.meta}
        except ConfigError as exc:
            raise UserError(f"{args.resume}: {exc}") from None
        config = dataclasses.replace(config, lang_token=bundle.uses_lang_token, **split,
                                     **shared_fields(bundle.config, RunConfig))
        problem = _setting_problem(config)
        if problem is not None:  # the flags were checked, so the checkpoint set it
            raise UserError(f"{args.resume}: {problem}")
        start_epoch = bundle.meta.get("epoch", 0) + 1
        if start_epoch > config.epochs:
            raise UserError(f"checkpoint already trained for {start_epoch - 1} epochs")
    schedule = config.schedule()
    split, src_vocab, tgt_vocab = _load_dataset(config)
    out_dir = Path(config.checkpoint_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = None
    if bundle is not None:
        params, src_vocab, tgt_vocab = bundle.params, bundle.src_vocab, bundle.tgt_vocab
    model_config = config.model_config(len(src_vocab), len(tgt_vocab))

    train_pairs = encode_pairs(split.train, src_vocab, tgt_vocab, config.lang_token)
    val_pairs = encode_pairs(split.validation, src_vocab, tgt_vocab, config.lang_token)
    languages = sorted({e.lang for e in split.train})
    print(f"training on {len(train_pairs)} words ({len(languages)} languages), "
          f"validating on {len(val_pairs)}", file=sys.stderr)

    # rewritten whole before training and after each epoch; a resumed run keeps
    # the logged epochs before its first, the history of the resumed checkpoint,
    # and drops the header and any torn last line (it has no newline)
    log_path = out_dir / "training_log.tsv"
    log = ["epoch\tlr\ttrain_loss\tval_loss\n"]
    if bundle is not None and log_path.is_file():
        for line in open_text(log_path):
            first = line.split("\t", 1)[0]
            if line.endswith("\n") and first.isdecimal() and int(first) < start_epoch:
                log.append(line)

    def write_log():
        with atomic_write(log_path) as fh:
            fh.writelines(log)

    def on_epoch(epoch, _params, stats):
        val = f"{stats.val_loss:.6f}" if stats.val_loss is not None else "-"
        log.append(f"{epoch}\t{stats.lr:.6f}\t{stats.train_loss:.6f}\t{val}\n")
        write_log()
        print(f"epoch {epoch}: train {stats.train_loss:.4f} val {val}", file=sys.stderr)

    write_log()
    try:
        result = train_model(train_pairs, val_pairs, model_config, schedule,
                             params=params, start_epoch=start_epoch, epoch_callback=on_epoch)
    except RuntimeError as exc:  # a loss or gradient that is not finite: the run diverged
        raise UserError(str(exc)) from None

    def bundle_for(p, epoch):
        meta = {
            "lang_token": config.lang_token,
            "languages": languages,
            "epoch": epoch,
            "schedule": dataclasses.asdict(schedule),
            **{name: getattr(config, name) for name in SPLIT_FIELDS},
        }
        return ModelBundle(p, model_config, src_vocab, tgt_vocab, meta)

    save_checkpoint(out_dir / "final.mg2p", bundle_for(result.params, config.epochs))
    best = result.best_params if result.best_params is not None else result.params
    best_epoch = result.best_epoch if result.best_epoch is not None else config.epochs
    save_checkpoint(out_dir / "best.mg2p", bundle_for(best, best_epoch))
    write_manifest(out_dir / "run_manifest.json", "train", config,
                   {"train_lexicon": config.train_lexicon},
                   ["final.mg2p", "best.mg2p", "training_log.tsv"])
    print(f"wrote {out_dir / 'final.mg2p'} and {out_dir / 'best.mg2p'}")
    return 0


def _gate_sources(bundle: ModelBundle, sources) -> list[list[int]]:
    """The encoder ids of every (word, lang, error prefix) in `sources`, each
    passed through `bundle.source_ids` before any is decoded. Then a warning,
    once per language and in input order, for each language the model was not
    trained on: it reads that language's token untrained."""
    ids = []
    for word, lang, where in sources:
        try:
            ids.append(bundle.source_ids(word, lang))
        except ValueError as exc:
            raise UserError(f"{where}{exc}") from None
    for lang in dict.fromkeys(lang for _, lang, _ in sources):
        if bundle.uses_lang_token and lang is not None and lang_token(lang) not in bundle.src_vocab:
            print(f"warning: language {lang!r} unseen in training; using an untrained token",
                  file=sys.stderr)
    return ids


def _with_progress(nbests):
    """`nbests` as they come, printing a count every 200 words."""
    for done, nbest in enumerate(nbests, start=1):
        if done % 200 == 0:
            print(f"decoded {done} words", file=sys.stderr)
        yield nbest


def cmd_translate(args) -> int:
    bundle = load_checkpoint(args.checkpoint)

    sources: list[tuple[str, str | None, str]] = []  # (word, lang, error prefix)
    if args.word is not None:
        sources.append((args.word, args.lang, ""))
    elif args.input is not None:
        for line_no, raw in enumerate(open_text(args.input), start=1):
            line = raw.rstrip("\r\n")
            if line.strip() and not line.startswith("#"):
                lang, word = line.split("\t", 1) if "\t" in line else (args.lang, line)
                sources.append((word, lang, f"{args.input}:{line_no}: "))
    else:
        raise UserError("give either --word or --input")
    ids = _gate_sources(bundle, sources)  # every source is checked before any output

    with _output(args.out) as out_fh:
        nbests = decode_words(ids, bundle.params, bundle.config, bundle.tgt_vocab,
                              args.width, args.max_len)
        for (word, _, _), nbest in zip(sources, nbests):
            write_nbest(out_fh, word, nbest)
    return 0


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)  # --width is an alias of --beam-width here
    bundle = load_checkpoint(args.checkpoint)
    if config.beam_width is None:
        config.beam_width = EVALUATE_WIDTH  # the manifest records the width decoded at
    width = config.beam_width
    entries = _read_lexicon_file(config.test_lexicon, "test")
    entries = _filter_languages(entries, config)
    if args.unseen_only:
        trained = set(bundle.meta.get("languages", []))
        entries = [e for e in entries if e.lang not in trained]
        if not entries:
            raise UserError("no unseen-language entries in the test corpus")
    ids = [bundle.source_ids("".join(e.graphemes), e.lang) for e in entries]

    out_dir = Path(args.out) if args.out else None
    if out_dir:  # made, or found unusable, before the first word is decoded
        out_dir.mkdir(parents=True, exist_ok=True)
    nbests = decode_words(ids, bundle.params, bundle.config, bundle.tgt_vocab, width)
    report = metrics.score(entries, _with_progress(nbests), width=width)

    if out_dir:
        with atomic_write(out_dir / "report.tsv") as fh:
            metrics.write_report(fh, report)
        with atomic_write(out_dir / "report.json") as fh:
            json.dump(metrics.report_as_dict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_manifest(out_dir / "run_manifest.json", "evaluate", config,
                       {"test_lexicon": config.test_lexicon, "checkpoint": args.checkpoint},
                       ["report.tsv", "report.json"])
    metrics.write_report(sys.stdout, report)
    return 0


def cmd_analyze(args) -> int:
    bundle = load_checkpoint(args.checkpoint)
    with _output(args.out) as out_fh:
        if args.mode == "crosstoken":
            langs = comma_list(args.langs or "")
            if not args.word or not langs:
                raise UserError("crosstoken mode needs --word and --langs")
            _gate_sources(bundle, [(args.word, lang, "") for lang in langs])
            table = analysis.translate_as(args.word, langs, bundle, width=args.width)
            for lang, phones in table.items():
                out_fh.write(f"{lang}\t{' '.join(phones)}\n")
        else:
            if not args.query:
                raise UserError(f"{args.mode} mode needs --query")
            nearest = (analysis.nearest_phonemes if args.mode == "phonemes"
                       else analysis.nearest_languages)
            for query in comma_list(args.query):
                result = nearest(query, args.k, bundle)
                line = ", ".join(f"{t} ({s:.3f})" for t, s in result.neighbors)
                out_fh.write(f"{query}\t{line}\n")
    return 0


# --- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polyg2p", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare",
                       help="split a lexicon, build vocabularies, write stats")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode words to phonemes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--word")
    p.add_argument("--input", help="file of words (or lang<TAB>word lines)")
    p.add_argument("--lang")
    p.add_argument("--width", type=_positive_int, default=10, help="beam width (default 10)")
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score a test lexicon")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--width", dest="beam_width", type=int, default=None,
                   help=f"beam width (default {EVALUATE_WIDTH})")
    p.add_argument("--unseen-only", action="store_true",
                   help="score only languages absent from training")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="embedding and cross-token reports")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("phonemes", "languages", "crosstoken"), required=True)
    p.add_argument("--query", help="comma-separated phonemes or language codes")
    p.add_argument("--k", type=_positive_int, default=3)
    p.add_argument("--word")
    p.add_argument("--langs", help="comma-separated language codes")
    p.add_argument("--width", type=_positive_int, default=10, help="beam width (default 10)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    return parser


def _keep_freed_heap() -> None:
    """On glibc, keep freed memory for reuse instead of handing it back to the
    kernel: arrays under 32 MiB come from the heap, and up to 64 MiB of free
    heap top is kept. Training frees and reallocates the same batch-sized
    arrays every batch; by default each of them is a fresh mapping, paid for
    in page faults. A no-op without glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_freed_heap()
    try:
        return args.func(args)
    # OSError: a missing, unreadable or directory path; ConfigError is a ValueError
    except (UserError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
