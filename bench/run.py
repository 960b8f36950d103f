"""polyg2p benchmark: training and pronunciation cost, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the library in one process, with BLAS fixed to one thread; the first
stdout line records the environment (Python, numpy, BLAS and its thread
count, nproc, CPU). Every workload spreads over the whole run, each in its
share of the time, windows of back-to-back set-ups (`setup_s`), identical
training rounds (`train_tok_s`, `val_loss`) and `metrics.evaluate` calls
over `decoding.beam_search` on chunks of held-out words at widths 1, 10 and 100
(`words_s.*`, `word_ms_*`, `wer`, `wer100`, `per`); each timing is a median
over those repeats. What differs is the inputs and which part gets most of
the time; `metric_map.json` gives the reason for each workload, how each figure is
estimated, and the end-to-end metric each per-layer one should move.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced units of each part: per-layer metrics come from the traced ones
(`tracing.py`) and the tracing overhead from comparing the two; the spans
are written to `bench/out/`.

Every run checks its outputs before it reports: training losses are finite,
`val_loss` repeats bit for bit across rounds and matches `expected.json`;
width-1 top-1 equals `greedy_decode` on a sample; every n-best list follows
the ranking contract; `wer`, `wer100` and `per` match `expected.json`; the
decode checkpoint matches its recorded SHA-256. A failed check prints
`"correct": false` with no metrics and exits 1.

The seed picks one of `VARIANTS` recorded input variants (seed mod VARIANTS):
on `train_paper` the test words, on `decode` the fine-tuning words. `--record` rewrites the
recorded values in `expected.json`; `--toy` shrinks every workload for
`selftest.py`.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

try:
    import polyg2p
    from polyg2p import checkpoint, corpus, decoding, metrics, model
except ImportError as exc:
    sys.exit(f"bench: cannot import polyg2p from {SRC}: {exc}")
if not Path(polyg2p.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: polyg2p imported from {polyg2p.__file__}, not from {SRC}")

import lexgen  # noqa: E402
import make_fixture  # noqa: E402
from tracing import Tracer  # noqa: E402

VARIANTS = 8
WIDTHS = (1, 10, 100)
MIN_PASSES = 2                               # untraced units per phase before time may end a run
CYCLE = (1, 10, 1, 10, 100)                 # widths of successive units; odd length, see Decoding
CHUNKS = 5                                   # of the test words, one per decoding unit; odd, see Decoding
SETUP_SHARE = 0.1                            # of the measured time, in windows spread over the run
SETUP_WINDOW_S = 0.3                         # averages the machine's fast and slow spells
GREEDY_SAMPLE = 10
TEST_PER_LANGUAGE = 6                        # held-out words per generated language
VAL_LOSS_RTOL = 2e-3                         # numerics may change, learning may not
QUALITY_TOL_WORDS = 2                        # wer/wer100/per may move by two words' worth


@dataclass
class Workload:
    name: str
    train_share: float                       # of the measured time; the rest sets up or decodes
    model: dict                              # ModelConfig fields besides vocab sizes
    schedule: dict                           # TrainingSchedule fields
    val_fraction: float
    from_checkpoint: bool = False
    toy: bool = False

    def lexicons(self, variant: int) -> tuple[list[str], list[str]]:
        """Lines of the training lexicon and of the held-out test lexicon.

        `train_paper` trains on a fixed lexicon, so every seed trains the same
        model; a barely trained model's outputs (and so its decoding cost) swing
        with its training data. The seed draws its test words. `decode` scores
        one fixed test set, held out from the checkpoint's words: the macro WER
        of a trained model over 120 words swings by a fifth between samples of
        words, more than a quality guard may. The seed draws its fine-tuning
        words, held out from the test words."""
        languages = lexgen.make_languages()
        tests = 1 if self.toy else TEST_PER_LANGUAGE
        if self.from_checkpoint:
            fixture = lexgen.sample_words(languages, make_fixture.WORDS_PER_LANGUAGE,
                                          make_fixture.WORD_SEED)
            test = lexgen.sample_words(languages, tests, seed=0, exclude=_spellings(fixture))
            train = lexgen.sample_words(languages, 3 if self.toy else 24, seed=VARIANTS + variant,
                                        exclude=_spellings(test))
        else:
            train = lexgen.sample_words(languages, 3 if self.toy else 60, seed=0)
            test = lexgen.sample_words(languages, tests, seed=variant, exclude=_spellings(train))
        return lexgen.lexicon_lines(train), lexgen.lexicon_lines(test)


def _spellings(words) -> set[tuple[str, str]]:
    return {(lang, word) for lang, word, _ in words}


PAPER = dict(hidden_size=150, src_embed=150, tgt_embed=150, enc_layers=2, dec_layers=2,
             dropout=0.3, input_feeding=True)
WORKLOADS = {
    "train_paper": Workload(
        "train_paper", 0.45, model=PAPER,
        schedule=dict(epochs=2, batch_size=64, lr=1.0, clip=5.0, seed=1),
        val_fraction=0.1),
    "decode": Workload(
        "decode", 0.2, model=PAPER,
        schedule=dict(epochs=1, batch_size=64, lr=0.1, clip=5.0, seed=1),
        val_fraction=0.0, from_checkpoint=True),
}


class GateFailure(Exception):
    """An output of the program is wrong; the run reports no timings."""


@dataclass
class Prepared:
    config: model.ModelConfig
    params: model.ModelParams
    src_vocab: corpus.Vocabulary
    tgt_vocab: corpus.Vocabulary
    train_pairs: list
    val_pairs: list
    test: list
    batches_per_epoch: int = 0


@dataclass
class Run:
    workload: Workload
    variant: int
    seconds: float
    trace: bool
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0
    gates: list = field(default_factory=list)

    @property
    def min_passes(self) -> int:
        """Untraced units per phase before time may end the run; a traced run
        spends its other half on traced units."""
        return 1 if self.trace else MIN_PASSES

    def is_traced(self, unit: int) -> bool:
        """Odd-numbered units of a phase in a traced run are traced; the rest run bare."""
        return self.trace and unit % 2 == 1

    @contextmanager
    def unit(self, root: str, traced: bool):
        """Run one unit of work, inside a root span with the wrappers installed if traced."""
        if not traced:
            yield
            return
        with self.tracer.installed(), self.tracer.span(root):
            yield


def _parse(lines) -> list:
    parsed = corpus.parse_lexicon(lines)
    if parsed.rejects:
        raise GateFailure(f"generated lexicon has rejected lines: {parsed.rejects[:2]}")
    return parsed.entries


def setup(work: Workload, train_lines, test_lines) -> Prepared:
    """What a user pays before the first batch or word: the timed set-up."""
    split = corpus.split_train_val(_parse(train_lines), val_fraction=work.val_fraction, seed=5)
    src_vocab = corpus.build_vocab(split.train, "source", lang_tokens=True)
    tgt_vocab = corpus.build_vocab(split.train, "target")
    test = _parse(test_lines)
    if work.from_checkpoint:
        bundle = checkpoint.load_checkpoint(make_fixture.CHECKPOINT)
        missing = ([t for t in src_vocab.tokens if t not in bundle.src_vocab]
                   + [t for t in tgt_vocab.tokens if t not in bundle.tgt_vocab])
        if missing:
            raise GateFailure(f"lexicon symbols unknown to the checkpoint: {missing[:5]}")
        config, params = bundle.config, bundle.params
        src_vocab, tgt_vocab = bundle.src_vocab, bundle.tgt_vocab
    else:
        config = model.ModelConfig(len(src_vocab), len(tgt_vocab), **work.model)
        params = model.init_params(config, seed=work.schedule["seed"])
    train_pairs = corpus.encode_pairs(split.train, src_vocab, tgt_vocab, True)
    # with no validation split (decode), validate on the test words
    val_pairs = corpus.encode_pairs(split.validation or test, src_vocab, tgt_vocab, True)
    return Prepared(config, params, src_vocab, tgt_vocab, train_pairs, val_pairs, test)


class SetUp:
    """Windows of back-to-back set-ups, spread over the run by `interleave`.

    Each window takes at least three set-ups and `SETUP_WINDOW_S`; `setup_s` is
    the median over the untraced windows of the mean set-up time in each. The
    first set-up's data serves the rest of the run."""

    def __init__(self, run: Run, train_lines, test_lines):
        self.run, self.lines = run, (train_lines, test_lines)
        self.windows = {False: [], True: []}
        self.prepared = None
        self.made = 0
        self.spent = 0.0
        if run.workload.from_checkpoint:
            want = json.loads(make_fixture.RECORD.read_text(encoding="utf-8"))["sha256"]
            if make_fixture.sha256_of(make_fixture.CHECKPOINT) != want:
                raise GateFailure(f"{make_fixture.CHECKPOINT.name}: SHA-256 differs from "
                                  f"{make_fixture.RECORD.name}")
            run.gates.append("checkpoint_sha256")

    def units(self, traced: bool) -> int:
        return len(self.windows[traced])

    def unit(self, traced: bool) -> None:
        count, start = 0, perf_counter()
        while count < 3 or perf_counter() - start < SETUP_WINDOW_S:
            with self.run.unit("setup", traced):
                prepared = setup(self.run.workload, *self.lines)
            count += 1
        elapsed = perf_counter() - start
        self.made += 1
        self.spent += elapsed
        self.windows[traced].append(elapsed / count)
        if self.prepared is None:
            batch_size = self.run.workload.schedule["batch_size"]
            prepared.batches_per_epoch = len(model.make_batches(
                prepared.train_pairs, batch_size, np.random.default_rng(0)))
            self.prepared = prepared

    def summary(self) -> float:
        return statistics.median(self.windows[False])


# --- training -----------------------------------------------------------------


def _train_round(run: Run, prep: Prepared, traced: bool):
    """One `train_model` call from the same start; returns (epoch seconds, result)."""
    schedule = model.TrainingSchedule(**run.workload.schedule)
    params = model.clone_params(prep.params)
    marks = []

    def on_epoch(_epoch, _params, _stats):
        marks.append(perf_counter())

    run.attempted += prep.batches_per_epoch * schedule.epochs
    with run.unit("train", traced):
        marks.append(perf_counter())
        try:
            result = model.train_model(prep.train_pairs, prep.val_pairs, prep.config,
                                       schedule, params=params, epoch_callback=on_epoch)
        except RuntimeError as exc:  # non-finite loss or gradient
            run.failed += 1
            raise GateFailure(f"training aborted: {exc}") from exc
    return [b - a for a, b in zip(marks, marks[1:])], result


class Training:
    """Identical `train_model` rounds. Every epoch trains the same target tokens,
    so `train_tok_s` is the tokens of one epoch over the median epoch time of
    the untraced rounds. The median sets aside the machine's fast and slow
    spells, which last seconds; the fastest epoch would depend on whether a run
    happened to meet a fast one."""

    def __init__(self, run: Run, prep: Prepared):
        self.run, self.prep = run, prep
        self.epoch_s = {False: [], True: []}
        self.losses = []
        self.result = None
        self.made = 0
        self.spent = 0.0

    def units(self, traced: bool) -> int:
        return len(self.epoch_s[traced])

    def unit(self, traced: bool) -> None:
        start = perf_counter()
        seconds, self.result = _train_round(self.run, self.prep, traced)
        self.made += 1
        self.spent += perf_counter() - start
        self.epoch_s[traced].append(seconds)
        history = self.result.history
        if not all(math.isfinite(h.train_loss) and math.isfinite(h.val_loss) for h in history):
            raise GateFailure("non-finite training or validation loss")
        self.losses.append(history[-1].val_loss)

    def summary(self) -> dict:
        if len(set(self.losses)) != 1:
            raise GateFailure("val_loss differs between identical rounds: "
                              f"{sorted(set(self.losses))}")
        self.run.gates += ["finite_loss", "val_loss_repeats"]
        tokens = sum(len(t) + 1 for _, t in self.prep.train_pairs)

        def rate(rounds):
            return tokens / statistics.median(s for r in rounds for s in r) if rounds else None

        return {
            "rounds": len(self.epoch_s[False]),
            "train_tok_s": rate(self.epoch_s[False]),
            "traced_tok_s": rate(self.epoch_s[True]),
            "val_loss": self.losses[0],
        }


# --- decoding -----------------------------------------------------------------


def _ranking_key(entry, tgt_vocab, max_len):
    ids = tuple(tgt_vocab.encode(entry.phonemes))
    if entry.truncated:
        return (-entry.log_prob, max_len + 1, (corpus.BOS_ID,) + ids)
    return (-entry.log_prob, len(ids) + 1, (corpus.BOS_ID,) + ids + (corpus.EOS_ID,))


def check_ranking(nbest, src_len, tgt_vocab) -> None:
    """n-best order: log-prob, then completion step, then token ids."""
    max_len = decoding.default_max_len(src_len)
    keys = [_ranking_key(e, tgt_vocab, max_len) for e in nbest]
    if keys != sorted(keys):
        raise GateFailure("n-best list out of ranking order")


def _evaluate_chunk(run: Run, prep: Prepared, params, entries, width: int, traced: bool):
    """One `metrics.evaluate` over `entries`; returns (seconds, n-best lists, ms per word)."""
    nbests, latencies = [], []

    def decode_fn(entry):
        src = prep.src_vocab.encode(entry.source_tokens(True))
        run.attempted += 1
        start = perf_counter()
        try:
            nbest = decoding.beam_search(src, params, prep.config, prep.tgt_vocab, width=width)
        except Exception:  # a word that cannot be decoded counts as failed; the run goes on
            traceback.print_exc()
            nbest = []
        latencies.append((perf_counter() - start) * 1e3)
        if not nbest:
            run.failed += 1
        nbests.append((entry, nbest))  # evaluate visits entries grouped by language
        return nbest

    def timed_decode_fn(entry):
        with run.tracer.span("decode_fn"):
            return decode_fn(entry)

    with run.unit(f"evaluate.w{width}", traced), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # WER 100 from a beam narrower than 100
        start = perf_counter()
        metrics.evaluate(entries, timed_decode_fn if traced else decode_fn, width=width)
        seconds = perf_counter() - start
    return seconds, nbests, latencies


def check_decode_gates(run: Run, prep: Prepared, params, first: dict) -> None:
    """Width-1 equals greedy decoding; every list is ranked."""
    for nbests in first.values():
        for entry, nbest in nbests:
            if nbest:
                check_ranking(nbest, len(entry.graphemes) + 1, prep.tgt_vocab)
    for entry, nbest in first[1][:GREEDY_SAMPLE]:
        src = prep.src_vocab.encode(entry.source_tokens(True))
        phonemes, log_prob = decoding.greedy_decode(src, params, prep.config, prep.tgt_vocab)
        if not nbest or nbest[0].phonemes != phonemes or abs(nbest[0].log_prob - log_prob) > 1e-4:
            raise GateFailure(f"width-1 beam differs from greedy decoding on {entry.graphemes}")
    run.gates += ["nbest_ranking", "width1_equals_greedy"]


def _words_per_second(word_samples, outside_ms) -> tuple[float, list[float]]:
    """Words over the sum of each word's median time plus the median time per
    word that `evaluate` spent outside `decode_fn`; also returns each word's
    median time in ms."""
    word_ms = [statistics.median(samples) for samples in word_samples]
    return len(word_ms) * 1e3 / (sum(word_ms) + len(word_ms) * statistics.median(outside_ms)), word_ms


class Decoding:
    """`evaluate` calls at the widths of `CYCLE` in turn, each over the next of
    `CHUNKS` chunks of the test words at its width, one call per unit.

    Short units let `interleave` spread each width's decodes of every word over
    the run, between the other phases' units, so each word's time is its median
    over decodes made at different moments (see `_words_per_second`). A traced
    run traces every other unit; as `CYCLE` and `CHUNKS` have odd length, each
    chunk's decodes at each width alternate between traced and bare, so the
    tracing overhead compares decodes of the same words made close together.
    The scores come from `evaluate` over the whole test set, fed the n-best
    lists of each word's first decode."""

    def __init__(self, run: Run, prep: Prepared, params):
        self.run, self.prep, self.params = run, prep, params
        n = len(prep.test)
        self.chunks = [list(range(i, n, CHUNKS)) for i in range(CHUNKS)]
        self.word_ms = {t: {w: [[] for _ in range(n)] for w in WIDTHS} for t in (False, True)}
        self.outside_ms = {t: {w: [] for w in WIDTHS} for t in (False, True)}
        self.first = {w: [None] * n for w in WIDTHS}
        self.calls = {w: 0 for w in WIDTHS}
        self.made = 0
        self.spent = 0.0

    def units(self, traced: bool) -> int:
        """Decodes of the least decoded word at its least decoded width."""
        return min(len(s) for per_word in self.word_ms[traced].values() for s in per_word)

    def unit(self, traced: bool) -> None:
        width = CYCLE[self.made % len(CYCLE)]
        chunk = self.chunks[self.calls[width] % CHUNKS]
        self.made += 1
        self.calls[width] += 1
        start = perf_counter()
        seconds, nbests, lat = _evaluate_chunk(self.run, self.prep, self.params,
                                            [self.prep.test[i] for i in chunk], width, traced)
        order = {id(self.prep.test[i]): i for i in chunk}
        for (entry, nbest), ms in zip(nbests, lat):
            i = order[id(entry)]
            first = self.first[width][i]
            if first is None:
                self.first[width][i] = nbest
            elif nbest[:1] != first[:1]:
                raise GateFailure(f"width {width}: repeated decodes of {entry.graphemes} differ")
            self.word_ms[traced][width][i].append(ms)
        self.outside_ms[traced][width].append((seconds * 1e3 - sum(lat)) / len(chunk))
        self.spent += perf_counter() - start

    def summary(self) -> dict:
        test = self.prep.test
        first = {w: list(zip(test, self.first[w])) for w in WIDTHS}
        check_decode_gates(self.run, self.prep, self.params, first)
        out = {"decodes": {f"w{w}": self.units(False) for w in WIDTHS}}
        for width in WIDTHS:
            rate, word_ms = _words_per_second(self.word_ms[False][width],
                                              self.outside_ms[False][width])
            out[f"words_s.w{width}"] = rate
            if self.outside_ms[True][width]:
                traced_rate = _words_per_second(self.word_ms[True][width],
                                                self.outside_ms[True][width])[0]
                out[f"trace_overhead.w{width}"] = rate / traced_rate - 1
            top = [n[0] for n in self.first[width] if n]
            out[f"truncated.w{width}"] = sum(e.truncated for e in top) / len(test)
            if width == 10:
                cuts = statistics.quantiles(word_ms, n=10)
                out["word_ms_p50.w10"], out["word_ms_p90.w10"] = cuts[4], cuts[8]
                out["latency_samples"] = len(word_ms)
        by_entry = {id(e): n for e, n in first[100]}
        macro = metrics.evaluate(test, lambda e: by_entry[id(e)], width=100).macro
        out.update(wer=macro.wer, wer100=macro.wer100, per=macro.per)
        return out


def interleave(run: Run, phases: list, shares: list[float], start: float) -> None:
    """Run a unit of whichever phase is furthest behind its share of the time,
    until every phase has its minimum of untraced units (and, traced, one traced
    unit) and the next unit would end after `--seconds`. Spreading each phase's
    repeats over the whole run keeps one slow stretch of the machine from
    covering all of them."""
    while True:
        phase = min(zip(phases, shares), key=lambda ps: ps[0].spent / ps[1])[0]
        done = all(p.units(False) >= run.min_passes and (p.units(True) or not run.trace)
                   for p in phases)
        if done and perf_counter() - start + phase.spent / phase.made > run.seconds:
            return
        phase.unit(run.is_traced(phase.made))


def _save_and_load(run: Run, prep: Prepared, params) -> model.ModelParams:
    """Save the trained model and load it back, as `polyg2p train` then `evaluate` do."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run.workload.name}-{os.getpid()}.mg2p"
    meta = {"lang_token": True, "schedule": run.workload.schedule}
    checkpoint.save_checkpoint(path, checkpoint.ModelBundle(
        params, prep.config, prep.src_vocab, prep.tgt_vocab, meta))
    try:
        with run.unit("load", run.trace):
            bundle = checkpoint.load_checkpoint(path)
    finally:
        path.unlink()
    return bundle.params


# --- recorded values ------------------------------------------------------------


def _quality_tolerance(prep: Prepared) -> float:
    counts: dict[str, int] = {}
    for e in prep.test:
        counts[e.lang] = counts.get(e.lang, 0) + 1
    return QUALITY_TOL_WORDS * 100.0 / (min(counts.values()) * len(counts))


def check_expected(run: Run, prep: Prepared, values: dict, expected: dict) -> None:
    key = f"{'toy/' if run.workload.toy else ''}{run.workload.name}/{run.variant}"
    want = expected.get(key)
    if want is None:
        raise GateFailure(f"no recorded values for {key} in {EXPECTED.name}")
    if not math.isclose(values["val_loss"], want["val_loss"], rel_tol=VAL_LOSS_RTOL):
        raise GateFailure(f"val_loss {values['val_loss']} differs from recorded {want['val_loss']}")
    tol = _quality_tolerance(prep)
    for name in ("wer", "wer100", "per"):
        if abs(values[name] - want[name]) > tol + 1e-9:
            raise GateFailure(f"{name} {values[name]:.3f} differs from recorded {want[name]:.3f} "
                              f"by more than {tol:.2f}")
    run.gates += ["val_loss_recorded", "quality_recorded"]


# --- per-layer metrics ----------------------------------------------------------


def per_layer(run: Run, train: dict, decode: dict) -> dict:
    spans = run.tracer.spans
    self_ms = run.tracer.self_ms()

    def under(span, root):
        return span.ancestor(root) is not None

    def children(name, parents):
        return [s for s in spans if s.name == name and s.parent is not None
                and s.parent.index in parents]

    rounds = {s.index for s in spans if s.name == "model.train_model"}
    train_fl = children("model.forward_loss", rounds)  # not the calls under validation_loss
    in_fl = {s.index for s in train_fl}
    batches = len(train_fl)

    def per_batch(picked):
        return sum(s.ms for s in picked) / batches

    m = {"model.forward_loss.ms": per_batch(train_fl)}
    m["model.forward_loss.self_ms"] = sum(self_ms[s.index] for s in train_fl) / batches
    for name, metric in (("model.encode", "model.encode.ms"), ("model.attend", "model.attend.ms"),
                         ("autodiff.cross_entropy", "autodiff.cross_entropy.ms")):
        m[metric] = per_batch(children(name, in_fl))
    backward = children("autodiff.backward", rounds)
    m["autodiff.backward.ms"] = per_batch(backward)
    m["autodiff.tape_nodes"] = sum(s.count for s in backward) / len(backward)
    clips = children("autodiff.clip_gradients", rounds)
    m["autodiff.optimizer.ms"] = per_batch(clips + children("autodiff.sgd_step", rounds)
                                           + children("autodiff.zero_grads", rounds))
    m["autodiff.clip_share"] = sum(bool(s.count) for s in clips) / len(clips)
    epochs = [s for s in spans if s.name == "model.make_batches" and under(s, "train")]
    src_real, src_total, tgt_real, tgt_total = (sum(x) for x in zip(*(s.count for s in epochs)))
    m["model.pad_share.src"] = 1.0 - src_real / src_total
    m["model.pad_share.tgt"] = 1.0 - tgt_real / tgt_total
    m["model.make_batches.ms_per_epoch"] = sum(s.ms for s in epochs) / len(epochs)
    vals = [s for s in spans if s.name == "model.validation_loss" and under(s, "train")]
    m["model.validation_loss.ms_per_epoch"] = sum(s.ms for s in vals) / len(vals)
    m["train.batches"] = batches
    m["train.target_tokens"] = tgt_real

    for width in WIDTHS:
        root = f"evaluate.w{width}"
        words = [s for s in spans if s.name == "decode_fn" and under(s, root)]
        n = len(words)
        searches = [s for s in spans if s.name == "decoding.beam_search" and under(s, root)]
        steps = [s for s in spans if s.name == "decoding.decode_step" and under(s, root)]
        encodes = [s for s in spans if s.name == "decoding.encode" and under(s, root)]
        evaluates = [s for s in spans if s.name == "metrics.evaluate" and under(s, root)]
        m[f"decoding.beam_search.self_ms.w{width}"] = sum(self_ms[s.index] for s in searches) / n
        m[f"model.decode_step.calls.w{width}"] = len(steps) / n
        m[f"model.decode_step.rows.w{width}"] = sum(s.count for s in steps) / len(steps)
        m[f"model.decode_step.ms.w{width}"] = sum(s.ms for s in steps) / n
        m[f"model.encode.ms.w{width}"] = sum(s.ms for s in encodes) / n
        m[f"metrics.evaluate.self_ms.w{width}"] = (
            sum(s.ms for s in evaluates) - sum(s.ms for s in words)) / n
        m[f"decoding.truncated_share.w{width}"] = decode[f"truncated.w{width}"]
        m[f"trace.overhead.words_s.w{width}"] = decode[f"trace_overhead.w{width}"]
    m["trace.overhead.train_tok_s"] = train["train_tok_s"] / train["traced_tok_s"] - 1.0

    setups = [s for s in spans if s.name == "setup"]
    for name in ("corpus.parse_lexicon", "corpus.split_train_val", "corpus.build_vocab",
                 "corpus.encode_pairs", "model.init_params"):
        picked = [s for s in spans if s.name == name and under(s, "setup")]
        m[f"{name}.ms"] = sum(s.ms for s in picked) / len(setups)
    loads = [s for s in spans if s.name == "checkpoint.load_checkpoint"]
    m["checkpoint.load_checkpoint.ms"] = sum(s.ms for s in loads) / len(loads)
    return m


# --- environment and output -----------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "polyg2p": polyg2p.__version__,
    }


def end_to_end(setup_s, train, decode, rss_mb) -> dict:
    m = {"setup_s": setup_s, "train_tok_s": train["train_tok_s"], "val_loss": train["val_loss"]}
    for width in WIDTHS:
        m[f"words_s.w{width}"] = decode[f"words_s.w{width}"]
    for name in ("word_ms_p50.w10", "word_ms_p90.w10", "wer", "wer100", "per"):
        m[name] = decode[name]
    m["peak_rss_mb"] = rss_mb
    return m


def with_units(values: dict, kind: str) -> dict:
    """Attach BENCHMARK.json's units; the names must be exactly those it lists."""
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {set(values) ^ set(units)}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def run_workload(run: Run, expected: dict | None) -> dict:
    work = run.workload
    start = perf_counter()
    setups = SetUp(run, *work.lexicons(run.variant))
    setups.unit(traced=False)
    prep = setups.prepared
    trainer = Training(run, prep)
    trainer.unit(traced=False)  # every round trains the same model; decode the first
    params = prep.params if work.from_checkpoint else _save_and_load(run, prep,
                                                                     trainer.result.params)
    decoder = Decoding(run, prep, params)
    interleave(run, [setups, trainer, decoder],
               [SETUP_SHARE, work.train_share, 1 - SETUP_SHARE - work.train_share], start)
    setup_s, train, decode = setups.summary(), trainer.summary(), decoder.summary()
    quality = {"val_loss": train["val_loss"], **{k: decode[k] for k in ("wer", "wer100", "per")}}
    if expected is not None:
        check_expected(run, prep, quality, expected)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.trace:
        metrics_out = with_units(per_layer(run, train, decode), "per_layer")
    else:
        metrics_out = with_units(end_to_end(setup_s, train, decode, rss_mb), "end_to_end")
    samples = {"setup_windows": setups.units(False), "train_rounds": train["rounds"],
               "latency_samples": decode["latency_samples"], "decodes": decode["decodes"]}
    return {"metrics": metrics_out, "quality": quality, "samples": samples}


def record(names, toy: bool) -> int:
    """Update expected.json from one minimal run of each named workload and variant."""
    values = {}
    for name in names:
        work = Workload(**{**vars(WORKLOADS[name]), "toy": toy})
        for variant in range(VARIANTS):
            result = run_workload(Run(work, variant, 0.0, False), None)
            key = f"{'toy/' if toy else ''}{name}/{variant}"
            values[key] = result["quality"]
            print(key, json.dumps(result["quality"]), flush=True)
    old = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    old.update(values)
    EXPECTED.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for selftest.py")
    parser.add_argument("--record", action="store_true",
                        help="record the quality values of every variant in expected.json")
    args = parser.parse_args(argv)
    if args.record:
        return record([args.workload] if args.workload else sorted(WORKLOADS), args.toy)
    if args.workload is None:
        parser.error("--workload is required")
    work = Workload(**{**vars(WORKLOADS[args.workload]), "toy": args.toy})
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    run = Run(work, args.seed % VARIANTS, args.seconds, bool(args.trace))
    try:
        result = run_workload(run, expected)
    except GateFailure as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": max(run.failed, 1), "metrics": {}}))
        return 1
    if args.trace:
        OUT.mkdir(exist_ok=True)
        run.tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", env)
    print(json.dumps({"gates": sorted(set(run.gates)), "samples": result["samples"],
                      "quality": result["quality"]}))
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
