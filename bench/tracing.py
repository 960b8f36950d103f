"""Spans around polyg2p's public functions, recorded from outside the package.

`Tracer.installed()` replaces each function in `TRACED` at the name its callers
look up, and puts the originals back on exit. For example `forward_loss` calls
`polyg2p.model.encode`, while `beam_search` calls `polyg2p.decoding.encode`
and `polyg2p.decoding.decode_step`, which it imported by name; `Tape.backward`
is replaced on the class. Each call records a span: name, start, end, parent
and an optional count taken from its arguments or result. Spans stay in memory
until `dump` writes them out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from polyg2p import autodiff, checkpoint, corpus, decoding, metrics, model


def _pad_counts(args, kwargs, batches):
    """Real and padded positions of a `make_batches` result, on both sides."""
    pairs = args[0]
    src_real = src_total = tgt_real = tgt_total = 0
    for batch in batches:
        src = [len(pairs[i][0]) for i in batch]
        tgt = [len(pairs[i][1]) + 1 for i in batch]  # decoder steps include EOS
        src_real += sum(src)
        src_total += max(src) * len(src)
        tgt_real += sum(tgt)
        tgt_total += max(tgt) * len(tgt)
    return (src_real, src_total, tgt_real, tgt_total)


def _clipped(args, kwargs, norm):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return norm > max_norm


def _tape_nodes(args, kwargs, _):
    return len(args[0].nodes)


def _rows(args, kwargs, _):
    return len(args[0])


# (owner, attribute, span name, count taken from the call)
TRACED = (
    (corpus, "parse_lexicon", "corpus.parse_lexicon", None),
    (corpus, "split_train_val", "corpus.split_train_val", None),
    (corpus, "build_vocab", "corpus.build_vocab", None),
    (corpus, "encode_pairs", "corpus.encode_pairs", None),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
    (model, "init_params", "model.init_params", None),
    (model, "train_model", "model.train_model", None),
    (model, "make_batches", "model.make_batches", _pad_counts),
    (model, "validation_loss", "model.validation_loss", None),
    (model, "forward_loss", "model.forward_loss", None),
    (model, "encode", "model.encode", None),
    (model, "attend", "model.attend", None),
    (autodiff, "cross_entropy", "autodiff.cross_entropy", None),
    (autodiff.Tape, "backward", "autodiff.backward", _tape_nodes),
    (autodiff, "clip_gradients", "autodiff.clip_gradients", _clipped),
    (autodiff, "sgd_step", "autodiff.sgd_step", None),
    (autodiff, "zero_grads", "autodiff.zero_grads", None),
    (metrics, "evaluate", "metrics.evaluate", None),
    (decoding, "beam_search", "decoding.beam_search", None),
    (decoding, "encode", "decoding.encode", None),
    (decoding, "decode_step", "decoding.decode_step", _rows),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "count", "index")

    def __init__(self, name: str, parent: "Span | None", index: int):
        self.name = name
        self.parent = parent
        self.index = index
        self.start = self.end = 0.0
        self.count = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def ancestor(self, name: str) -> "Span | None":
        span = self.parent
        while span is not None and span.name != name:
            span = span.parent
        return span


class Tracer:
    """Records spans for the calls made while `installed()` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._stack[-1] if self._stack else None, len(self.spans))
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED]
        try:
            for (owner, attr, name, count), (_, _, fn) in zip(TRACED, originals):
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_ms(self) -> dict[int, float]:
        """Each span's duration minus the durations of its direct children."""
        out = {s.index: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent.index] -= s.ms
        return out

    def dump(self, path, environment: dict) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent.index if s.parent is not None else None, "count": s.count}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment, "spans": rows}, fh)
            fh.write("\n")
