#!/usr/bin/env python3
"""Desk-scale language-ID ablation.

Trains two otherwise identical models on a bilingual corpus whose two
languages share every spelling but disagree on every letter's pronunciation:
one model sees a `<lang>` token prepended to each source sequence, the other
does not. Prints held-out WER per language for both. The token variant
should solve the task; the blind variant cannot tell the languages apart.
"""

from polyg2p.synth import bilingual_split, held_out_wer, train_bilingual


def main():
    split = bilingual_split()
    print(f"corpus: {len(split.train)} train / {len(split.validation)} held-out words")
    langs = sorted({e.lang for e in split.validation})
    print("variant      " + "".join(f"{lang:>10}" for lang in langs))
    for label, lang_token in (("LangID", True), ("NoLangID", False)):
        scores = held_out_wer(train_bilingual(split, lang_token), split)
        print(f"{label:<13}" + "".join(f"{scores[lang]:>9.1f}%" for lang in langs))


if __name__ == "__main__":
    main()
