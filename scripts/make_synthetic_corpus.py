#!/usr/bin/env python3
"""Write the synthetic desk-scale lexicons to disk.

Produces `bilingual.tsv` (two languages sharing spellings with conflicting
letter rules) and `memorize.tsv` (random pronunciations for one language),
ready to feed to `polyg2p prepare` / `polyg2p train`.
"""

import argparse
from pathlib import Path

from polyg2p.corpus import atomic_write, write_lexicon
from polyg2p.synth import conflicting_bilingual_corpus, memorization_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", help="where to write the lexicons")
    parser.add_argument("--words", type=int, default=200, help="words per language (bilingual)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / "bilingual.tsv") as fh:
        write_lexicon(fh, conflicting_bilingual_corpus(args.words, seed=args.seed))
    with atomic_write(out / "memorize.tsv") as fh:
        write_lexicon(fh, memorization_corpus(50, seed=args.seed + 4))
    print(f"wrote {out / 'bilingual.tsv'} and {out / 'memorize.tsv'}")


if __name__ == "__main__":
    main()
