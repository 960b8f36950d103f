"""Seeded synthetic multilingual lexicons for the benchmark.

Twenty languages share a pool of about 60 graphemes in two scripts (Latin and
Cyrillic) and more than 100 phonemes. Each language has its own letter-to-phoneme
map plus context rules, so the task is not one letter to one phoneme:

- digraphs: two consonant letters read as one phoneme;
- soft letters: a consonant whose phoneme changes before a front vowel;
- a silent letter at the end of a word.

A fixed share of words are exceptions whose pronunciation has one or two
phonemes replaced at random; no model can predict them from the spelling, so
held-out WER and WER 100 never reach 0.

Languages depend only on `LANGUAGE_SEED`; words depend on the seed passed to
`sample_words`. Word lengths (2-12 letters) and exception positions are fixed by
the word's index in the sample, so every sample of a given size has the same
letter count and exception count whatever its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LANGUAGE_SEED = 1708
N_LANGUAGES = 20
N_CYRILLIC = 6
MIN_LEN, MAX_LEN = 2, 12
EXCEPTION_EVERY = 6  # one word in six is an exception

LATIN_VOWELS = tuple("aeiouyáéíóäöü")
LATIN_CONSONANTS = tuple("bcdfghjklmnpqrstvwxzš")
CYRILLIC_VOWELS = tuple("аеиоуыэюя")
CYRILLIC_CONSONANTS = tuple("бвгджзклмнпрстфхцчш")

VOWEL_PHONES = tuple(
    "i y ɨ ʉ ɯ u ɪ ʏ ʊ e ø ɘ ɵ ɤ o ə ɛ œ ɜ ɞ ʌ ɔ æ ɐ a ɶ ɑ ɒ "
    "iː uː aː eː oː ã ẽ õ".split()
)
CONSONANT_PHONES = tuple(
    "p b t d ʈ ɖ c ɟ k g q ɢ ʔ m ɱ n ɳ ɲ ŋ ɴ r ʀ ɾ ɽ ɸ β f v θ ð s z ʃ ʒ ʂ ʐ ç ʝ "
    "x ɣ χ ʁ ħ ʕ h ɦ ɬ ɮ ʋ ɹ ɻ j ɰ l ɭ ʎ ʟ w ɥ "
    "ts dz tʃ dʒ tɕ dʑ pf pʰ tʰ kʰ tʲ dʲ sʲ nʲ lʲ rʲ".split()
)


@dataclass(frozen=True)
class Language:
    code: str
    vowels: tuple[str, ...]
    consonants: tuple[str, ...]
    phone_of: dict[str, str]
    digraphs: dict[str, str]      # two letters -> one phoneme
    soft: dict[str, str]          # letter -> phoneme before a front vowel
    front: frozenset[str]
    silent_final: str
    inventory: tuple[str, ...]    # every phoneme the rules can produce


def _pick(rng: np.random.Generator, pool, n: int) -> list:
    return [pool[i] for i in sorted(rng.choice(len(pool), n, replace=False))]


def _family(rng: np.random.Generator, cyrillic: bool) -> Language:
    """A base orthography that the languages of one family vary."""
    vowels = _pick(rng, CYRILLIC_VOWELS if cyrillic else LATIN_VOWELS, 8)
    consonants = _pick(rng, CYRILLIC_CONSONANTS if cyrillic else LATIN_CONSONANTS, 17)
    vowel_phones = _pick(rng, VOWEL_PHONES, len(vowels))
    consonant_phones = _pick(rng, CONSONANT_PHONES, len(consonants) + 5)
    rng.shuffle(vowel_phones)
    rng.shuffle(consonant_phones)
    phone_of = dict(zip(vowels, vowel_phones))
    phone_of.update(zip(consonants, consonant_phones))
    extra = consonant_phones[len(consonants):]
    firsts = _pick(rng, consonants, 3)
    digraphs = {c + consonants[int(rng.integers(len(consonants)))]: extra[i]
                for i, c in enumerate(firsts)}
    soft = dict(zip(_pick(rng, [c for c in consonants if c not in firsts], 2), extra[3:5]))
    return Language("", tuple(vowels), tuple(consonants), phone_of, digraphs, soft,
                    frozenset(_pick(rng, vowels, len(vowels) // 2)), "", ())


def make_languages(n: int = N_LANGUAGES, seed: int = LANGUAGE_SEED) -> list[Language]:
    """The fixed language family tree; codes come from ISO 639-3's local-use range.

    Four families (three Latin, one Cyrillic) each fix a base orthography. Each
    language drops up to two of its family's letters, reads about a quarter of
    the rest differently, may read one digraph differently and has its own
    silent final letter, so languages share much but never all of their rules."""
    rng = np.random.default_rng(seed)
    families = [_family(rng, cyrillic) for cyrillic in (False, False, False, True)]
    languages = []
    for k in range(n):
        cyrillic = k >= n - N_CYRILLIC
        base = families[3] if cyrillic else families[k % 3]
        protected = set("".join(base.digraphs)) | set(base.soft)
        droppable = sorted(set(base.consonants) - protected)
        dropped = set(_pick(rng, droppable, int(rng.integers(0, 3))))
        consonants = tuple(c for c in base.consonants if c not in dropped)
        phone_of = {ch: p for ch, p in base.phone_of.items() if ch not in dropped}
        for ch in _pick(rng, base.vowels + consonants, len(phone_of) // 4):
            pool = VOWEL_PHONES if ch in base.vowels else CONSONANT_PHONES
            phone_of[ch] = pool[int(rng.integers(len(pool)))]
        digraphs = dict(base.digraphs)
        if rng.random() < 0.5:
            pair = sorted(digraphs)[int(rng.integers(len(digraphs)))]
            digraphs[pair] = CONSONANT_PHONES[int(rng.integers(len(CONSONANT_PHONES)))]
        inventory = tuple(sorted(set(phone_of.values()) | set(digraphs.values())
                                 | set(base.soft.values())))
        languages.append(Language(
            code="q" + "abcdefghijklmnopqrst"[k] + ("c" if cyrillic else "l"),
            vowels=base.vowels, consonants=consonants, phone_of=phone_of,
            digraphs=digraphs, soft=dict(base.soft), front=base.front,
            silent_final=consonants[int(rng.integers(len(consonants)))], inventory=inventory,
        ))
    return languages


def pronounce(lang: Language, word: str) -> tuple[str, ...]:
    """Apply the language's rules left to right; digraphs take precedence."""
    phones: list[str] = []
    i = 0
    while i < len(word):
        pair = word[i : i + 2]
        if pair in lang.digraphs:
            phones.append(lang.digraphs[pair])
            i += 2
            continue
        ch = word[i]
        nxt = word[i + 1] if i + 1 < len(word) else ""
        if ch == lang.silent_final and not nxt and phones:
            pass
        elif ch in lang.soft and nxt in lang.front:
            phones.append(lang.soft[ch])
        else:
            phones.append(lang.phone_of[ch])
        i += 1
    return tuple(phones)


def _spelling(lang: Language, length: int, rng: np.random.Generator) -> str:
    """Alternate consonant and vowel slots; a consonant slot may hold a digraph."""
    digraphs = list(lang.digraphs)
    letters: list[str] = []
    vowel_next = bool(rng.integers(2))
    while len(letters) < length:
        if vowel_next:
            letters.append(lang.vowels[int(rng.integers(len(lang.vowels)))])
        elif length - len(letters) >= 2 and rng.random() < 0.3:
            letters.extend(digraphs[int(rng.integers(len(digraphs)))])
        else:
            letters.append(lang.consonants[int(rng.integers(len(lang.consonants)))])
        vowel_next = not vowel_next
    return "".join(letters)


def _exception(lang: Language, phones: tuple[str, ...],
               rng: np.random.Generator) -> tuple[str, ...]:
    changed = list(phones)
    for pos in rng.choice(len(changed), min(2, len(changed)), replace=False):
        options = [p for p in lang.inventory if p != changed[pos]]
        changed[pos] = options[int(rng.integers(len(options)))]
    return tuple(changed)


def sample_words(
    languages: list[Language],
    per_language: int,
    seed: int,
    exclude: set[tuple[str, str]] = frozenset(),
) -> list[tuple[str, str, tuple[str, ...]]]:
    """`per_language` distinct (lang, spelling, phonemes) entries per language.

    Word i of each language has length MIN_LEN + i mod 11 and is an exception
    when i mod EXCEPTION_EVERY is the last slot. Spellings in `exclude` (as
    (lang, spelling) pairs) are skipped, so held-out samples never meet
    training words."""
    span = MAX_LEN - MIN_LEN + 1
    out = []
    for k, lang in enumerate(languages):
        rng = np.random.default_rng([seed, k])
        seen = set()
        for i in range(per_language):
            length = MIN_LEN + (i + k) % span
            while True:
                word = _spelling(lang, length, rng)
                if word not in seen and (lang.code, word) not in exclude:
                    break
            seen.add(word)
            phones = pronounce(lang, word)
            if i % EXCEPTION_EVERY == EXCEPTION_EVERY - 1:
                phones = _exception(lang, phones, rng)
            out.append((lang.code, word, phones))
    return out


def lexicon_lines(entries) -> list[str]:
    """The `lang<TAB>spelling<TAB>phonemes` lines that `corpus.parse_lexicon` reads."""
    return [f"{lang}\t{word}\t{' '.join(phones)}\n" for lang, word, phones in entries]
