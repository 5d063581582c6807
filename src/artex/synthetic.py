"""Deterministic synthetic corpus and lemma-dictionary generation.

Real evaluation corpora are licensed and cannot ship with the code, so the
benchmark and the test suite run on generated documents instead. Documents
are built from pseudo-words (pronounceable stem + real-looking suffix) with
planted topical redundancy: a per-document topic lexicon recurs across
content-dense topical sentences, while junk sentences are stop-words and
one-off words that vanish under preprocessing. Everything derives from an
explicit seed, so regeneration is byte-identical.

Inflections are chosen so that no two content forms share a stemmed type.
Without that guarantee the stemmer merges some forms and not others, the
planted vocabulary gets a lopsided frequency profile, and frequency-driven
selection over-samples the heavy types instead of covering the topic.

The generated lemma dictionary maps every inflected form of the shared
stem pool back to its stem and is padded with inert entries to a requested
size, mirroring the load cost of a real large dictionary.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path

from .stemming import stemmer_for

_CONSONANTS = "bcdfglmnprstv"
_VOWELS = "aeiou"

_SUFFIXES = (
    "",
    "s",
    "ed",
    "ing",
    "ings",
    "er",
    "ers",
    "ation",
    "ations",
    "ment",
    "ments",
    "ly",
    "ously",
    "iveness",
)

_STOPWORDS = (
    "the", "of", "and", "a", "in", "to", "is", "was", "it", "for",
    "with", "as", "on", "that", "by", "this", "at", "from", "are", "be",
)

_TERMINATORS = (".", ".", ".", ".", ".", ".", "!", "?")

STEM_POOL_SIZE = 4000


def _syllables(rng: random.Random, count: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(count))


@functools.lru_cache(maxsize=None)
def stem_pool(seed: int) -> tuple[str, ...]:
    """The shared pseudo-word stems for a given seed, built once per process."""
    rng = random.Random(f"stems:{seed}")
    pool: dict[str, None] = {}  # an insertion-ordered set
    while len(pool) < STEM_POOL_SIZE:
        pool[_syllables(rng, rng.randint(2, 3))] = None
    return tuple(pool)


def _fresh_word(rng: random.Random, used: set[str]) -> str:
    while True:
        word = _syllables(rng, 4)
        if word not in used:
            used.add(word)
            return word


def _distinct_inflections(
    rng: random.Random, stems: list[str], per_stem: int, taken: set[str]
) -> list[str]:
    # Pick inflections whose stemmed types are pairwise distinct, so every
    # content form lands on its own vocabulary entry with the same planted
    # frequency. ``taken`` carries reserved stemmed types across calls.
    stem_english = stemmer_for("en")
    forms = []
    for stem in stems:
        picked = 0
        for suffix in rng.sample(_SUFFIXES, len(_SUFFIXES)):
            form = stem + suffix
            stemmed = stem_english(form)
            if stemmed not in taken:
                taken.add(stemmed)
                forms.append(form)
                picked += 1
            if picked == per_stem:
                break
    return forms


def _topical_sentence(
    rng: random.Random,
    topic_forms: list[str],
    filler_forms: list[str],
    used_hapaxes: set[str],
) -> list[str]:
    # Content-dense sentence: a contiguous slice of the topic cycle (so
    # topical sentences share bigrams, not just unigrams), plus a uniform
    # filler sample so the medium-frequency vocabulary rides along in
    # source proportions.
    start = rng.randrange(len(topic_forms))
    length = rng.randint(5, 7)
    words = [rng.choice(_STOPWORDS)]
    words += [topic_forms[(start + k) % len(topic_forms)] for k in range(length)]
    words += [rng.choice(_STOPWORDS)]
    words += rng.sample(filler_forms, rng.randint(4, 6))
    if rng.random() < 0.10:
        words.append(_fresh_word(rng, used_hapaxes))
    return words


def _junk_sentence(rng: random.Random, used_hapaxes: set[str]) -> list[str]:
    # Stop-words and one-off words only. After stop-word and one-off
    # filtering nothing is left, so these sentences score zero, yet they
    # still burn summary-length budget when sampled blindly.
    words = []
    for _ in range(rng.randint(9, 13)):
        if rng.random() < 0.80:
            words.append(rng.choice(_STOPWORDS))
        else:
            words.append(_fresh_word(rng, used_hapaxes))
    return words


def generate_document(seed: int, doc_number: int, words: int = 2000) -> str:
    """Generate one document of roughly ``words`` whitespace words."""
    rng = random.Random(f"doc:{seed}:{doc_number}")
    pool = stem_pool(seed)
    stems = rng.sample(pool, 72)
    taken: set[str] = set()
    # Two inflections per topic stem, so stemming and lemmatization merge
    # vocabulary entries that truncation and identity keep apart.
    topic_forms = _distinct_inflections(rng, stems[:12], 2, taken)
    filler_forms = _distinct_inflections(rng, stems[12:], 1, taken)
    used_hapaxes: set[str] = set(topic_forms) | set(filler_forms)

    sentences = []
    count = 0
    while count < words:
        if rng.random() < 0.45:
            tokens = _topical_sentence(rng, topic_forms, filler_forms, used_hapaxes)
        else:
            tokens = _junk_sentence(rng, used_hapaxes)
        count += len(tokens)
        tokens[0] = tokens[0].capitalize()
        sentences.append(" ".join(tokens) + rng.choice(_TERMINATORS))
    return " ".join(sentences) + "\n"


def generate_corpus(
    root: str | Path,
    documents: int = 100,
    words_per_document: int = 2000,
    seed: int = 0,
) -> list[Path]:
    """Write a flat-layout corpus under ``root`` and return the file paths."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for number in range(documents):
        path = root / f"doc_{number:03d}.txt"
        path.write_text(generate_document(seed, number, words_per_document), encoding="utf-8")
        paths.append(path)
    return paths


def generate_lemma_dictionary(
    path: str | Path,
    entries: int = 1_000_000,
    seed: int = 0,
) -> Path:
    """Write a tab-separated word-to-lemma dictionary of ``entries`` lines.

    Every inflected form of the shared stem pool maps to its stem, so
    corpus words resolve to merged lemmas; the remainder are inert padding
    entries that only contribute realistic load volume.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pool = stem_pool(seed)
    with open(path, "w", encoding="utf-8") as handle:
        written = 0
        for stem in pool:
            for suffix in _SUFFIXES:
                if written >= entries:
                    break
                handle.write(f"{stem}{suffix}\t{stem}\n")
                written += 1
        index = 0
        while written < entries:
            handle.write(f"pad{index:08d}entry\tpad{index:08d}\n")
            written += 1
            index += 1
    return path
