import random
import re

from artex.preprocess import RawDocument, Stem, preprocess_document
from artex.stemming import stemmer_for
from artex.synthetic import (
    STEM_POOL_SIZE,
    _SUFFIXES,
    _distinct_inflections,
    generate_corpus,
    generate_document,
    generate_lemma_dictionary,
    stem_pool,
)


def test_stem_pool_deterministic_and_unique():
    pool = stem_pool(0)
    assert pool == stem_pool(0)
    assert len(pool) == STEM_POOL_SIZE
    assert len(set(pool)) == STEM_POOL_SIZE


def test_generate_document_deterministic():
    assert generate_document(3, 1) == generate_document(3, 1)
    assert generate_document(3, 1) != generate_document(3, 2)


def test_generate_document_word_count_near_target():
    for words in (300, 2000):
        text = generate_document(0, 0, words=words)
        count = len(text.split())
        assert words <= count <= words + 20


def test_distinct_inflections_have_distinct_stemmed_types():
    rng = random.Random(1)
    stems = random.Random(2).sample(stem_pool(0), 20)
    taken: set[str] = set()
    forms = _distinct_inflections(rng, stems[:8], 2, taken)
    forms += _distinct_inflections(rng, stems[8:], 1, taken)
    stemmed = [stemmer_for("en")(form) for form in forms]
    assert len(set(stemmed)) == len(stemmed)


def test_generated_document_preprocesses_with_planted_redundancy():
    text = generate_document(0, 5, words=1500)
    raw = RawDocument(id="d", text=text, language="en")
    doc = preprocess_document(raw, normalize=Stem().normalizer("en"))
    # Junk sentences vanish; topical sentences keep a dense token stream.
    empty = sum(1 for s in doc.sentences if not s.tokens)
    dense = sum(1 for s in doc.sentences if len(s.tokens) >= 5)
    assert empty >= 10
    assert dense >= 10
    # The topic lexicon recurs: some stemmed type appears in many sentences.
    appearances: dict[str, int] = {}
    for sentence in doc.sentences:
        for token in set(sentence.tokens):
            appearances[token] = appearances.get(token, 0) + 1
    assert max(appearances.values()) >= 5


def test_generate_corpus_layout_and_reproducibility(tmp_path):
    first = generate_corpus(tmp_path / "a", documents=3, words_per_document=200, seed=4)
    second = generate_corpus(tmp_path / "b", documents=3, words_per_document=200, seed=4)
    assert [p.name for p in first] == ["doc_000.txt", "doc_001.txt", "doc_002.txt"]
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes()


def test_generate_lemma_dictionary_covers_pool(tmp_path):
    path = generate_lemma_dictionary(tmp_path / "lemmas.tsv", entries=60_000, seed=0)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 60_000
    mapping = dict(line.split("\t") for line in lines)
    pool = stem_pool(0)
    covered = STEM_POOL_SIZE * len(_SUFFIXES)
    for stem_word in pool[:50]:
        for suffix in _SUFFIXES:
            assert mapping[stem_word + suffix] == stem_word
    # Pool entries come first; the remaining lines are inert padding.
    for line in lines[covered : covered + 20]:
        assert re.fullmatch(r"pad\d{8}entry\tpad\d{8}", line)
    assert len(lines) - covered == 60_000 - covered
