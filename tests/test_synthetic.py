import hashlib
import os
import random
import re
import subprocess
import sys
from collections.abc import MutableSequence, Sequence
from pathlib import Path

from artex import synthetic
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

SCRIPT = Path(__file__).parents[1] / "scripts" / "make_synthetic_corpus.py"

# The generator's bytes, pinned: each setting's sha256. A tree digest
# covers each file's name, length and bytes, in name order.
DIGESTS = {
    "document-0-0-2000": "9ef758ab6c4ea74670b596469e16c3b2386480945a1655a840eedc789fe4b4fa",
    "corpus-seed4-3x250": "970c5a83c92e478166d6a40580588e346b31e7c24c4b5de56ceb6d4aa7a0d093",
    "lemmas-seed0-10": "6a0e801d88b00e5e2ffdf00fa46beb5b90a25ee976a9b6228fab03b7a152c5d9",
    "lemmas-seed0-60000": "1a3db5b73fb56825f4d1cc8bd1afd9033f8de2bf939515399ac06fa8251a1322",
}


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def test_stem_pool_deterministic_and_unique():
    pool = stem_pool(0)
    assert pool == stem_pool(0)
    assert len(pool) == STEM_POOL_SIZE
    assert len(set(pool)) == STEM_POOL_SIZE


def test_stem_pool_is_built_once_per_seed(monkeypatch, tmp_path):
    # Pool stems have 2 or 3 syllables and one-off words 4, so a 2- or
    # 3-syllable draw is a pool draw.
    draws = []
    syllables = synthetic._syllables

    def counted(rng, count):
        draws.append(count)
        return syllables(rng, count)

    monkeypatch.setattr(synthetic, "_syllables", counted)
    seed = 90_210  # no other test builds this seed's pool
    generate_document(seed, 0, words=100)
    assert sum(count < 4 for count in draws) >= STEM_POOL_SIZE
    draws.clear()
    generate_document(seed, 1, words=100)
    generate_lemma_dictionary(tmp_path / "lemmas.tsv", entries=10, seed=seed)
    assert sum(count < 4 for count in draws) == 0
    pool = stem_pool(seed)
    assert isinstance(pool, Sequence) and not isinstance(pool, MutableSequence)


def test_generator_bytes_match_their_pinned_digests(tmp_path):
    generate_corpus(tmp_path / "corpus", documents=3, words_per_document=250, seed=4)
    found = {
        "document-0-0-2000": hashlib.sha256(generate_document(0, 0, 2000).encode()).hexdigest(),
        "corpus-seed4-3x250": tree_digest(tmp_path / "corpus"),
        **{
            f"lemmas-seed0-{entries}": hashlib.sha256(
                generate_lemma_dictionary(tmp_path / f"{entries}.tsv", entries, 0).read_bytes()
            ).hexdigest()
            for entries in (10, 60_000)
        },
    }
    assert found == DIGESTS


def test_make_synthetic_corpus_script_writes_the_generator_bytes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(synthetic.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "script"), "--documents", "2",
         "--words", "60", "--dictionary", str(tmp_path / "script.tsv"),
         "--dictionary-entries", "100"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    generate_corpus(tmp_path / "api", documents=2, words_per_document=60)
    generate_lemma_dictionary(tmp_path / "api.tsv", entries=100)
    assert tree_digest(tmp_path / "script") == tree_digest(tmp_path / "api")
    assert (tmp_path / "script.tsv").read_bytes() == (tmp_path / "api.tsv").read_bytes()


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
    empty = sum(1 for stream in doc.terms if not stream)
    dense = sum(1 for stream in doc.terms if len(stream) >= 5)
    assert empty >= 10
    assert dense >= 10
    # The topic lexicon recurs: some stemmed type appears in many sentences.
    appearances: dict[str, int] = {}
    for stream in doc.terms:
        for token in set(stream):
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
