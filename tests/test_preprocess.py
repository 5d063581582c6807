import sys
from collections import Counter
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artex.errors import EmptyDocument, MissingDictionary
from artex.preprocess import (
    Document,
    Lemmatize,
    Raw,
    RawDocument,
    Sentence,
    Stem,
    StopList,
    UltraStem,
    clean_document,
    clean_token,
    load_lemma_dictionary,
    normalize_document,
    preprocess_document,
    split_sentences,
)


def _raw(text: str, language: str = "en") -> RawDocument:
    return RawDocument(id="t", text=text, language=language)


# --- splitting ---------------------------------------------------------


def test_split_one_terminator_per_clause():
    surfaces = [s.surface for s in split_sentences(_raw("A b. C d! E f?"))]
    assert surfaces == ["A b.", "C d!", "E f?"]


def test_split_no_terminator_fallback():
    surfaces = [s.surface for s in split_sentences(_raw("One sentence"))]
    assert surfaces == ["One sentence"]


def test_split_hand_trace():
    surfaces = [s.surface for s in split_sentences(_raw("He said hi. Then left."))]
    assert surfaces == ["He said hi.", "Then left."]


def test_split_decimal_period_does_not_split():
    surfaces = [s.surface for s in split_sentences(_raw("Pi is 3.14 exactly."))]
    assert surfaces == ["Pi is 3.14 exactly."]


@pytest.mark.parametrize(
    "text", ["3.5 percent of the panels failed.", "Output rose to 3.5"]
)
def test_split_decimal_at_either_end_of_the_text_does_not_split(text):
    assert [s.surface for s in split_sentences(_raw(text))] == [text]


def test_split_drops_debris_pieces():
    surfaces = [s.surface for s in split_sentences(_raw("Hi there.. Bye."))]
    assert surfaces == ["Hi there.", "Bye."]


def test_split_tokens_are_whitespace_tokens():
    sentences = split_sentences(_raw("He said hi."))
    assert sentences[0].tokens == ("He", "said", "hi.")


@pytest.mark.parametrize("text", ["", "   ", "...", "123. 456!", "?!"])
def test_split_rejects_nonalphabetic_documents(text):
    with pytest.raises(EmptyDocument):
        split_sentences(_raw(text))


@given(st.text(alphabet="ab c.!?13", max_size=80))
def test_split_count_bounded_by_terminator_runs(text):
    # Sentences <= terminator-delimited runs + one trailing run; debris
    # dropping and the digit guard only ever reduce the count.
    try:
        sentences = split_sentences(_raw(text))
    except EmptyDocument:
        return
    terminators = sum(text.count(t) for t in ".!?")
    assert len(sentences) <= terminators + 1
    for sentence in sentences:
        assert sentence.surface == sentence.surface.strip()
        assert any(c.isalnum() for c in sentence.surface)


def _reference_pieces(text):
    """split_sentences' pieces, found by walking every character."""
    pieces = []
    start = 0
    for pos, char in enumerate(text):
        if char not in ".!?":
            continue
        if (
            char == "."
            and 0 < pos < len(text) - 1
            and text[pos - 1].isdigit()
            and text[pos + 1].isdigit()
        ):
            continue
        pieces.append(text[start : pos + 1])
        start = pos + 1
    if start < len(text):
        pieces.append(text[start:])
    return [p.strip() for p in pieces if any(c.isalnum() for c in p)]


@given(st.text(alphabet="ab Z.!?.. 19²٣\n_", max_size=80))
@example("Area 5.² here. Ratio ٣.٣ ok. Pi 3.14!")
@example("Snake_case here. _. __! ok")
@settings(max_examples=500)
def test_split_equals_character_walk(text):
    # '²' is a digit to str.isdigit but not to the regex \d; '٣' is to both.
    # '_' is a word character to the regex \w but not alphanumeric.
    expected = _reference_pieces(text)
    if not any(c.isalpha() for piece in expected for c in piece):
        with pytest.raises(EmptyDocument):
            split_sentences(_raw(text))
        return
    sentences = split_sentences(_raw(text))
    assert [s.surface for s in sentences] == expected
    assert [s.tokens for s in sentences] == [tuple(p.split()) for p in expected]


def test_raw_document_rejects_unknown_language():
    with pytest.raises(ValueError):
        RawDocument(id="t", text="Hi.", language="de")


# --- token cleaning and filtering --------------------------------------


@pytest.mark.parametrize(
    "token,expected",
    [
        ("Run,", "run"),
        ("--hey!", "hey"),
        ("don't", "don't"),
        ("3.14", "3.14"),
        ("(word)", "word"),
        ("!!!", ""),
        ("CAT", "cat"),
    ],
)
def test_clean_token(token, expected):
    assert clean_token(token) == expected


# The two-pass reference for clean_document and preprocess_document: count
# every cleaned token of the document first, then filter each sentence.


def document_frequencies(sentences: list[Sentence]) -> Counter[str]:
    """Count cleaned-token occurrences across all sentences of one document.

    Counts are taken on the full lowercased, punctuation-stripped stream,
    before any stop-list or frequency-based removal.
    """
    counts: Counter[str] = Counter()
    for sentence in sentences:
        for token in sentence.tokens:
            cleaned = clean_token(token)
            if cleaned:
                counts[cleaned] += 1
    return counts


def filter_sentence(
    sentence: Sentence, stoplist: StopList, doc_frequencies: Mapping[str, int]
) -> tuple[str, ...]:
    """Lowercase, strip punctuation, drop stop-words and document hapaxes.

    A token survives when it cleans to a non-empty string, is not in the
    stop-list, and its cleaned form occurs at least twice in the document.
    Returns the survivors in order; an all-filtered sentence gives an empty
    stream.
    """
    kept = []
    for token in sentence.tokens:
        cleaned = clean_token(token)
        if not cleaned or cleaned in stoplist:
            continue
        if doc_frequencies.get(cleaned, 0) < 2:
            continue
        kept.append(cleaned)
    return tuple(kept)


def _sentence(tokens: list[str]) -> Sentence:
    return Sentence(surface=" ".join(tokens), tokens=tuple(tokens))


def test_filter_drops_stopwords_keeps_repeats():
    stoplist = StopList(words=frozenset({"the"}))
    sentence = _sentence(["The", "cat", "cat"])
    frequencies = document_frequencies([sentence])
    assert filter_sentence(sentence, stoplist, frequencies) == ("cat", "cat")


def test_filter_hand_trace_punctuation():
    stoplist = StopList(words=frozenset())
    sentence = _sentence(["Run,", "run!"])
    frequencies = document_frequencies([sentence])
    assert filter_sentence(sentence, stoplist, frequencies) == ("run", "run")


def test_filter_drops_document_hapax():
    stoplist = StopList(words=frozenset({"the"}))
    sentences = [_sentence(["The", "cat", "sat"]), _sentence(["The", "cat", "ran"])]
    frequencies = document_frequencies(sentences)
    assert filter_sentence(sentences[0], stoplist, frequencies) == ("cat",)
    assert filter_sentence(sentences[1], stoplist, frequencies) == ("cat",)


def test_document_frequencies_count_cleaned_stream():
    sentences = [_sentence(["The", "cat."]), _sentence(["the,", "Cat"])]
    assert document_frequencies(sentences) == Counter({"the": 2, "cat": 2})


@given(
    st.lists(
        st.lists(st.sampled_from(["The", "cat", "cat.", "sat", "-", "Dog!"]), max_size=6),
        min_size=1,
        max_size=5,
    )
)
def test_filtering_soundness(token_lists):
    # After filtering: no stop-list member, and every retained type has
    # document frequency >= 2 on an independent recount.
    stoplist = StopList(words=frozenset({"the"}))
    sentences = [_sentence(tokens) for tokens in token_lists]
    frequencies = document_frequencies(sentences)
    recount = Counter(
        clean_token(t) for s in sentences for t in s.tokens if clean_token(t)
    )
    for sentence in sentences:
        for token in filter_sentence(sentence, stoplist, frequencies):
            assert token not in stoplist
            assert recount[token] >= 2


# --- normalization modes ------------------------------------------------


def test_normalize_raw_identity():
    assert Raw().normalizer("en")("cat") == "cat"


def test_normalize_lemmatize_hit_and_miss(tmp_path):
    path = tmp_path / "lemmas.tsv"
    path.write_text("sings\tsing\n", encoding="utf-8")
    normalize = Lemmatize(path).normalizer("en")
    assert normalize("sings") == "sing"
    assert normalize("unknownword") == "unknownword"


def test_normalize_lemmatize_without_dictionary_raises():
    with pytest.raises(MissingDictionary):
        Lemmatize(None).normalizer("en")


def test_normalize_stem_uses_language():
    assert Stem().normalizer("en")("running") == "run"


def test_normalize_ultrastem_truncates():
    assert UltraStem(3).normalizer("en")("cats") == "cat"
    assert UltraStem(5).normalizer("en")("ab") == "ab"


def test_ultrastem_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        UltraStem(0)


@given(st.text(min_size=0, max_size=20), st.integers(min_value=1, max_value=8))
def test_ultrastem_idempotent_and_bounded(token, n):
    normalize = UltraStem(n).normalizer("en")
    once = normalize(token)
    assert normalize(once) == once
    assert len(once) <= n


# --- stop-lists and dictionaries ----------------------------------------


def test_stoplist_from_file_skips_comments(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nThe\n\nand\n", encoding="utf-8")
    stoplist = StopList.from_file(path)
    assert "the" in stoplist and "and" in stoplist
    assert "# comment" not in stoplist.words


def test_stoplist_from_file_drops_byte_order_mark(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(b"\xef\xbb\xbfsolar\npanels\n")
    assert StopList.from_file(path).words == frozenset({"solar", "panels"})


def test_bundled_stoplists_exist(stoplist_en):
    assert "the" in stoplist_en
    assert len(stoplist_en.words) > 100
    for language in ("es", "fr"):
        assert len(StopList.bundled(language).words) > 100


def test_bundled_stoplist_unknown_language():
    with pytest.raises(ValueError):
        StopList.bundled("de")


def test_load_lemma_dictionary(tmp_path):
    path = tmp_path / "lemmas.tsv"
    path.write_text(
        "Sings\tsing\nbroken line without tab\nsings\tSANG\nran\trun\n",
        encoding="utf-8",
    )
    mapping = load_lemma_dictionary(path)
    assert mapping == {"sings": "sang", "ran": "run"}  # last entry wins


def test_load_lemma_dictionary_drops_byte_order_mark(tmp_path):
    path = tmp_path / "lemmas.tsv"
    path.write_bytes(b"\xef\xbb\xbfsings\tsing\nran\trun\n")
    assert next(iter(load_lemma_dictionary(path))) == "sings"
    assert Lemmatize(path).normalizer("en")("sings") == "sing"


def test_load_lemma_dictionary_casefolds_entries(tmp_path):
    # Casefolded, not lowercased: "ß" folds to "ss" in words and lemmas alike.
    path = tmp_path / "lemmas.tsv"
    path.write_text("Straße\tStraße\nMASSE\tmaß\n", encoding="utf-8")
    assert load_lemma_dictionary(path) == {"strasse": "strasse", "masse": "mass"}
    normalize = Lemmatize(path).normalizer("en")
    assert normalize("strasse") == "strasse"
    assert normalize("masse") == "mass"


@pytest.mark.parametrize("bom", [False, True])
def test_decode_error_names_the_file_and_counts_from_its_start(tmp_path, bom):
    # Read whole (a stop-list) or in blocks (a lemma dictionary), a file that
    # is not UTF-8 raises a UnicodeDecodeError at its bad byte's offset.
    data = bytearray(b"\xef\xbb\xbf" * bom + b"solar\tsun\n" * 8_000)
    data[70_000] = 0xFF
    path = tmp_path / "bad.tsv"
    path.write_bytes(bytes(data))
    for load in (load_lemma_dictionary, StopList.from_file):
        with pytest.raises(UnicodeDecodeError) as caught:
            load(path)
        assert caught.value.start == 70_000
        assert str(caught.value).endswith(f"position 70000: invalid start byte in {path}")


def reference_load_lemma_dictionary(path) -> dict[str, str]:
    # The per-line loader that load_lemma_dictionary replaced: the oracle.
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as handle:
        for line in handle:
            word, sep, lemma = line.rstrip("\n").partition("\t")
            if not sep:
                continue
            word = word.strip().casefold()
            lemma = lemma.strip().casefold()
            if word and lemma:
                mapping[word] = lemma
    return mapping


def test_casefold_keeps_whitespace_and_makes_none():
    # load_lemma_dictionary casefolds whole blocks before it splits lines and
    # strips fields; that gives the same strings only because of this.
    for char in map(chr, range(sys.maxunicode + 1)):
        folded = char.casefold()
        if char.isspace():
            assert folded == char
        else:
            assert folded and not any(c.isspace() for c in folded), repr(char)


BLOCK = 1 << 16
DICTIONARY_PIECES = [
    "a", "Z", "ß", "Σ", "İ", "ﬁ", "\t", " ", "\u00a0", "\u3000", "\x85", "\x1c",
    "\r", "\n", "\r\n",
]


@pytest.fixture(scope="module")
def dictionary_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("lemmas") / "lemmas.tsv"


@given(st.booleans(), st.lists(st.sampled_from(DICTIONARY_PIECES), max_size=60))
# "\r\n" across a block edge
@example(False, ["a\tb\n"] * (BLOCK // 4 - 1) + ["a\tZ\r", "\nZ\tß\n"])
@example(False, ["Σ\t", "a" * (2 * BLOCK + 7), "\nZ\tİ\n"])  # a line longer than two blocks
@example(True, ["ß\tZ\nSS\tﬁ"])  # no final newline
@example(False, ["ﬁ\t ß "])  # no newline at all
@example(False, [])  # an empty file
@settings(max_examples=300)
def test_load_lemma_dictionary_equals_per_line_reference(dictionary_path, bom, pieces):
    dictionary_path.write_bytes(("\ufeff" * bom + "".join(pieces)).encode("utf-8"))
    expected = list(reference_load_lemma_dictionary(dictionary_path).items())
    assert list(load_lemma_dictionary(dictionary_path).items()) == expected


# --- full pipeline -------------------------------------------------------


def test_preprocess_document_end_to_end(small_doc_text, stoplist_en):
    raw = RawDocument(id="d", text=small_doc_text, language="en")
    doc = preprocess_document(raw, stoplist_en, Raw().normalizer("en"))
    assert isinstance(doc, Document)
    assert len(doc.sentences) == 6
    # The split's sentences survive untouched.
    split = split_sentences(raw)
    assert [s.surface for s in doc.sentences] == [s.surface for s in split]
    assert doc.sentences == tuple(split)
    # Repeated content words survive; the junk sentence filters to nothing.
    assert "panels" in doc.terms[0]
    assert doc.terms[2] == ()
    for stream in doc.terms:
        for token in stream:
            assert token not in stoplist_en


def test_normalize_document_keeps_the_split_sentences(small_doc_text, stoplist_en):
    cleaned = clean_document(RawDocument(id="d", text=small_doc_text, language="en"), stoplist_en)
    doc = normalize_document(cleaned, Stem().normalizer("en"))
    assert doc.sentences is cleaned.sentences
    assert len(doc.terms) == len(doc.sentences)


def test_preprocess_document_stem_mode(small_doc_text, stoplist_en):
    raw = RawDocument(id="d", text=small_doc_text, language="en")
    doc = preprocess_document(raw, stoplist_en, Stem().normalizer("en"))
    assert "panel" in doc.terms[0]


def test_preprocess_document_default_stoplist(small_doc_text):
    raw = RawDocument(id="d", text=small_doc_text, language="en")
    assert preprocess_document(raw) == preprocess_document(raw, StopList.bundled("en"))


def test_preprocess_normalization_memoized(small_doc_text, stoplist_en):
    lookups = []

    def counting(token):
        lookups.append(token)
        return token

    raw = RawDocument(id="d", text=small_doc_text, language="en")
    preprocess_document(raw, stoplist_en, counting)
    assert len(lookups) == len(set(lookups))  # one lookup per distinct type


@pytest.fixture(scope="module")
def lemma_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lemmas") / "lemmas.tsv"
    path.write_text("cat\tfeline\ndog\thound\n", encoding="utf-8")
    return path


# The sampled words include one raw word in several casings and wrappings,
# a curly apostrophe, digits that are not ASCII, a punctuation-only token
# and stop-words; the example adds a sentence made only of stop-words.
@settings(max_examples=100)
@given(
    st.lists(
        st.sampled_from(
            [
                "The", "cat", "cat.", "Cat", "cat,", "(cat)", "cat’s", "Cats", "sat",
                "-", "--", "Dog!", "dog", "3.5", "²", "٣", "of",
            ]
        ),
        min_size=1,
        max_size=30,
    ),
    st.lists(st.sampled_from([".", "!", "?", " "]), min_size=30, max_size=30),
    st.sampled_from([Raw(), Stem(), UltraStem(2), Lemmatize()]),
)
@example(
    words=["Cat", "(cat)", "The", "of", "cat,", "cat’s", "--", "²", "٣", "dog"],
    separators=[" ", ".", " ", ".", " ", " ", " ", "!", " ", "?"] + [" "] * 20,
    mode=Raw(),
)
def test_single_pass_equals_two_pass_reference(lemma_file, words, separators, mode):
    # preprocess_document cleans each token once; the reference pipeline
    # counts frequencies and filters in two passes over the split sentences.
    if isinstance(mode, Lemmatize):  # the strategy cannot reach the fixture's file
        mode = Lemmatize(lemma_file)
    normalize = mode.normalizer("en")
    text = " ".join(word + sep for word, sep in zip(words, separators))
    raw = _raw(text)
    stoplist = StopList(words=frozenset({"the", "of"}))
    try:
        sentences = split_sentences(raw)
    except EmptyDocument:
        with pytest.raises(EmptyDocument):
            preprocess_document(raw, stoplist, normalize)
        return
    frequencies = document_frequencies(sentences)
    expected = tuple(
        tuple(normalize(token) for token in filter_sentence(sentence, stoplist, frequencies))
        for sentence in sentences
    )
    doc = preprocess_document(raw, stoplist, normalize)
    assert doc.sentences == tuple(sentences)
    assert doc.terms == expected
