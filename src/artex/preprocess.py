"""Sentence splitting, token filtering, and word normalization.

The pipeline turns a raw document into an ordered list of sentences, each
keeping its original surface form next to a filtered, normalized token
stream. Splitting is rule-based on purpose: the target behaviour is the
simple, fast preprocessing front end of a vector-space summarizer, not a
statistical sentence-boundary model.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Callable, ClassVar, Mapping

from .errors import EmptyDocument, MissingDictionary
from .stemming import SUPPORTED_LANGUAGES, stemmer_for

_TERMINATOR = re.compile("[.!?]")


@dataclass(frozen=True)
class RawDocument:
    """An input document: identifier, full text, and language code."""

    id: str
    text: str
    language: str

    def __post_init__(self) -> None:
        if self.language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"unsupported language: {self.language!r}")


@dataclass(frozen=True)
class Sentence:
    """One sentence: position, verbatim surface text, and its token stream.

    ``tokens`` holds whitespace tokens right after splitting and the
    filtered, normalized stream after the full pipeline has run. A sentence
    whose tokens were all filtered away stays in the document with an empty
    stream so that indices and surfaces remain addressable.
    """

    index: int
    surface: str
    tokens: tuple[str, ...] = ()

    @cached_property
    def words(self) -> int:
        """Number of whitespace-delimited words in the surface, counted once."""
        return len(self.surface.split())


@dataclass(frozen=True)
class Document:
    """A preprocessed document: ordered sentences with normalized tokens."""

    id: str
    language: str
    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)


# Each normalizer() returns a module-level function or a partial of one, so
# that a loaded normalizer can be sent to worker processes.


def _unchanged(token: str) -> str:
    return token


def _truncated(n: int, token: str) -> str:
    return token[:n]


def _looked_up(dictionary: Mapping[str, str], token: str) -> str:
    return dictionary.get(token, token)


@dataclass(frozen=True)
class Raw:
    """Identity normalization: tokens are kept as they are."""

    label: ClassVar[str] = "raw"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return _unchanged


@dataclass(frozen=True)
class Stem:
    """Suffix-stripping with the bundled stemmer for the document language."""

    label: ClassVar[str] = "stem"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return stemmer_for(language)


@dataclass(frozen=True)
class UltraStem:
    """Truncation to the first ``n`` characters (the whole token if shorter)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"truncation length must be >= 1, got {self.n}")

    @property
    def label(self) -> str:
        return f"fix{self.n}"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return partial(_truncated, self.n)


@dataclass(frozen=True)
class Lemmatize:
    """Dictionary lookup; a token missing from the dictionary maps to itself.

    The dictionary is read from ``dictionary_path`` by each normalizer()
    call, so the mode itself stays a small description that can be loaded
    again.
    """

    label: ClassVar[str] = "lemma"

    dictionary_path: str | Path | None = None

    def normalizer(self, language: str) -> Callable[[str], str]:
        if self.dictionary_path is None:
            raise MissingDictionary("lemma normalization requires a dictionary path")
        return partial(_looked_up, load_lemma_dictionary(self.dictionary_path))


# A word normalization strategy: a ``label`` and a ``normalizer(language)``.
NormalizationMode = Raw | Stem | UltraStem | Lemmatize


@dataclass(frozen=True)
class StopList:
    """A per-language set of words removed during filtering."""

    language: str
    words: frozenset[str] = field(default_factory=frozenset)

    def __contains__(self, token: str) -> bool:
        return token in self.words

    @classmethod
    def from_file(cls, path: str | Path, language: str) -> "StopList":
        """Load a stop-list: UTF-8, one word per line, '#' comments ignored.

        A leading byte-order mark is dropped.
        """
        return cls(language=language, words=_read_words(Path(path)))

    @classmethod
    def bundled(cls, language: str) -> "StopList":
        """The small default stop-list shipped for ``language``.

        Each language's file is read once per process, on first use.
        """
        if language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"no bundled stop-list for language: {language!r}")
        return cls(language=language, words=_bundled_words(language))


@cache
def _bundled_words(language: str) -> frozenset[str]:
    return _read_words(resources.files("artex").joinpath(f"data/stopwords/{language}.txt"))


def _read_words(source) -> frozenset[str]:
    """The casefolded words of a stop-list file (a Path or a package resource)."""
    words = set()
    for line in source.read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.casefold())
    return frozenset(words)


def load_lemma_dictionary(path: str | Path) -> dict[str, str]:
    """Load a word-to-lemma dictionary: UTF-8, ``word<TAB>lemma`` per line.

    Entries are lowercased; on duplicate words the last entry wins. Lines
    without a tab separator are ignored, and a leading byte-order mark is
    dropped.
    """
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


def split_sentences(doc: RawDocument) -> list[Sentence]:
    """Chunk ``doc.text`` at '.', '!' and '?' into indexed sentences.

    The terminator stays attached to its sentence; a trailing run without a
    terminator becomes the final sentence. A period flanked by digits on
    both sides (as in 3.14) does not split. Pieces without any alphanumeric
    character (splitting debris such as a bare '.') are dropped, and the
    survivors are indexed consecutively from 0.

    Raises EmptyDocument when no sentence with at least one alphabetic
    character remains.
    """
    text = doc.text
    pieces: list[str] = []
    start = 0
    for match in _TERMINATOR.finditer(text):
        pos = match.start()
        # str.isdigit, not the regex \d: it also accepts digits such as '²'.
        if (
            text[pos] == "."
            and 0 < pos < len(text) - 1
            and text[pos - 1].isdigit()
            and text[pos + 1].isdigit()
        ):
            continue
        pieces.append(text[start : pos + 1])
        start = pos + 1
    if start < len(text):
        pieces.append(text[start:])

    sentences = []
    for piece in pieces:
        surface = piece.strip()
        if not any(c.isalnum() for c in surface):
            continue
        sentences.append(
            Sentence(index=len(sentences), surface=surface, tokens=tuple(surface.split()))
        )
    if not any(c.isalpha() for s in sentences for c in s.surface):
        raise EmptyDocument(f"document {doc.id!r} contains no alphabetic sentence")
    return sentences


def clean_token(token: str) -> str:
    """Casefold and strip leading/trailing non-alphanumeric characters.

    Inner punctuation (apostrophes, hyphens, decimal points) is preserved;
    a token with no alphanumeric character cleans to the empty string.
    """
    token = token.casefold()
    begin = 0
    end = len(token)
    while begin < end and not token[begin].isalnum():
        begin += 1
    while end > begin and not token[end - 1].isalnum():
        end -= 1
    return token[begin:end]


@dataclass(frozen=True)
class CleanedDocument:
    """A document after the one split-and-clean pass shared by every consumer.

    Each sentence keeps its index and surface, and its tokens are the
    cleaned, stop-word-free tokens in order. ``frequencies`` counts those
    tokens over the whole document, keyed in first-occurrence order. The
    summarizer filters hapaxes and normalizes from here; the evaluator stems
    from here.
    """

    id: str
    language: str
    sentences: tuple[Sentence, ...]
    frequencies: Mapping[str, int]


def clean_document(raw: RawDocument, stoplist: StopList) -> CleanedDocument:
    """Split ``raw`` once, and clean each distinct token once.

    Each distinct whitespace token of the document is cleaned and checked
    against the stop-list once; a token that cleans to nothing or to a
    stop-word is dropped wherever it occurs. Raises EmptyDocument like
    split_sentences. Stop-words are dropped before counting: the hapax
    filter only ever looks up non-stop tokens.
    """
    stopwords = stoplist.words
    kept: dict[str, str] = {}  # raw token -> cleaned token, "" when dropped
    frequencies: Counter[str] = Counter()
    sentences = []
    for sentence in split_sentences(raw):
        tokens = []
        for token in sentence.tokens:
            cleaned = kept.get(token)
            if cleaned is None:
                cleaned = clean_token(token)
                if cleaned in stopwords:
                    cleaned = ""
                kept[token] = cleaned
            if cleaned:
                tokens.append(cleaned)
        frequencies.update(tokens)
        sentences.append(
            Sentence(index=sentence.index, surface=sentence.surface, tokens=tuple(tokens))
        )
    return CleanedDocument(
        id=raw.id, language=raw.language, sentences=tuple(sentences), frequencies=frequencies
    )


def normalize_document(
    cleaned: CleanedDocument,
    normalize: Callable[[str], str],
) -> Document:
    """Drop document hapaxes, then normalize each surviving type once.

    A token survives when it occurs at least twice in the document; an
    all-filtered sentence keeps an empty token stream. ``normalize`` is a
    mode's normalizer, or any other map from a cleaned token to its term,
    such as the evaluator's stem table of the same document.
    """
    frequencies = cleaned.frequencies
    cache: dict[str, str] = {}
    normalized = []
    for sentence in cleaned.sentences:
        tokens = []
        for token in sentence.tokens:
            if frequencies[token] < 2:
                continue
            if token not in cache:
                cache[token] = normalize(token)
            tokens.append(cache[token])
        normalized.append(
            Sentence(index=sentence.index, surface=sentence.surface, tokens=tuple(tokens))
        )
    return Document(id=cleaned.id, language=cleaned.language, sentences=tuple(normalized))


def preprocess_document(
    raw: RawDocument,
    stoplist: StopList | None = None,
    normalize: Callable[[str], str] = _unchanged,
) -> Document:
    """Run the full pipeline: split, filter, normalize.

    When ``stoplist`` is None the bundled stop-list for the document
    language is used; ``normalize`` is a mode's normalizer for that
    language and defaults to Raw's. The document is split and cleaned in
    one pass (clean_document), and each distinct word that survives the
    hapax filter is normalized once (normalize_document).
    """
    if stoplist is None:
        stoplist = StopList.bundled(raw.language)
    return normalize_document(clean_document(raw, stoplist), normalize)
