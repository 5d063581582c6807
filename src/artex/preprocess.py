"""Sentence splitting, token filtering, and word normalization.

The pipeline turns a raw document into an ordered list of sentences, each
its original surface form and that surface's whitespace tokens, beside one
filtered, normalized term stream per sentence. Splitting is rule-based on
purpose: the target behaviour is the simple, fast preprocessing front end
of a vector-space summarizer, not a statistical sentence-boundary model.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cache, partial
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .errors import EmptyDocument, MissingDictionary
from .stemming import SUPPORTED_LANGUAGES, stemmer_for

_TERMINATOR = re.compile("[.!?]")
# A word character other than '_': exactly the characters str.isalnum accepts.
_ALNUM = re.compile(r"[^\W_]")


# Records are named tuples, cheap to create at import. A NamedTuple body may not
# define __new__, so a checked record subclasses a private one with its fields.
# Its _make, which _replace calls, builds through cls so that the checks run.
class _RawDocument(NamedTuple):
    id: str
    text: str
    language: str


class RawDocument(_RawDocument):
    """An input document: identifier, full text, and language code."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"unsupported language: {self.language!r}")
        return self


class Sentence(NamedTuple):
    """One sentence: its verbatim surface text and its whitespace tokens.

    ``tokens`` is ``tuple(surface.split())``, so its length is the
    sentence's word count. A sentence's index is its position in the
    document; split_sentences builds every sentence the pipeline uses.
    """

    surface: str
    tokens: tuple[str, ...]


class Document(NamedTuple):
    """A preprocessed document: the split's sentences and their term streams.

    ``terms[i]`` is sentence i's filtered, normalized term stream; a
    sentence whose tokens were all filtered away keeps an empty stream, so
    positions line up with ``sentences``.
    """

    sentences: tuple[Sentence, ...]
    terms: tuple[tuple[str, ...], ...]


# Each normalizer() returns a module-level function or a partial of one, so
# that a loaded normalizer can be sent to worker processes.


def _unchanged(token: str) -> str:
    return token


def _truncated(n: int, token: str) -> str:
    return token[:n]


def _looked_up(dictionary: Mapping[str, str], token: str) -> str:
    return dictionary.get(token, token)


class _Fieldless:
    """A mode without fields: immutable, and equal to and hashed as its type."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) or NotImplemented

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Raw(_Fieldless):
    """Identity normalization: tokens are kept as they are."""

    __slots__ = ()
    label = "raw"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return _unchanged


class Stem(_Fieldless):
    """Suffix-stripping with the bundled stemmer for the document language."""

    __slots__ = ()
    label = "stem"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return stemmer_for(language)


class _UltraStem(NamedTuple):
    n: int


class UltraStem(_UltraStem):
    """Truncation to the first ``n`` characters (the whole token if shorter)."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError(f"truncation length must be >= 1, got {self.n}")
        return self

    @property
    def label(self) -> str:
        return f"fix{self.n}"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return partial(_truncated, self.n)


class Lemmatize(NamedTuple):
    """Dictionary lookup; a token missing from the dictionary maps to itself.

    The dictionary is read from ``dictionary_path`` by each normalizer()
    call, so the mode itself stays a small description that can be loaded
    again.
    """

    label = "lemma"
    dictionary_path: str | Path | None = None

    def normalizer(self, language: str) -> Callable[[str], str]:
        if self.dictionary_path is None:
            raise MissingDictionary("lemma normalization requires a dictionary path")
        return partial(_looked_up, load_lemma_dictionary(self.dictionary_path))


# A word normalization strategy: a ``label`` and a ``normalizer(language)``.
NormalizationMode = Raw | Stem | UltraStem | Lemmatize


class StopList(NamedTuple):
    """The casefolded words removed during filtering."""

    words: frozenset[str] = frozenset()

    def __contains__(self, token: str) -> bool:
        return token in self.words

    @classmethod
    def from_file(cls, path: str | Path) -> "StopList":
        """Load a stop-list: UTF-8, one word per line, '#' comments ignored.

        A leading byte-order mark is dropped.
        """
        return cls(words=_read_words(Path(path)))

    @classmethod
    def bundled(cls, language: str) -> "StopList":
        """The small default stop-list shipped for ``language``.

        Each language's file is read once per process, on first use.
        """
        if language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"no bundled stop-list for language: {language!r}")
        return cls(words=_bundled_words(language))


@cache
def _bundled_words(language: str) -> frozenset[str]:
    return _read_words(resources.files("artex").joinpath(f"data/stopwords/{language}.txt"))


def _read_words(source) -> frozenset[str]:
    """The casefolded words of a stop-list file (a Path or a package resource)."""
    words = set()
    for line in read_text(source).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.casefold())
    return frozenset(words)


def read_text(source) -> str:
    """The text of a UTF-8 file (a Path or a package resource), without a
    leading byte-order mark. A UnicodeDecodeError names the file, and its
    position counts bytes from the file's start.
    """
    try:
        return source.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        error = exc
    # Decoded whole, byte-order mark included, the file gives that offset.
    try:
        source.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        error = exc
    raise UnicodeDecodeError(*error.args[:4], f"{error.reason} in {source}")


def load_lemma_dictionary(path: str | Path) -> dict[str, str]:
    """Load a word-to-lemma dictionary: UTF-8, ``word<TAB>lemma`` per line.

    The word is the text up to a line's first tab and the lemma is the
    rest; both are stripped and casefolded (``Straße`` becomes ``strasse``),
    as cleaned tokens are. A line where either is empty (a line without a
    tab, for one) is ignored; on duplicate words the last entry wins. A
    leading byte-order mark is dropped, and ``\\r\\n`` and ``\\r`` end lines.
    """
    # Each block of whole lines is casefolded once, before it is split:
    # casefold maps every whitespace character (tab and newline included) to
    # itself and no other character to whitespace or to nothing, so the
    # fields come out as if each were stripped and casefolded alone.
    mapping: dict[str, str] = {}
    tail = ""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            # The unfinished last line of a block waits for the next; a final
            # "\n" ends the file's last line.
            for block in chain(iter(partial(handle.read, 1 << 16), ""), ["\n"]):
                lines, _, tail = (tail + block).rpartition("\n")
                for line in lines.casefold().split("\n"):
                    word, _, lemma = line.partition("\t")
                    word = word.strip()
                    lemma = lemma.strip()
                    if word and lemma:
                        mapping[word] = lemma
    except UnicodeDecodeError:
        read_text(Path(path))  # raises the error again, named and at its offset
        raise
    return mapping


def split_sentences(doc: RawDocument) -> list[Sentence]:
    """Chunk ``doc.text`` at '.', '!' and '?' into sentences.

    The terminator stays attached to its sentence; a trailing run without a
    terminator becomes the final sentence. A period flanked by digits on
    both sides (as in 3.14) does not split. Pieces without any alphanumeric
    character (splitting debris such as a bare '.') are dropped; a
    sentence's index is its position in the returned list.

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
        if not _ALNUM.search(surface):
            continue
        # tuple.__new__ skips Sentence's Python-level __new__: half the cost.
        sentences.append(tuple.__new__(Sentence, (surface, tuple(surface.split()))))
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


class CleanedDocument(NamedTuple):
    """A document after the one split-and-clean pass shared by every consumer.

    ``sentences`` are split_sentences' own, kept as they are by the final
    Document. ``streams`` holds one entry per sentence: its cleaned,
    stop-word-free tokens in order. ``frequencies`` counts the tokens of all
    streams, keyed in first-occurrence order. The summarizer filters hapaxes
    and normalizes the streams into Document.terms; the evaluator stems them.
    """

    language: str
    sentences: tuple[Sentence, ...]
    streams: tuple[tuple[str, ...], ...]
    frequencies: Mapping[str, int]


def clean_document(raw: RawDocument, stoplist: StopList) -> CleanedDocument:
    """Split ``raw`` once, and clean each distinct token once.

    Each distinct whitespace token of the document is cleaned and checked
    against the stop-list once, in first-occurrence order; a token that
    cleans to nothing or to a stop-word is dropped wherever it occurs. The
    split's sentences are kept as they are, and each one's surviving tokens
    become its stream. Raises EmptyDocument like split_sentences.
    Stop-words are dropped before counting: the hapax filter only ever
    looks up non-stop tokens.
    """
    stopwords = stoplist.words
    sentences = tuple(split_sentences(raw))
    kept: dict[str, str] = {}  # raw token -> cleaned token, "" when dropped
    for token in dict.fromkeys(chain.from_iterable(s.tokens for s in sentences)):
        cleaned = clean_token(token)
        kept[token] = "" if cleaned in stopwords else cleaned
    streams = tuple(
        [tuple([c for c in map(kept.__getitem__, s.tokens) if c]) for s in sentences]
    )
    return CleanedDocument(
        language=raw.language,
        sentences=sentences,
        streams=streams,
        frequencies=Counter(chain.from_iterable(streams)),
    )


def normalize_document(
    cleaned: CleanedDocument,
    normalize: Callable[[str], str],
) -> Document:
    """Drop document hapaxes from the streams, normalizing each survivor once.

    A token survives when it occurs at least twice in the document; each
    surviving type is normalized once, in first-occurrence order. The
    result keeps the split's sentences as they are; its ``terms[i]`` is
    sentence i's stream's survivors, normalized, and an all-filtered
    sentence keeps an empty stream. ``normalize`` is a mode's
    normalizer, or any other map from a cleaned token to its term, such as
    the evaluator's stem table of the same document.
    """
    terms = {t: normalize(t) for t, n in cleaned.frequencies.items() if n >= 2}
    streams = [tuple([t for t in map(terms.get, s) if t is not None]) for s in cleaned.streams]
    return Document(sentences=cleaned.sentences, terms=tuple(streams))


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
