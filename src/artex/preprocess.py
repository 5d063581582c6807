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
from functools import cache, partial, wraps
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .errors import EmptyDocument, MissingDictionary
from .stemming import SUPPORTED_LANGUAGES, stemmer_for

_TERMINATOR = re.compile("[.!?]")
# A word character other than '_': exactly the characters str.isalnum accepts.
_ALNUM = re.compile(r"[^\W_]")


def typed(cls):
    """Make the NamedTuple ``cls`` equal only to records of its own type, and
    hash by its type too: ``UltraStem(6) != SentenceCount(6)``.
    """
    cls.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: not self == other
    cls.__hash__ = lambda self: hash((type(self), *self))
    return cls


# Records are named tuples, cheap to create at import. A record with checks
# writes them in a _check method and is decorated with checked, which sets
# __new__ and _make after the class is made: a NamedTuple body may define
# neither.
def checked(cls):
    """Make every construction of the NamedTuple ``cls`` call its ``_check()``,
    and make ``cls`` typed.

    Positional and keyword construction and unpickling call ``__new__``;
    ``_make``, which ``_replace`` calls, is set to build through ``cls``.
    """
    make = cls.__new__

    @wraps(make)
    def __new__(cls, *args, **kwargs):
        self = make(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return typed(cls)


@checked
class RawDocument(NamedTuple):
    """An input document: identifier, full text, and language code."""

    id: str
    text: str
    language: str

    def _check(self):
        if self.language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"unsupported language: {self.language!r}")


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


@typed
class Raw(NamedTuple):
    """Identity normalization: tokens are kept as they are."""

    label = "raw"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return _unchanged


@typed
class Stem(NamedTuple):
    """Suffix-stripping with the bundled stemmer for the document language."""

    label = "stem"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return stemmer_for(language)


@checked
class UltraStem(NamedTuple):
    """Truncation to the first ``n`` characters (the whole token if shorter)."""

    n: int

    def _check(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"truncation length must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"truncation length must be >= 1, got {self.n}")

    @property
    def label(self) -> str:
        return f"fix{self.n}"

    def normalizer(self, language: str) -> Callable[[str], str]:
        return partial(_truncated, self.n)


@typed
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


def parse_mode(label: str, dictionary_path: str | Path | None = None) -> NormalizationMode:
    """Parse a normalization label: raw | lemma | stem | fix:N.

    ``dictionary_path`` is kept by lemma and ignored by the other modes.
    """
    label = label.strip().lower()
    if label == "raw":
        return Raw()
    if label == "stem":
        return Stem()
    if label == "lemma":
        return Lemmatize(dictionary_path)
    if label.startswith("fix:"):
        try:
            n = int(label.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad truncation length in {label!r}") from None
        return UltraStem(n)
    raise ValueError(f"unknown normalization: {label!r} (want raw|lemma|stem|fix:N)")


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
    resource = resources.files("artex").joinpath(f"data/stopwords/{language}.txt")
    with resources.as_file(resource) as path:
        return _read_words(path)


def _read_words(path: Path) -> frozenset[str]:
    """The casefolded words of a stop-list file."""
    words = set()
    for line in read_text(path).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.casefold())
    return frozenset(words)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, read once as bytes: a leading byte-order
    mark is dropped, and ``\\r\\n`` and ``\\r`` become ``\\n``, as in text
    mode. A UnicodeDecodeError names the file, and its position counts bytes
    from the file's start.
    """
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    # The mark is dropped after decoding, so an error's position counts from
    # the file's start.
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnicodeDecodeError(*exc.args[:4], f"{exc.reason} in {path}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


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
    character (splitting debris such as a bare '.') are dropped.

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
