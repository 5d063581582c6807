"""Reference-free summary evaluation by n-gram divergence from the source.

A summary is compared against its own source document, not against human
references: both texts are reduced to stop-word-free stem streams, n-gram
profiles are built for unigrams, bigrams, and skip-bigrams (gap up to 4,
within a sentence), and each profile pair is scored with a smoothed
absolute log-difference divergence. Divergences are normalized against the
empty summary so that 0 means "summary shares nothing with the source" and
values near 1 mean "summary matches the source distribution".

A source evaluated against several summaries is prepared once
(prepare_source): one split-and-clean pass shared with the summarizer
(preprocess.clean_document), each distinct word stemmed once (stem_types),
one stem stream per sentence, and the three source profiles with their
per-unit log terms and empty-summary divergences (prepare_profile). Batch
evaluation then derives an extract's streams from the source's own
sentences instead of re-reading its text: the streams of sentences
``selected`` are ``[segments[i] for i in selected]``, except that an extract
in which no selected sentence has an alphabetic character has no streams
at all, as evaluation_tokens gives for its text (for example "2024.").
fresa_report, which takes the streams themselves, goes through the same
prepared profiles and the same summation loop, so both paths give the
same floats, bit for bit.

A prepared source profile is indexed: each unit's position in profile order
and its log term. A summary is evaluated from its own units: a copy of the
source terms, in which each summary unit found in the index has its
difference overwritten, is summed densely (see SourceProfile.divergence).
The sum runs left to right in profile order with plain float additions
(_summed), because the order and rounding of each addition reach the
report's last digits; profiles therefore key their units in
first-occurrence order, which each order's units() keeps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from math import log1p
from operator import truediv
from typing import Iterable, Mapping, Sequence

from .errors import EmptyDocument, EmptySource
from .preprocess import (
    CleanedDocument,
    RawDocument,
    Sentence,
    StopList,
    clean_document,
)
from .stemming import stemmer_for


# Each order's units() yields a segment's units position by position, so a
# profile keys its units in first-occurrence order: the order in which every
# divergence adds its terms.


@dataclass(frozen=True)
class Unigram:
    """Single tokens."""

    def units(self, segment: Sequence[str]) -> Iterable[tuple[str]]:
        """The 1-tuples (t_i,) of ``segment``."""
        return zip(segment)


@dataclass(frozen=True)
class Bigram:
    """Consecutive token pairs within a segment."""

    def units(self, segment: Sequence[str]) -> Iterable[tuple[str, str]]:
        """The pairs (t_i, t_{i+1}) of ``segment``."""
        return zip(segment, segment[1:])


@dataclass(frozen=True)
class SkipBigram:
    """Token pairs (t_i, t_{i+g}) with 1 <= g <= max_gap within a segment."""

    max_gap: int = 4

    def __post_init__(self) -> None:
        if self.max_gap < 1:
            raise ValueError(f"max gap must be >= 1, got {self.max_gap}")

    def units(self, segment: Sequence[str]) -> Iterable[tuple[str, str]]:
        """The pairs (t_i, t_{i+g}) of ``segment``, by i and then by g."""
        gap = self.max_gap
        return [
            (first, second)
            for i, first in enumerate(segment, 1)
            for second in segment[i : i + gap]
        ]


NgramOrder = Unigram | Bigram | SkipBigram


@dataclass(frozen=True)
class NgramProfile:
    """Occurrence counts of n-gram units plus the total number of units."""

    order: NgramOrder
    counts: Mapping[tuple[str, ...], int]
    total: int


@dataclass(frozen=True)
class DivergenceReport:
    """Raw divergences and normalized [0,1] scores per n-gram metric."""

    d1: float
    d2: float
    d_su4: float
    f1: float
    f2: float
    f_su4: float
    f_avg: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def ngram_profile(segments: Sequence[Sequence[str]], order: NgramOrder) -> NgramProfile:
    """Count n-gram units over per-sentence token streams.

    ``segments`` holds one token sequence per sentence; bigrams and
    skip-bigrams never cross a segment boundary. A segment with fewer tokens
    than the unit needs adds nothing. Units are keyed in first-occurrence
    order. A flat token list (its first item a string) raises TypeError,
    since each of its strings would otherwise be read as a segment of
    characters.
    """
    if segments and isinstance(segments[0], str):
        raise TypeError("ngram_profile takes one token sequence per sentence, not a flat one")
    counts = Counter(chain.from_iterable(map(order.units, segments)))
    return NgramProfile(order=order, counts=counts, total=sum(counts.values()))


@dataclass(frozen=True)
class SourceProfile:
    """A source profile indexed once: each unit's position and log term.

    ``index`` maps each of the source's n-gram types to its position in
    profile order, and ``terms[i]`` is the term log(1 + C_t/|T|) of the type
    at position i. ``empty_divergence`` is the divergence of the empty
    summary, the anchor of the normalized score. It is always positive,
    because a source is only accepted with at least one unit.
    """

    order: NgramOrder
    index: Mapping[tuple[str, ...], int]
    terms: tuple[float, ...]
    empty_divergence: float

    def divergence(self, summary: NgramProfile) -> float:
        """Divergence of a summary profile of the same order from this source.

        Each source type t contributes |log(1 + C_t/|T|) - log(1 + c_t/|S|)|,
        where C_t, c_t are its counts in source and summary and |T|, |S| the
        profile totals; types found only in the summary contribute nothing.
        A source unit absent from the summary has summary term
        log(1 + 0) = 0, and |T - 0.0| is T itself, so a copy of the source
        terms already holds every difference except those of the summary's
        own units, which are overwritten in place: the work per summary is
        one list copy, one lookup per summary unit, and the dense sum.
        """
        terms = self.terms
        total = summary.total
        position = self.index.get
        differences = list(terms)
        for unit, count in summary.counts.items():
            i = position(unit)
            if i is not None:
                differences[i] = abs(terms[i] - log1p(count / total))
        return _summed(differences)


def _summed(values: Iterable[float]) -> float:
    """Add ``values`` one by one, left to right, in plain float arithmetic.

    Every divergence, the empty summary's included, is this sum over the
    source units in profile order, so the same profiles always give the
    same float. The order and the rounding of each step are part of the
    output (report.jsonl): built-in sum() adds floats with compensated
    summation from Python 3.12 on, and math.fsum rounds only once, so either
    would change the last digits, and sum() would change them on some
    Python versions only.
    """
    result = 0.0
    for value in values:
        result += value
    return result


def prepare_profile(source: NgramProfile) -> SourceProfile:
    """Index a source profile and compute its log terms and empty divergence once."""
    if source.total == 0:
        raise EmptySource("source profile has no n-gram units")
    counts = source.counts
    terms = tuple(map(log1p, map(truediv, counts.values(), repeat(source.total))))
    return SourceProfile(
        order=source.order,
        index=dict(zip(counts, range(len(terms)))),
        terms=terms,
        empty_divergence=_summed(terms),
    )


_ORDERS: tuple[NgramOrder, ...] = (Unigram(), Bigram(), SkipBigram(4))


def _source_profiles(source_tokens: Sequence[Sequence[str]]) -> tuple[SourceProfile, ...]:
    """The prepared unigram, bigram and skip-bigram profiles of source streams."""
    return tuple(prepare_profile(ngram_profile(source_tokens, order)) for order in _ORDERS)


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def _report(
    profiles: Sequence[SourceProfile], summary_tokens: Sequence[Sequence[str]]
) -> DivergenceReport:
    """Evaluate summary token streams against prepared source profiles.

    Each order's divergence d is normalized as f = 1 - d/d_empty, where
    d_empty is the divergence of the empty summary: an empty summary scores
    exactly 0 and a summary reproducing the source distribution approaches
    1. Values are clamped to [0,1] and averaged into f_avg.
    """
    raw: list[float] = []
    normalized: list[float] = []
    for source in profiles:
        d = source.divergence(ngram_profile(summary_tokens, source.order))
        raw.append(d)
        normalized.append(_clamp01(1.0 - d / source.empty_divergence))
    f1, f2, f_su4 = normalized
    return DivergenceReport(
        d1=raw[0],
        d2=raw[1],
        d_su4=raw[2],
        f1=f1,
        f2=f2,
        f_su4=f_su4,
        f_avg=(f1 + f2 + f_su4) / 3.0,
    )


def fresa_report(
    source_tokens: Sequence[Sequence[str]], summary_tokens: Sequence[Sequence[str]]
) -> DivergenceReport:
    """Evaluate a summary against its source, each given as per-sentence streams.

    Both take the form evaluation_tokens returns; a flat token list raises
    TypeError (see ngram_profile). Computes the divergence for unigrams,
    bigrams, and skip-bigrams and normalizes each against the empty summary
    (see _report).
    """
    return _report(_source_profiles(source_tokens), summary_tokens)


def evaluation_tokens(
    text: str,
    language: str,
    stoplist: StopList | None = None,
    stems: dict[str, str] | None = None,
) -> list[list[str]]:
    """Reduce text to per-sentence streams of stop-word-free stems.

    Evaluation always stems, whatever normalization the summarizer used, so
    that systems are compared on a common footing; document-frequency
    filtering is not applied here. Text with no alphabetic sentence (for
    example an empty summary file, or one holding only "2024.") yields an
    empty list.

    ``stems``, when given, is a stem table shared by texts evaluated
    together, such as a source and its summary: only the words not yet in
    it are stemmed, and they are added to it.
    """
    if stoplist is None:
        stoplist = StopList.bundled(language)
    try:
        cleaned = clean_document(
            RawDocument(id="evaluation", text=text, language=language), stoplist
        )
    except EmptyDocument:
        return []
    return _stem_segments(cleaned, stem_types(cleaned, stems))


def stem_types(
    cleaned: CleanedDocument, stems: dict[str, str] | None = None
) -> dict[str, str]:
    """Stem each distinct token of ``cleaned`` once, in first-occurrence order.

    The stems go into ``stems`` when it is given (a token already there is
    not stemmed again), else into a new table; the table is returned.
    """
    stemmer = stemmer_for(cleaned.language)
    stems = {} if stems is None else stems
    for token in cleaned.frequencies:
        if token not in stems:
            stems[token] = stemmer(token)
    return stems


def _stem_segments(cleaned: CleanedDocument, stems: Mapping[str, str]) -> list[list[str]]:
    return [[stems[token] for token in sentence.tokens] for sentence in cleaned.sentences]


@dataclass(frozen=True)
class PreparedSource:
    """A source document prepared once to evaluate any number of its extracts.

    ``segments`` holds one stem stream per source sentence, as
    evaluation_tokens gives for the source text, and ``profiles`` the three
    prepared source profiles.
    """

    sentences: tuple[Sentence, ...]
    segments: tuple[list[str], ...]
    profiles: tuple[SourceProfile, ...]

    def extract_segments(self, selected: Sequence[int]) -> list[list[str]]:
        """The evaluation streams of the extract made of sentences ``selected``.

        Joined with spaces, the selected surfaces split back into exactly
        those sentences, so their streams are the source's own. The one
        exception: an extract with no alphabetic character is no sentence at
        all to evaluation_tokens, so its streams are empty.
        """
        sentences = self.sentences
        if not any(char.isalpha() for i in selected for char in sentences[i].surface):
            return []
        return [self.segments[i] for i in selected]

    def evaluate(self, selected: Sequence[int]) -> DivergenceReport:
        """The report of the extract made of sentences ``selected`` (ascending)."""
        return _report(self.profiles, self.extract_segments(selected))


def prepare_source(cleaned: CleanedDocument, stems: Mapping[str, str]) -> PreparedSource:
    """Build a document's stem streams and source profiles once.

    ``stems`` maps every token of ``cleaned`` to its stem (stem_types).
    Raises EmptySource when an n-gram order has no unit in the source.
    """
    segments = _stem_segments(cleaned, stems)
    return PreparedSource(
        sentences=cleaned.sentences,
        segments=tuple(segments),
        profiles=_source_profiles(segments),
    )
