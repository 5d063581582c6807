"""Sparse sentence-term occurrence matrix over normalized token streams.

Rows are sentences, columns are vocabulary terms in first-occurrence order,
entries are exact integer occurrence counts. The matrix is stored row-major
as one column→count mapping per sentence because most entries are zero or
one and scoring iterates rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EmptyVocabulary
from .preprocess import Sentence


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between term types and column indices.

    Column order is first-occurrence order over the sentence stream, which
    makes vocabularies and matrices reproducible byte-for-byte across runs.
    """

    terms: tuple[str, ...]
    index: Mapping[str, int]

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def __getitem__(self, term: str) -> int:
        return self.index[term]

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from terms, keeping first-occurrence order."""
        index: dict[str, int] = {}
        for term in terms:
            if term not in index:
                index[term] = len(index)
        return cls(terms=tuple(index), index=index)


@dataclass(frozen=True)
class SentenceTermMatrix:
    """P x N occurrence-count matrix; absent entries mean zero.

    ``rows[i]`` maps column index j to the count of term j in sentence i.
    Stored counts are positive integers; fully-filtered sentences keep an
    empty row so that row indices line up with sentence indices.
    """

    P: int
    N: int
    rows: tuple[Mapping[int, int], ...]

    def row_sum(self, i: int) -> int:
        return sum(self.rows[i].values())

    def column_sums(self) -> list[int]:
        sums = [0] * self.N
        for row in self.rows:
            for j, count in row.items():
                sums[j] += count
        return sums


def vectorize(sentences: Sequence[Sentence]) -> tuple[Vocabulary, SentenceTermMatrix]:
    """Count term occurrences per sentence over a shared vocabulary.

    Raises EmptyVocabulary when no sentence retains any token.
    """
    vocabulary = Vocabulary.from_terms(
        token for sentence in sentences for token in sentence.tokens
    )
    if not vocabulary.terms:
        raise EmptyVocabulary("no sentence retained any token")
    rows = []
    for sentence in sentences:
        row: dict[int, int] = {}
        for token in sentence.tokens:
            j = vocabulary.index[token]
            row[j] = row.get(j, 0) + 1
        rows.append(row)
    matrix = SentenceTermMatrix(P=len(sentences), N=len(vocabulary), rows=tuple(rows))
    return vocabulary, matrix

