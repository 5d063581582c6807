"""Sparse sentence-term occurrence matrix over normalized token streams.

Rows are sentences, columns are vocabulary terms in first-occurrence order,
entries are exact integer occurrence counts. The matrix is stored row-major
as one column→count mapping per sentence because most entries are zero or
one and scoring iterates rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import EmptyVocabulary
from .preprocess import Sentence


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


def vectorize(sentences: Sequence[Sentence]) -> tuple[dict[str, int], SentenceTermMatrix]:
    """Count term occurrences per sentence over a shared vocabulary.

    Returns the vocabulary as a term -> column index in first-occurrence
    order over the sentence stream, which makes matrices reproducible
    byte-for-byte across runs, together with the matrix. Raises
    EmptyVocabulary when no sentence retains any token.
    """
    index: dict[str, int] = {}
    rows = []
    for sentence in sentences:
        row: dict[int, int] = {}
        for token in sentence.tokens:
            j = index.setdefault(token, len(index))
            row[j] = row.get(j, 0) + 1
        rows.append(row)
    if not index:
        raise EmptyVocabulary("no sentence retained any token")
    return index, SentenceTermMatrix(P=len(sentences), N=len(index), rows=tuple(rows))
