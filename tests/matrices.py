"""The sentence-term matrix, as the scorer's test oracle.

The package scores sentences from their term streams and never builds the
matrix. This module keeps the matrix path it replaced: ``vectorize`` counts
the streams into one column -> count mapping per sentence, and
``oracle_score`` and ``oracle_score_normalized`` score those rows with the
same exact integer numerators. ``pseudo_vectors`` computes the paper's two
vectors themselves, the matrix's row and column means, which ``score``
folds into one division. ``from_dense`` turns a count matrix into term
streams, so that tests can state their inputs by their counts.
"""

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from artex.errors import EmptyVocabulary


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


def vectorize(streams: Sequence[Sequence[str]]) -> tuple[dict[str, int], SentenceTermMatrix]:
    """Count term occurrences per sentence over a shared vocabulary.

    Returns the vocabulary as a term -> column index in first-occurrence
    order over the streams, together with the matrix. Raises
    EmptyVocabulary when no sentence retains any term.
    """
    index: dict[str, int] = {}
    rows = []
    for stream in streams:
        row: dict[int, int] = {}
        for term in stream:
            j = index.setdefault(term, len(index))
            row[j] = row.get(j, 0) + 1
        rows.append(row)
    if not index:
        raise EmptyVocabulary("no sentence retained any token")
    return index, SentenceTermMatrix(P=len(streams), N=len(index), rows=tuple(rows))


class PseudoVectors(NamedTuple):
    """Row and column averages of the occurrence matrix.

    ``lexical_weight[i]`` is the average occurrence count over the N terms
    in sentence i (a per-sentence informativeness scale factor), and
    ``global_topic[j]`` is the average occurrence count of term j over the
    P sentences (the document-wide topic profile).
    """

    lexical_weight: tuple[float, ...]
    global_topic: tuple[float, ...]


def pseudo_vectors(streams: Sequence[Sequence[str]]) -> PseudoVectors:
    """Row means (lexical weight) and column means (global topic), with the
    columns in first-occurrence order: the paper's formulation of the two
    pseudo-vectors. Raises EmptyVocabulary like ``vectorize``.
    """
    _, matrix = vectorize(streams)
    lexical = tuple(matrix.row_sum(i) / matrix.N for i in range(matrix.P))
    topic = tuple(total / matrix.P for total in matrix.column_sums())
    return PseudoVectors(lexical_weight=lexical, global_topic=topic)


def _matrix_scores(matrix: SentenceTermMatrix, denominator: float) -> tuple[float, ...]:
    totals = matrix.column_sums()
    raw = []
    for i in range(matrix.P):
        dot = sum(count * totals[j] for j, count in matrix.rows[i].items())
        raw.append(dot * matrix.row_sum(i) / denominator)
    return tuple(raw)


def oracle_score(streams: Sequence[Sequence[str]]) -> tuple[float, ...]:
    """``score`` computed over the rows of the vectorized matrix."""
    _, matrix = vectorize(streams)
    return _matrix_scores(matrix, (matrix.N * matrix.P) ** 2)


def oracle_score_normalized(streams: Sequence[Sequence[str]]) -> tuple[float, ...]:
    """``score_normalized`` computed over the rows of the vectorized matrix."""
    _, matrix = vectorize(streams)
    n, p = matrix.N, matrix.P
    return _matrix_scores(matrix, n * p * math.sqrt(n**5 * p**3))


def from_dense(counts: Sequence[Sequence[int]]) -> list[list[str]]:
    """One term stream per row: term ``t<j>`` repeated ``counts[i][j]`` times.

    A column of zeros names no term, so the streams hold only the columns
    that occur.
    """
    n = len(counts[0]) if counts else 0
    names = [f"t{j}" for j in range(n)]
    streams = []
    for dense_row in counts:
        if len(dense_row) != n:
            raise ValueError("ragged count matrix")
        streams.append([names[j] for j, c in enumerate(dense_row) for _ in range(int(c))])
    return streams
