"""Sentence scoring by inner products against two pseudo-vectors.

Each sentence row of the occurrence matrix is scored by its inner product
with the global-topic vector (the average sentence vector, column means)
scaled by its own lexical weight (its average term occurrence, row mean).
A hypersphere-normalized variant divides by the product of the vector norm
bounds instead; the two differ by a constant positive factor and therefore
rank sentences identically. Both variants factor the mean denominators out
of the inner products and evaluate an exact integer numerator per sentence,
rounding only in the final division, which makes that rank identity hold
exactly in floating point. Summaries are the top-scoring sentences under a
budget, re-ordered to source order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .preprocess import Sentence
from .vsm import SentenceTermMatrix

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PseudoVectors:
    """Row and column averages of the occurrence matrix.

    ``lexical_weight[i]`` is the average occurrence count over the N terms
    in sentence i (a per-sentence informativeness scale factor), and
    ``global_topic[j]`` is the average occurrence count of term j over the
    P sentences (the document-wide topic profile).
    """

    lexical_weight: tuple[float, ...]
    global_topic: tuple[float, ...]


@dataclass(frozen=True)
class ScoreVector:
    """Per-sentence relevance: raw values and a max-normalized copy in [0,1]."""

    raw: tuple[float, ...]
    normalized: tuple[float, ...]


@dataclass(frozen=True)
class SentenceCount:
    """Budget: keep exactly ``k`` sentences (clamped to the document size)."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"sentence budget must be >= 1, got {self.k}")


@dataclass(frozen=True)
class WordRatio:
    """Budget: smallest selection reaching ``ratio`` of the source words."""

    ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"word ratio must be in (0, 1], got {self.ratio}")


CompressionSpec = SentenceCount | WordRatio

DEFAULT_BUDGET = WordRatio(0.20)


@dataclass(frozen=True)
class Summary:
    """Selected sentence indices in source order plus the assembled text."""

    selected: tuple[int, ...]
    text: str
    compression: CompressionSpec


def pseudo_vectors(matrix: SentenceTermMatrix) -> PseudoVectors:
    """Compute row means (lexical weight) and column means (global topic).

    This is the paper's formulation of the two pseudo-vectors; :func:`score`
    reaches the same values from the matrix's integer totals and does not
    call it.
    """
    n, p = matrix.N, matrix.P
    lexical = tuple(matrix.row_sum(i) / n for i in range(p))
    topic = tuple(total / p for total in matrix.column_sums())
    return PseudoVectors(lexical_weight=lexical, global_topic=topic)


def _scores(matrix: SentenceTermMatrix, denominator: float) -> ScoreVector:
    """Scores from exact integer numerators: (row x column totals) x row total.

    The mean-based product (sum_j s_ij * b_j) * a_i equals this integer
    divided by N*P, so computing the integer first and dividing once (by
    ``denominator``) leaves each score a single correctly rounded float.
    Ranking is then provably the same under any positive scale constant:
    equal numerators stay equal and distinct numerators keep a relative gap
    of at least 1/numerator, far above one rounding error for any realistic
    document, so no scaling can merge or reorder them. Summing rounded
    column means instead admits one-ulp drift between mathematically tied
    sentences, and a later scale constant can then collapse the pair into a
    tie in one scaling but not the other, reordering the tie-broken sort.

    The normalized copy divides by the maximum raw score (all zeros when
    every raw score is zero), which keeps ranks and puts values in [0, 1].
    """
    totals = matrix.column_sums()
    raw = []
    for i in range(matrix.P):
        dot = sum(count * totals[j] for j, count in matrix.rows[i].items())
        raw.append(dot * matrix.row_sum(i) / denominator)
    peak = max(raw, default=0.0)
    if peak <= 0.0:
        return ScoreVector(raw=tuple(raw), normalized=tuple(0.0 for _ in raw))
    return ScoreVector(raw=tuple(raw), normalized=tuple(value / peak for value in raw))


def score(matrix: SentenceTermMatrix) -> ScoreVector:
    """Raw sentence scores: (topic inner product) x (lexical weight) / (N*P).

    An empty sentence row has lexical weight 0 and scores exactly 0.
    """
    return _scores(matrix, (matrix.N * matrix.P) ** 2)


def score_normalized(matrix: SentenceTermMatrix) -> ScoreVector:
    """Hypersphere-normalized scores: same products over sqrt(N^5 * P^3).

    The divisor is the product of the norm bounds of the three vectors
    involved (N*sqrt(P) for the lexical-weight vector, sqrt(N)*P for the
    global-topic vector, N for a sentence row), so this differs from
    :func:`score` by the constant positive factor sqrt(N^5 * P^3) / (N*P)
    and ranks sentences identically.
    """
    return _scores(matrix, matrix.N * matrix.P * math.sqrt(matrix.N**5 * matrix.P**3))


def ranked_indices(scores: ScoreVector) -> list[int]:
    """Sentence indices from best to worst, ties toward the earlier index."""
    return sorted(range(len(scores.raw)), key=lambda i: (-scores.raw[i], i))


def extract(
    order: Sequence[int],
    sentences: Sequence[Sentence],
    budget: CompressionSpec,
) -> Summary:
    """Summarize by the smallest prefix of ``order`` that satisfies the budget.

    For a sentence-count budget the prefix is the first k positions (k is
    clamped to the sentence count, with a warning). For a word-ratio budget
    the prefix is the shortest one whose surface word count reaches the
    requested fraction of the total. The chosen surfaces are joined in
    source order with single spaces.
    """
    p = len(sentences)
    if isinstance(budget, SentenceCount):
        k = budget.k
        if k > p:
            logger.warning("budget of %d sentences exceeds the %d available; clamping", k, p)
            k = p
        chosen = order[:k]
    else:
        # The full order always reaches the target: the accumulated count
        # ends at the word total and target = ratio * total <= total.
        words = [sentence.words for sentence in sentences]
        target = budget.ratio * sum(words)
        chosen = []
        accumulated = 0
        for index in order:
            chosen.append(index)
            accumulated += words[index]
            if accumulated >= target:
                break
    selected = tuple(sorted(chosen))
    text = " ".join(sentences[i].surface for i in selected)
    return Summary(selected=selected, text=text, compression=budget)


def select(
    scores: ScoreVector,
    sentences: Sequence[Sentence],
    budget: CompressionSpec | None = None,
) -> Summary:
    """Pick the top-scoring sentences under the budget, in source order."""
    if budget is None:
        budget = DEFAULT_BUDGET
    if len(scores.raw) != len(sentences):
        raise ValueError("score vector length does not match sentence count")
    return extract(ranked_indices(scores), sentences, budget)


def score_table(scores: ScoreVector, summary: Summary | None = None) -> str:
    """Tab-separated per-sentence dump: index, raw, normalized, selected flag."""
    chosen = set(summary.selected) if summary is not None else set()
    lines = ["index\traw\tnormalized\tselected"]
    for i, (raw, norm) in enumerate(zip(scores.raw, scores.normalized)):
        flag = "*" if i in chosen else "-"
        lines.append(f"{i}\t{raw!r}\t{norm!r}\t{flag}")
    return "\n".join(lines)
