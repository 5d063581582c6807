"""Sentence scoring by inner products against two pseudo-vectors.

The paper's vectors live in the P x N sentence-term occurrence matrix of a
document: P sentences, N distinct terms, each entry a term's count in a
sentence. Each sentence is scored by its inner product with the
global-topic vector (the average sentence vector, column means) scaled by
its own lexical weight (its average term occurrence, row mean). A
hypersphere-normalized variant divides by the product of the vector norm
bounds instead; the two differ by a constant positive factor and therefore
rank sentences identically. Both reduce to integers the sentences' term
streams already hold, so the matrix is never built: a sentence's inner
product with the column totals is the sum, over its term occurrences, of
each term's count in the document, and its row total is its length. Each
score is that exact integer numerator divided once, which makes the rank
identity hold exactly in floating point; the two vectors themselves are
computed only by the tests' matrix oracle. Summaries are the top-scoring
sentences under a budget, re-ordered to source order; the lead and random
baselines hand their own sentence orders to the same ``extract``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import chain
from typing import NamedTuple, Sequence

from .errors import EmptyVocabulary, warn
from .preprocess import Sentence, checked


@checked
class SentenceCount(NamedTuple):
    """Budget: keep exactly ``k`` sentences (clamped to the document size)."""

    k: int

    def _check(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ValueError(f"sentence budget must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"sentence budget must be >= 1, got {self.k}")


@checked
class WordRatio(NamedTuple):
    """Budget: smallest selection reaching ``ratio`` of the source words."""

    ratio: float

    def _check(self):
        if not isinstance(self.ratio, (int, float)) or isinstance(self.ratio, bool):
            raise ValueError(f"word ratio must be a number, got {self.ratio!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"word ratio must be in (0, 1], got {self.ratio}")


CompressionSpec = SentenceCount | WordRatio

DEFAULT_BUDGET = WordRatio(0.20)


class Summary(NamedTuple):
    """Selected sentence indices in source order plus the assembled text."""

    selected: tuple[int, ...]
    text: str


def _totals(terms: Sequence[Sequence[str]]) -> Counter[str]:
    """Each term's count in the document, in first-occurrence order."""
    totals = Counter(chain.from_iterable(terms))
    if not totals:
        raise EmptyVocabulary("no sentence retained any token")
    return totals


def _scores(
    terms: Sequence[Sequence[str]], totals: Counter[str], denominator: float
) -> tuple[float, ...]:
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
    """
    count = totals.__getitem__
    return tuple(sum(map(count, stream)) * len(stream) / denominator for stream in terms)


def score(terms: Sequence[Sequence[str]]) -> tuple[float, ...]:
    """Raw sentence scores: (topic inner product) x (lexical weight) / (N*P).

    ``terms`` holds one term stream per sentence. An empty stream has
    lexical weight 0 and scores exactly 0. Raises EmptyVocabulary when no
    sentence retains any term.
    """
    totals = _totals(terms)
    return _scores(terms, totals, (len(totals) * len(terms)) ** 2)


def score_normalized(terms: Sequence[Sequence[str]]) -> tuple[float, ...]:
    """Hypersphere-normalized scores: same products over sqrt(N^5 * P^3).

    The divisor is the product of the norm bounds of the three vectors
    involved (N*sqrt(P) for the lexical-weight vector, sqrt(N)*P for the
    global-topic vector, N for a sentence row), so this differs from
    :func:`score` by the constant positive factor sqrt(N^5 * P^3) / (N*P)
    and ranks sentences identically.
    """
    totals = _totals(terms)
    n, p = len(totals), len(terms)
    return _scores(terms, totals, n * p * math.sqrt(n**5 * p**3))


def ranked_indices(scores: Sequence[float]) -> list[int]:
    """Sentence indices from best to worst, ties toward the earlier index.

    The sort is stable, so equal scores keep their source order.
    """
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


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
            warn(__name__, "budget of %d sentences exceeds the %d available; clamping", k, p)
            k = p
        chosen = order[:k]
    else:
        # The full order always reaches the target: the accumulated count
        # ends at the word total and target = ratio * total <= total.
        words = [len(sentence.tokens) for sentence in sentences]
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
    return Summary(selected=selected, text=text)


def select(
    scores: Sequence[float],
    sentences: Sequence[Sentence],
    budget: CompressionSpec = DEFAULT_BUDGET,
) -> Summary:
    """Pick the top-scoring sentences under the budget, in source order."""
    if len(scores) != len(sentences):
        raise ValueError("score vector length does not match sentence count")
    return extract(ranked_indices(scores), sentences, budget)


def lead_baseline(sentences: Sequence[Sentence], budget: CompressionSpec) -> Summary:
    """Select the leading sentences until the budget is met."""
    return extract(range(len(sentences)), sentences, budget)


def random_baseline(
    sentences: Sequence[Sentence],
    budget: CompressionSpec,
    seed: int,
) -> Summary:
    """Select uniformly random sentences until the budget is met.

    The random order is the full permutation drawn by
    ``random.Random(seed).sample`` (CPython's Mersenne Twister with its
    partial Fisher-Yates sampling), truncated to the budget; this pins the
    exact selection for a given seed so results replicate across machines.
    """
    p = len(sentences)
    return extract(random.Random(seed).sample(range(p), p), sentences, budget)


def score_table(scores: Sequence[float], summary: Summary | None = None) -> str:
    """Tab-separated per-sentence dump: index, raw, normalized, selected flag.

    ``scores`` comes from :func:`score` or :func:`score_normalized`, so at
    least one score is positive. The normalized column divides each score by
    the maximum, which keeps ranks and puts values in [0, 1].
    """
    chosen = set(summary.selected) if summary is not None else set()
    peak = max(scores)
    lines = ["index\traw\tnormalized\tselected"]
    for i, raw in enumerate(scores):
        norm = raw / peak
        flag = "*" if i in chosen else "-"
        lines.append(f"{i}\t{raw!r}\t{norm!r}\t{flag}")
    return "\n".join(lines)
