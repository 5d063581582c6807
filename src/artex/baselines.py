"""Reference systems for evaluator sanity checks: lead and random selection.

Each is a sentence order handed to the scorer's ``extract``, the step that
turns artex's ranking into a summary, so all three systems differ only in
that order and are evaluated through the same reporting pipeline.
"""

from __future__ import annotations

import random
from typing import Sequence

from .preprocess import Sentence
from .scorer import CompressionSpec, Summary, extract


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
