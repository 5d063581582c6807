import logging
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artex.preprocess import Sentence
from artex.scorer import (
    DEFAULT_BUDGET,
    ScoreVector,
    SentenceCount,
    Summary,
    WordRatio,
    extract,
    pseudo_vectors,
    ranked_indices,
    score,
    score_normalized,
    score_table,
    select,
)
from matrices import from_dense

matrices = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    min_size=1,
    max_size=8,
).map(lambda rows: [row[: len(rows[0])] + [0] * (len(rows[0]) - len(row)) for row in rows])


def _naive_scores(counts: list[list[int]]) -> list[float]:
    # Dense reference: a_i = row mean, b_j = column mean,
    # raw_i = (1/(N*P)) * (sum_j s_ij * b_j) * a_i.
    p, n = len(counts), len(counts[0])
    a = [sum(row) / n for row in counts]
    b = [sum(counts[i][j] for i in range(p)) / p for j in range(n)]
    return [
        (1.0 / (n * p)) * sum(counts[i][j] * b[j] for j in range(n)) * a[i]
        for i in range(p)
    ]


def _sentences_with_words(word_counts: list[int]) -> list[Sentence]:
    return [
        Sentence(index=i, surface=" ".join(["w"] * k), tokens=())
        for i, k in enumerate(word_counts)
    ]


# --- pseudo-vectors --------------------------------------------------------


def test_pseudo_vectors_identity_case():
    pv = pseudo_vectors(from_dense([[1, 0], [0, 1]]))
    assert pv.lexical_weight == (0.5, 0.5)
    assert pv.global_topic == (0.5, 0.5)


def test_pseudo_vectors_single_row():
    pv = pseudo_vectors(from_dense([[2, 2]]))
    assert pv.lexical_weight == (2.0,)
    assert pv.global_topic == (2.0, 2.0)


def test_pseudo_vectors_match_dense_oracle():
    rng = random.Random(3)
    counts = [[rng.randint(0, 5) for _ in range(6)] for _ in range(4)]
    pv = pseudo_vectors(from_dense(counts))
    for i in range(4):
        assert pv.lexical_weight[i] == pytest.approx(sum(counts[i]) / 6, rel=1e-12)
    for j in range(6):
        column = sum(counts[i][j] for i in range(4))
        assert pv.global_topic[j] == pytest.approx(column / 4, rel=1e-12)


# --- raw scoring ------------------------------------------------------------


def test_score_hand_check_exact():
    matrix = from_dense([[1, 0], [0, 1]])
    scores = score(matrix)
    assert scores.raw == (0.0625, 0.0625)
    assert scores.normalized == (1.0, 1.0)


def test_score_empty_row_is_exactly_zero():
    matrix = from_dense([[0, 0], [1, 2]])
    scores = score(matrix)
    assert scores.raw[0] == 0.0


def test_score_matches_dense_oracle():
    rng = random.Random(5)
    counts = [[rng.randint(0, 5) for _ in range(9)] for _ in range(6)]
    matrix = from_dense(counts)
    scores = score(matrix)
    for got, want in zip(scores.raw, _naive_scores(counts)):
        assert got == pytest.approx(want, rel=1e-12)


def test_score_normalized_hand_checks():
    matrix = from_dense([[1, 0], [0, 1]])
    scores = score_normalized(matrix)
    assert scores.raw == (0.015625, 0.015625)
    single = from_dense([[1]])
    assert score_normalized(single).raw == (1.0,)


@given(matrices)
def test_rank_equivalence_and_constant_factor(counts):
    matrix = from_dense(counts)
    plain = score(matrix)
    normalized = score_normalized(matrix)
    assert ranked_indices(plain) == ranked_indices(normalized)
    factor = math.sqrt(matrix.N**5 * matrix.P**3) / (matrix.N * matrix.P)
    for a, b in zip(plain.raw, normalized.raw):
        assert a == pytest.approx(b * factor, rel=1e-10, abs=1e-300)


@given(matrices, st.integers(min_value=1, max_value=7))
def test_positive_scaling_invariance(counts, c):
    base = from_dense(counts)
    scaled = from_dense(
        [[c * value for value in row] for row in counts]
    )
    raw0 = score(base).raw
    raw1 = score(scaled).raw
    for a, b in zip(raw0, raw1):
        assert b == pytest.approx(a * c**3, rel=1e-10, abs=1e-300)
    assert ranked_indices(score(base)) == ranked_indices(score(scaled))


@given(matrices)
def test_integer_numerators_match_mean_based_evaluation(counts):
    # The production path folds the mean denominators into one division;
    # summing against rounded float means must land on the same values.
    matrix = from_dense(counts)
    pv = pseudo_vectors(matrix)
    plain = score(matrix)
    mean_based = [
        (1.0 / (matrix.N * matrix.P))
        * sum(count * pv.global_topic[j] for j, count in matrix.rows[i].items())
        * pv.lexical_weight[i]
        for i in range(matrix.P)
    ]
    for a, b in zip(plain.raw, mean_based):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


@given(matrices)
def test_normalized_scores_in_unit_interval(counts):
    matrix = from_dense(counts)
    scores = score(matrix)
    assert all(0.0 <= value <= 1.0 for value in scores.normalized)
    if any(value > 0.0 for value in scores.raw):
        assert max(scores.normalized) == 1.0
    else:
        assert set(scores.normalized) == {0.0}
    by_raw = sorted(range(len(scores.raw)), key=lambda i: (-scores.raw[i], i))
    by_norm = sorted(
        range(len(scores.normalized)), key=lambda i: (-scores.normalized[i], i)
    )
    assert by_raw == by_norm


# --- ranking and selection ---------------------------------------------------


def test_ranked_indices_ties_toward_earlier_index():
    scores = ScoreVector(raw=(0.5, 0.7, 0.5), normalized=(0.5, 0.7, 0.5))
    assert ranked_indices(scores) == [1, 0, 2]


def test_select_top_k_in_source_order():
    scores = ScoreVector(raw=(0.2, 0.9, 0.5), normalized=(0.2, 0.9, 0.5))
    sentences = _sentences_with_words([4, 4, 4])
    assert select(scores, sentences, SentenceCount(2)).selected == (1, 2)


def test_select_tie_break():
    scores = ScoreVector(raw=(0.5, 0.5), normalized=(1.0, 1.0))
    sentences = _sentences_with_words([4, 4])
    assert select(scores, sentences, SentenceCount(1)).selected == (0,)


def test_select_clamps_oversized_budget(caplog):
    scores = ScoreVector(raw=(0.5,), normalized=(1.0,))
    sentences = _sentences_with_words([4])
    with caplog.at_level(logging.WARNING, logger="artex.scorer"):
        summary = select(scores, sentences, SentenceCount(3))
    assert summary.selected == (0,)
    assert any("clamping" in record.message for record in caplog.records)


def test_select_requires_matching_lengths():
    scores = ScoreVector(raw=(0.5,), normalized=(1.0,))
    with pytest.raises(ValueError):
        select(scores, _sentences_with_words([4, 4]), SentenceCount(1))


def test_select_default_budget_is_fifth_of_words():
    assert DEFAULT_BUDGET == WordRatio(0.20)
    scores = ScoreVector(raw=tuple(range(10, 0, -1)), normalized=(1.0,) * 10)
    sentences = _sentences_with_words([5] * 10)
    assert select(scores, sentences).selected == (0, 1)


def test_ratio_selection_matches_prefix_enumeration_oracle():
    rng = random.Random(9)
    raw = tuple(rng.random() for _ in range(10))
    scores = ScoreVector(raw=raw, normalized=raw)
    words = [rng.randint(3, 12) for _ in range(10)]
    sentences = _sentences_with_words(words)
    summary = select(scores, sentences, WordRatio(0.3))
    target = 0.3 * sum(words)
    order = ranked_indices(scores)
    expected = None
    for stop in range(1, len(order) + 1):
        if sum(words[i] for i in order[:stop]) >= target:
            expected = tuple(sorted(order[:stop]))
            break
    assert summary.selected == expected


def test_ratio_one_selects_every_sentence():
    scores = ScoreVector(raw=(0.1, 0.9, 0.5), normalized=(0.1, 0.9, 0.5))
    sentences = _sentences_with_words([3, 7, 5])
    summary = extract(ranked_indices(scores), sentences, WordRatio(1.0))
    assert summary.selected == (0, 1, 2)


@pytest.mark.parametrize("bad", [0, -2])
def test_sentence_count_requires_positive_k(bad):
    with pytest.raises(ValueError):
        SentenceCount(bad)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
def test_word_ratio_requires_unit_interval(bad):
    with pytest.raises(ValueError):
        WordRatio(bad)


def test_extract_joins_in_source_order():
    sentences = [
        Sentence(index=0, surface="First one.", tokens=()),
        Sentence(index=1, surface="Second one.", tokens=()),
        Sentence(index=2, surface="Third one.", tokens=()),
    ]
    summary = extract([2, 0, 1], sentences, SentenceCount(2))
    assert summary.selected == (0, 2)
    assert summary.text == "First one. Third one."
    assert summary.compression == SentenceCount(2)


def test_sentence_words_counts_whitespace_tokens():
    assert Sentence(index=0, surface="a b  c", tokens=()).words == 3


def test_score_table_flags_selected_rows():
    scores = ScoreVector(raw=(0.5, 0.25), normalized=(1.0, 0.5))
    summary = Summary(selected=(0,), text="", compression=SentenceCount(1))
    table = score_table(scores, summary).splitlines()
    assert table[0] == "index\traw\tnormalized\tselected"
    assert table[1] == "0\t0.5\t1.0\t*"
    assert table[2] == "1\t0.25\t0.5\t-"
