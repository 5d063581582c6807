import logging
import math
import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from artex.errors import EmptyVocabulary
from artex.preprocess import RawDocument, Sentence, preprocess_document
from artex.scorer import (
    DEFAULT_BUDGET,
    SentenceCount,
    Summary,
    WordRatio,
    extract,
    ranked_indices,
    score,
    score_normalized,
    score_table,
    select,
)
from matrices import from_dense, oracle_score, oracle_score_normalized, pseudo_vectors

# Count matrices with at least one occurrence: with none there is no term
# to score against (EmptyVocabulary).
matrices = (
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
        min_size=1,
        max_size=8,
    )
    .map(lambda rows: [row[: len(rows[0])] + [0] * (len(rows[0]) - len(row)) for row in rows])
    .filter(lambda rows: any(map(any, rows)))
)

# Term streams: empty sentences, repeated terms and single sentences.
streams = st.lists(st.lists(st.sampled_from("abcdef"), max_size=8), min_size=1, max_size=6)


def _occurring_columns(counts: list[list[int]]) -> list[list[int]]:
    """The count matrix without its all-zero columns, which name no term."""
    keep = [j for j in range(len(counts[0])) if any(row[j] for row in counts)]
    return [[row[j] for j in keep] for row in counts]


def _vocabulary_size(terms) -> int:
    return len(set(chain.from_iterable(terms)))


def _naive_scores(counts: list[list[int]]) -> list[float]:
    # Dense reference: a_i = row mean, b_j = column mean,
    # raw_i = (1/(N*P)) * (sum_j s_ij * b_j) * a_i, over the columns that occur.
    counts = _occurring_columns(counts)
    p, n = len(counts), len(counts[0])
    a = [sum(row) / n for row in counts]
    b = [sum(counts[i][j] for i in range(p)) / p for j in range(n)]
    return [
        (1.0 / (n * p)) * sum(counts[i][j] * b[j] for j in range(n)) * a[i]
        for i in range(p)
    ]


def _normalized_column(scores: tuple[float, ...]) -> list[float]:
    """The normalized column of the score table, read back as floats."""
    return [float(line.split("\t")[2]) for line in score_table(scores).splitlines()[1:]]


def _sentences_with_words(word_counts: list[int]) -> list[Sentence]:
    return [Sentence(surface=" ".join(["w"] * k), tokens=("w",) * k) for k in word_counts]


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
    terms = from_dense(counts)
    pv = pseudo_vectors(terms)
    n = len(_occurring_columns(counts)[0])
    for i in range(4):
        assert pv.lexical_weight[i] == pytest.approx(sum(counts[i]) / n, rel=1e-12)
    # Columns are the terms in first-occurrence order.
    topic = dict(zip(dict.fromkeys(chain.from_iterable(terms)), pv.global_topic))
    assert len(topic) == n
    for j in range(6):
        column = sum(counts[i][j] for i in range(4))
        if column:
            assert topic[f"t{j}"] == pytest.approx(column / 4, rel=1e-12)


def test_pseudo_vectors_columns_in_first_occurrence_order():
    pv = pseudo_vectors([["b"], [], ["a", "b", "b"]])
    assert pv.lexical_weight == (0.5, 0.0, 1.5)
    assert pv.global_topic == (1.0, 1 / 3)


# --- raw scoring ------------------------------------------------------------


def test_score_hand_check_exact():
    terms = from_dense([[1, 0], [0, 1]])
    scores = score(terms)
    assert scores == (0.0625, 0.0625)
    assert _normalized_column(scores) == [1.0, 1.0]


def test_score_empty_row_is_exactly_zero():
    terms = from_dense([[0, 0], [1, 2]])
    scores = score(terms)
    assert scores[0] == 0.0


def test_score_matches_dense_oracle():
    rng = random.Random(5)
    counts = [[rng.randint(0, 5) for _ in range(9)] for _ in range(6)]
    terms = from_dense(counts)
    scores = score(terms)
    for got, want in zip(scores, _naive_scores(counts)):
        assert got == pytest.approx(want, rel=1e-12)


def test_score_normalized_hand_checks():
    terms = from_dense([[1, 0], [0, 1]])
    scores = score_normalized(terms)
    assert scores == (0.015625, 0.015625)
    single = from_dense([[1]])
    assert score_normalized(single) == (1.0,)


@given(streams)
@example([["a"]])
@example([["a", "a", "b"]])
@example([[], ["a", "a"], []])
def test_scores_equal_the_matrix_oracle(terms):
    if not any(terms):
        for scorer in (score, score_normalized, oracle_score):
            with pytest.raises(EmptyVocabulary, match="no sentence retained any token"):
                scorer(terms)
        return
    assert score(terms) == oracle_score(terms)
    assert score_normalized(terms) == oracle_score_normalized(terms)


@given(matrices)
def test_rank_equivalence_and_constant_factor(counts):
    terms = from_dense(counts)
    plain = score(terms)
    normalized = score_normalized(terms)
    assert ranked_indices(plain) == ranked_indices(normalized)
    n, p = _vocabulary_size(terms), len(terms)
    factor = math.sqrt(n**5 * p**3) / (n * p)
    for a, b in zip(plain, normalized):
        assert a == pytest.approx(b * factor, rel=1e-10, abs=1e-300)


@given(matrices, st.integers(min_value=1, max_value=7))
def test_positive_scaling_invariance(counts, c):
    base = from_dense(counts)
    scaled = from_dense(
        [[c * value for value in row] for row in counts]
    )
    raw0 = score(base)
    raw1 = score(scaled)
    for a, b in zip(raw0, raw1):
        assert b == pytest.approx(a * c**3, rel=1e-10, abs=1e-300)
    assert ranked_indices(score(base)) == ranked_indices(score(scaled))


@given(matrices)
def test_integer_numerators_match_mean_based_evaluation(counts):
    # The production path folds the mean denominators into one division;
    # summing against rounded float means must land on the same values.
    terms = from_dense(counts)
    pv = pseudo_vectors(terms)
    topic = dict(zip(dict.fromkeys(chain.from_iterable(terms)), pv.global_topic))
    plain = score(terms)
    n, p = len(topic), len(terms)
    mean_based = [
        (1.0 / (n * p))
        * sum(count * topic[term] for term, count in Counter(stream).items())
        * pv.lexical_weight[i]
        for i, stream in enumerate(terms)
    ]
    for a, b in zip(plain, mean_based):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


@given(matrices)
def test_normalized_scores_in_unit_interval(counts):
    scores = score(from_dense(counts))
    normalized = _normalized_column(scores)
    assert all(0.0 <= value <= 1.0 for value in normalized)
    if any(value > 0.0 for value in scores):
        assert max(normalized) == 1.0
    else:
        assert set(normalized) == {0.0}
    by_raw = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    by_norm = sorted(range(len(normalized)), key=lambda i: (-normalized[i], i))
    assert by_raw == by_norm


# --- ranking and selection ---------------------------------------------------


def test_ranked_indices_ties_toward_earlier_index():
    scores = (0.5, 0.7, 0.5)
    assert ranked_indices(scores) == [1, 0, 2]


def test_select_top_k_in_source_order():
    scores = (0.2, 0.9, 0.5)
    sentences = _sentences_with_words([4, 4, 4])
    assert select(scores, sentences, SentenceCount(2)).selected == (1, 2)


def test_select_tie_break():
    scores = (0.5, 0.5)
    sentences = _sentences_with_words([4, 4])
    assert select(scores, sentences, SentenceCount(1)).selected == (0,)


def test_select_clamps_oversized_budget(caplog):
    scores = (0.5,)
    sentences = _sentences_with_words([4])
    with caplog.at_level(logging.WARNING, logger="artex.scorer"):
        summary = select(scores, sentences, SentenceCount(3))
    assert summary.selected == (0,)
    assert any("clamping" in record.message for record in caplog.records)


def test_select_budget_of_every_sentence_does_not_warn(caplog):
    sentences = _sentences_with_words([4, 4, 4])
    with caplog.at_level(logging.WARNING, logger="artex.scorer"):
        summary = select((0.2, 0.9, 0.5), sentences, SentenceCount(3))
    assert summary.selected == (0, 1, 2)
    assert caplog.records == []


def test_select_requires_matching_lengths():
    scores = (0.5,)
    with pytest.raises(ValueError):
        select(scores, _sentences_with_words([4, 4]), SentenceCount(1))


def test_select_default_budget_is_fifth_of_words():
    assert DEFAULT_BUDGET == WordRatio(0.20)
    scores = tuple(range(10, 0, -1))
    sentences = _sentences_with_words([5] * 10)
    assert select(scores, sentences).selected == (0, 1)


def test_ratio_selection_matches_prefix_enumeration_oracle():
    rng = random.Random(9)
    scores = tuple(rng.random() for _ in range(10))
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
    scores = (0.1, 0.9, 0.5)
    sentences = _sentences_with_words([3, 7, 5])
    summary = extract(ranked_indices(scores), sentences, WordRatio(1.0))
    assert summary.selected == (0, 1, 2)


@pytest.mark.parametrize("bad", [0, -2, 2.5, 1.0])
def test_sentence_count_requires_positive_k(bad):
    with pytest.raises(ValueError):
        SentenceCount(bad)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
def test_word_ratio_requires_unit_interval(bad):
    with pytest.raises(ValueError):
        WordRatio(bad)


def test_extract_joins_in_source_order():
    sentences = [
        Sentence(surface="First one.", tokens=("First", "one.")),
        Sentence(surface="Second one.", tokens=("Second", "one.")),
        Sentence(surface="Third one.", tokens=("Third", "one.")),
    ]
    summary = extract([2, 0, 1], sentences, SentenceCount(2))
    assert summary.selected == (0, 2)
    assert summary.text == "First one. Third one."


def test_sentence_words_counts_whitespace_tokens():
    # The final sentences keep the split's whitespace tokens: every Unicode
    # whitespace run separates words, as str.split() has it.
    text = (
        "Solar\tpanels store\npower. Solar\u00a0panels feed\u2028power grids! "
        "Grids\t\tstore power."
    )
    doc = preprocess_document(RawDocument(id="d", text=text, language="en"))
    assert [len(s.tokens) for s in doc.sentences] == [4, 5, 3]
    for sentence in doc.sentences:
        assert sentence.tokens == tuple(sentence.surface.split())


def test_score_table_flags_selected_rows():
    scores = (0.5, 0.25)
    summary = Summary(selected=(0,), text="")
    table = score_table(scores, summary).splitlines()
    assert table[0] == "index\traw\tnormalized\tselected"
    assert table[1] == "0\t0.5\t1.0\t*"
    assert table[2] == "1\t0.25\t0.5\t-"
