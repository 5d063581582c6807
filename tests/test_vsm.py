"""The matrix oracle of tests/matrices.py: vectorize and from_dense."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artex.errors import EmptyVocabulary
from matrices import SentenceTermMatrix, from_dense, vectorize


def _dense(matrix: SentenceTermMatrix) -> list[list[int]]:
    return [[matrix.rows[i].get(j, 0) for j in range(matrix.N)] for i in range(matrix.P)]


# --- vectorize -----------------------------------------------------------


def test_vectorize_vocabulary_first_occurrence_order():
    vocabulary, matrix = vectorize([["b", "a"], ["b", "c"]])
    assert vocabulary == {"b": 0, "a": 1, "c": 2}
    assert list(vocabulary) == ["b", "a", "c"]
    assert len(vocabulary) == matrix.N == 3


def test_vectorize_direct_count():
    vocabulary, matrix = vectorize([["a", "b"], ["b", "b"]])
    assert list(vocabulary) == ["a", "b"]
    assert (matrix.P, matrix.N) == (2, 2)
    assert _dense(matrix) == [[1, 1], [0, 2]]


def test_vectorize_preserves_empty_rows():
    vocabulary, matrix = vectorize([[], ["x", "x"]])
    assert matrix.rows[0] == {}
    assert matrix.rows[1] == {vocabulary["x"]: 2}


def test_vectorize_empty_vocabulary_raises():
    with pytest.raises(EmptyVocabulary):
        vectorize([[], []])


def test_vectorize_matches_dense_recount():
    token_lists = [["w", "x", "w"], ["y", "z"], ["x", "x", "z", "w"]]
    vocabulary, matrix = vectorize(token_lists)
    assert matrix.N == 4
    for i, tokens in enumerate(token_lists):
        recount = Counter(tokens)
        for term in vocabulary:
            assert matrix.rows[i].get(vocabulary[term], 0) == recount[term]


@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), max_size=8),
        min_size=1,
        max_size=6,
    ).filter(lambda lists: any(lists))
)
def test_mass_and_sparsity_conservation(token_lists):
    vocabulary, matrix = vectorize(token_lists)
    total = sum(sum(row.values()) for row in matrix.rows)
    assert total == sum(len(tokens) for tokens in token_lists)
    dense_nonzero = sum(
        1 for i, tokens in enumerate(token_lists) for _ in Counter(tokens)
    )
    assert sum(len(row) for row in matrix.rows) == dense_nonzero
    assert sum(matrix.column_sums()) == total
    assert sum(matrix.row_sum(i) for i in range(matrix.P)) == total


# --- dense construction ------------------------------------------------


def test_from_dense_roundtrip():
    streams = from_dense([[0, 3], [2, 0]])
    assert streams == [["t1", "t1", "t1"], ["t0", "t0"]]
    vocabulary, matrix = vectorize(streams)
    assert list(vocabulary) == ["t1", "t0"]  # first-occurrence order
    assert _dense(matrix) == [[3, 0], [0, 2]]
    assert matrix.rows[1] == {1: 2}  # zeros are not stored
    # A column of zeros names no term.
    assert vectorize(from_dense([[1, 0, 3], [2, 0, 0]]))[1].N == 2


def test_from_dense_rejects_ragged_input():
    with pytest.raises(ValueError):
        from_dense([[1, 2], [3]])
