"""Dense construction of sentence-term matrices for tests.

``vectorize`` is the only constructor the package needs; tests that state a
matrix by its counts build it here.
"""

from typing import Sequence

from artex.vsm import SentenceTermMatrix


def from_dense(counts: Sequence[Sequence[int]]) -> SentenceTermMatrix:
    """Build a matrix from dense nested lists; zeros are not stored."""
    n = len(counts[0]) if counts else 0
    rows = []
    for dense_row in counts:
        if len(dense_row) != n:
            raise ValueError("ragged count matrix")
        rows.append({j: int(c) for j, c in enumerate(dense_row) if c})
    return SentenceTermMatrix(P=len(counts), N=n, rows=tuple(rows))
