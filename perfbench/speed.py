"""Machine speed, from a fixed reference workload timed next to every sample.

The 2-core machines this benchmark was written on share their cores with
other tenants, and their speed drifts by 20-40% within seconds: the same
artex work timed back to back over 90 s had an interquartile range of 40% of
its median. So every end-to-end time is scaled by the speed of the machine at
the moment it was taken: the reference workload is timed just before and
just after each stretch of measured work (a batch pass, one benchmark() call,
25 CLI documents), and every time in the stretch is multiplied by
NOMINAL_S / (mean of the two reference times). The result reads as seconds on
a machine where the reference takes NOMINAL_S. The reference does the same
kind of work as artex (string splitting and case folding, dict and Counter
updates, tuple churn) on a fixed text of its own, so it slows down with artex
but never changes with it; scaled this way the same 90 s of work had an
interquartile range of 13%. The unscaled values are kept in the run record.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter

NOMINAL_S = 0.004


def _text() -> str:
    rng = random.Random(20121014)
    syllables = [c + v for c in "bcdfglmnprstv" for v in "aeiou"]
    return " ".join(
        "".join(rng.choices(syllables, k=rng.randint(1, 4))) + rng.choice(("", "", ".", ","))
        for _ in range(5000)
    )


TEXT = _text()


def reference_seconds() -> float:
    started = time.perf_counter()
    words = [word.strip(".,").casefold() for word in TEXT.split()]
    counts = Counter(words)
    pairs = Counter(zip(words, words[1:]))
    prefixes = {word: word[:5] for word in counts}
    sum(len(a) + len(prefixes[b]) for a, b in pairs)
    return time.perf_counter() - started


class Scaler:
    """Scales the times added between two marks by the reference speed at both."""

    def __init__(self) -> None:
        self.measured: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float]] = []
        self._before = 0.0

    def mark(self) -> None:
        """Time the reference and scale every time added since the last mark."""
        now = statistics.median(reference_seconds() for _ in range(3))
        factor = 2 * NOMINAL_S / (self._before + now)
        for name, value in self._pending:
            self.scaled.setdefault(name, []).append(value * factor)
        self._pending.clear()
        self._before = now

    def add(self, name: str, value: float) -> None:
        self.measured.setdefault(name, []).append(value)
        self._pending.append((name, value))
