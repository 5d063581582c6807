from collections import Counter

from artex.baselines import lead_baseline, random_baseline
from artex.preprocess import Sentence
from artex.scorer import SentenceCount, WordRatio, score, select
from artex.vsm import vectorize


def _sentences(word_counts):
    return [
        Sentence(index=i, surface=" ".join(["w"] * k), tokens=())
        for i, k in enumerate(word_counts)
    ]


# --- lead ---------------------------------------------------------------


def test_lead_takes_prefix():
    summary = lead_baseline(_sentences([4] * 5), SentenceCount(2))
    assert summary.selected == (0, 1)


def test_lead_clamps_to_document():
    assert lead_baseline(_sentences([4]), SentenceCount(3)).selected == (0,)


def test_lead_word_ratio_prefix():
    # 4+4 = 8 of 16 words reaches the 0.5 target exactly.
    summary = lead_baseline(_sentences([4, 4, 4, 4]), WordRatio(0.5))
    assert summary.selected == (0, 1)


def test_lead_text_in_source_order():
    sentences = [
        Sentence(index=0, surface="One.", tokens=()),
        Sentence(index=1, surface="Two.", tokens=()),
        Sentence(index=2, surface="Three.", tokens=()),
    ]
    assert lead_baseline(sentences, SentenceCount(2)).text == "One. Two."


# --- random -------------------------------------------------------------


def test_random_is_deterministic_per_seed():
    sentences = _sentences([4] * 9)
    first = random_baseline(sentences, SentenceCount(3), seed=123)
    second = random_baseline(sentences, SentenceCount(3), seed=123)
    assert first == second


def test_random_seeds_differ():
    sentences = _sentences([4] * 30)
    picks = {random_baseline(sentences, SentenceCount(3), seed=s).selected for s in range(8)}
    assert len(picks) > 1


def test_random_exhaustive_budget_selects_all():
    sentences = _sentences([4] * 6)
    summary = random_baseline(sentences, SentenceCount(6), seed=0)
    assert summary.selected == (0, 1, 2, 3, 4, 5)


def test_random_selected_strictly_increasing():
    sentences = _sentences([3, 5, 4, 6, 2, 7, 3])
    for seed in range(20):
        selected = random_baseline(sentences, WordRatio(0.4), seed=seed).selected
        assert all(a < b for a, b in zip(selected, selected[1:]))


def test_random_single_pick_uniform_over_seeds():
    # k=1 over 10^4 seeds: each of 5 sentences is expected 2000 times with
    # sigma = sqrt(10^4 * 0.2 * 0.8) = 40; demand every count within 3 sigma.
    sentences = _sentences([4] * 5)
    counts = Counter(
        random_baseline(sentences, SentenceCount(1), seed=seed).selected[0]
        for seed in range(10_000)
    )
    assert set(counts) == {0, 1, 2, 3, 4}
    for index in range(5):
        assert abs(counts[index] - 2000) <= 120


# --- word counts ----------------------------------------------------------


def test_systems_split_each_surface_once():
    # artex, lead and random each select under a word budget from the same
    # sentences, as the batch runs them; the surfaces are split once in all.
    splits = []

    class Surface(str):
        def split(self, *args, **kwargs):
            splits.append(str(self))
            return super().split(*args, **kwargs)

    surfaces = [f"Sentence {i} has {'more ' * i}words." for i in range(8)]
    sentences = [
        Sentence(index=i, surface=Surface(text), tokens=("w", f"t{i % 3}"))
        for i, text in enumerate(surfaces)
    ]
    _, matrix = vectorize(sentences)
    budget = WordRatio(0.3)
    select(score(matrix), sentences, budget)
    lead_baseline(sentences, budget)
    random_baseline(sentences, budget, seed=1)
    assert sorted(splits) == sorted(surfaces)
