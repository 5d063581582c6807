"""Acceptance gate: one test per release criterion, run in order.

Criteria 1-4 pin the scoring and evaluation math against independent
oracles and hand-derived values. Criteria 5-7 run the bundled synthetic
corpus end to end (timing trend, content quality vs the random baseline,
preprocessing invariants). Criteria 8-9 pin the batch determinism and the
selection contract. Each test asserts its own runtime bound and prints a
PASS line (visible with ``pytest -s``).
"""

import json
import math
import random
import time
from itertools import chain
from statistics import mean

import numpy as np
import pytest

from artex.cli import main
from artex.evaluation import (
    NgramProfile,
    evaluation_tokens,
    fresa_report,
    prepare_profile,
)
from artex.preprocess import (
    Lemmatize,
    Raw,
    RawDocument,
    Stem,
    StopList,
    UltraStem,
    clean_token,
    preprocess_document,
    split_sentences,
)
from artex.runner import CorpusSpec, benchmark, benchmark_summary, load_corpus
from artex.scorer import (
    SentenceCount,
    WordRatio,
    random_baseline,
    ranked_indices,
    score,
    score_normalized,
    select,
)
from artex.synthetic import generate_corpus, generate_document, generate_lemma_dictionary
from matrices import from_dense


@pytest.fixture(scope="module")
def random_matrices():
    # 500 random count matrices: P in [1,50], N in [1,200], entries in [0,5],
    # each with its term streams. The scorer sees only the streams, so a
    # column of zeros names no term: N counts the columns that occur.
    rng = np.random.RandomState(1234)
    cases = []
    for _ in range(500):
        p = int(rng.randint(1, 51))
        n = int(rng.randint(1, 201))
        dense = rng.randint(0, 6, size=(p, n))
        cases.append((dense[:, dense.any(axis=0)], from_dense(dense.tolist())))
    return cases


@pytest.fixture(scope="module")
def synthetic_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    generate_corpus(root / "corpus", documents=100, words_per_document=2000, seed=0)
    dictionary = generate_lemma_dictionary(root / "lemmas.tsv", entries=1_000_000, seed=0)
    return CorpusSpec(root=root / "corpus", layout="flat", language="en"), dictionary


def test_criterion_1_rank_equivalence(random_matrices):
    started = time.perf_counter()
    for dense, terms in random_matrices:
        plain = score(terms)
        normalized = score_normalized(terms)
        assert ranked_indices(plain) == ranked_indices(normalized)
        p, n = dense.shape
        factor = math.sqrt(n**5 * p**3) / (n * p)
        for a, b in zip(plain, normalized):
            if b == 0.0:
                assert a == 0.0
            else:
                assert abs(a - b * factor) <= 1e-10 * abs(a)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: rank equivalence on 500 matrices ({elapsed:.2f}s)")


def test_criterion_2_dense_oracle_equivalence(random_matrices):
    started = time.perf_counter()
    for dense, terms in random_matrices:
        p, n = dense.shape
        a = dense.sum(axis=1) / n
        b = dense.sum(axis=0) / p
        want = (dense @ b) * a / (n * p)
        got = score(terms)
        for x, y in zip(got, want):
            if y == 0.0:
                assert x == 0.0
            else:
                assert abs(x - y) <= 1e-12 * abs(y)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: dense-oracle equivalence on 500 matrices ({elapsed:.2f}s)")


def test_criterion_3_hand_check():
    terms = from_dense([[1, 0], [0, 1]])
    assert score(terms) == (0.0625, 0.0625)
    assert score_normalized(terms) == (0.015625, 0.015625)
    print("\nPASS criterion 3: hand-check raw=[0.0625,0.0625], score'=[0.015625,0.015625]")


def test_criterion_4_divergence_identities():
    source = [["a", "b", "a"], ["c", "b", "d"]]
    perfect = fresa_report(source, source)
    assert abs(perfect.f_avg - 1.0) <= 1e-12
    empty = fresa_report(source, [])
    assert (empty.f1, empty.f2, empty.f_su4) == (0.0, 0.0, 0.0)
    single = NgramProfile(counts={("a",): 1}, total=1)
    d = prepare_profile(single).empty_divergence
    assert abs(d - math.log(2)) <= 1e-12
    print("\nPASS criterion 4: f_avg(source,source)=1, empty summary=0, single-term=log 2")


def test_criterion_5_normalization_timing_trend(synthetic_corpus):
    spec, dictionary = synthetic_corpus
    started = time.perf_counter()
    modes = [UltraStem(1), Stem(), Lemmatize(dictionary)]
    records = benchmark(spec, modes, repetitions=5)
    medians = {
        row["normalization"]: row["median_seconds"] for row in benchmark_summary(records)
    }
    assert medians["fix1"] < medians["stem"] < medians["lemma"]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 5: median totals fix1 {medians['fix1']:.3f}s"
        f" < stem {medians['stem']:.3f}s < lemma {medians['lemma']:.3f}s ({elapsed:.1f}s)"
    )


def test_criterion_6_beats_random_baseline(synthetic_corpus):
    spec, _ = synthetic_corpus
    started = time.perf_counter()
    stoplist = StopList.bundled("en")
    budget = WordRatio(0.2)
    artex_scores = []
    random_scores = []
    for raw in load_corpus(spec):
        doc = preprocess_document(raw, stoplist, Stem().normalizer("en"))
        summary = select(score(doc.terms), doc.sentences, budget)
        source = evaluation_tokens(raw.text, "en", stoplist)
        artex_scores.append(
            fresa_report(source, evaluation_tokens(summary.text, "en", stoplist)).f_avg
        )
        for seed in range(20):
            sampled = random_baseline(doc.sentences, budget, seed=seed)
            random_scores.append(
                fresa_report(source, evaluation_tokens(sampled.text, "en", stoplist)).f_avg
            )
    assert len(artex_scores) >= 30
    assert mean(artex_scores) > mean(random_scores)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 6: mean f_avg artex {mean(artex_scores):.4f}"
        f" > random {mean(random_scores):.4f} over {len(artex_scores)} docs"
        f" x 20 seeds ({elapsed:.1f}s)"
    )


def test_criterion_7_preprocessing_invariants(synthetic_corpus):
    spec, _ = synthetic_corpus
    started = time.perf_counter()
    stoplist = StopList.bundled("en")
    from collections import Counter

    for raw in load_corpus(spec):
        recount = Counter(
            cleaned
            for sentence in split_sentences(raw)
            for token in sentence.tokens
            if (cleaned := clean_token(token))
        )
        vocabulary = {}
        for label, mode in (
            ("raw", Raw()),
            ("fix1", UltraStem(1)),
            ("fix2", UltraStem(2)),
            ("stem", Stem()),
        ):
            doc = preprocess_document(raw, stoplist, mode.normalizer(raw.language))
            vocabulary[label] = len(set(chain.from_iterable(doc.terms)))
            if label == "raw":
                for stream in doc.terms:
                    for token in stream:
                        assert token not in stoplist
                        assert recount[token] >= 2
            if label.startswith("fix"):
                n = int(label[3:])
                for stream in doc.terms:
                    assert all(len(token) <= n for token in stream)
        assert vocabulary["fix1"] <= vocabulary["fix2"] <= vocabulary["stem"]
        assert vocabulary["fix2"] <= vocabulary["raw"]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 7: filter soundness + vocabulary ordering on 100 docs ({elapsed:.1f}s)")


def test_criterion_8_batch_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for number in range(6):
        text = generate_document(1, number, words=400)
        (corpus / f"doc_{number}.txt").write_text(text, encoding="utf-8")
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        args = [
            "batch", str(corpus),
            "--systems", "artex,lead,random",
            "--norm", "stem",
            "--budget", "ratio:0.2",
            "--seed", "5",
            "--out", str(out),
        ]
        assert main(args) == 0
        blob = (out / "report.jsonl").read_bytes()
        for path in sorted(out.rglob("*.summary.txt")):
            blob += path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes()
        blobs.append(blob)
    assert blobs[0] == blobs[1]
    print("\nPASS criterion 8: two batch runs byte-identical (timing fields excluded)")


def test_criterion_9_summary_contract():
    from artex.preprocess import Sentence

    rng = random.Random(99)
    for case in range(200):
        p = rng.randint(1, 40)
        raw = tuple(rng.randint(0, 5) / 5 for _ in range(p))
        words = [rng.randint(3, 12) for _ in range(p)]
        sentences = [Sentence(surface=" ".join(["w"] * k), tokens=("w",) * k) for k in words]
        if case % 2:
            budget = SentenceCount(rng.randint(1, p + 2))
        else:
            budget = WordRatio(rng.uniform(0.05, 1.0))
        summary = select(raw, sentences, budget)
        selected = summary.selected
        assert all(a < b for a, b in zip(selected, selected[1:]))
        order = ranked_indices(raw)
        # Ties resolve toward the earlier index in the ranking itself.
        for a, b in zip(order, order[1:]):
            if raw[a] == raw[b]:
                assert a < b
        if isinstance(budget, SentenceCount):
            assert len(selected) == min(budget.k, p)
            assert sorted(order[: len(selected)]) == list(selected)
        else:
            m = len(selected)
            assert sorted(order[:m]) == list(selected)
            target = budget.ratio * sum(words)
            chosen_words = sum(len(sentences[i].tokens) for i in order[:m])
            assert chosen_words >= target
            if m > 1:
                below = sum(len(sentences[i].tokens) for i in order[: m - 1])
                assert below < target
    print("\nPASS criterion 9: selection contract on 200 random score vectors")
