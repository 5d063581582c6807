import math
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import artex.evaluation
from artex.baselines import lead_baseline, random_baseline
from artex.errors import EmptySource
from artex.evaluation import (
    Bigram,
    DivergenceReport,
    NgramProfile,
    SkipBigram,
    SourceProfile,
    Unigram,
    evaluation_tokens,
    fresa_report,
    ngram_profile,
    prepare_profile,
    prepare_source,
    stem_types,
)
from artex.preprocess import (
    RawDocument,
    Stem,
    clean_document,
    normalize_document,
    preprocess_document,
)
from artex.scorer import SentenceCount, WordRatio, score, select
from artex.stemming import stemmer_for
from artex.synthetic import generate_document
from artex.vsm import vectorize

token_lists = st.lists(st.sampled_from("abcd"), max_size=8)
segment_lists = st.lists(st.lists(st.sampled_from("abcde"), max_size=7), max_size=6)
source_segments = segment_lists.filter(lambda segments: any(len(s) >= 2 for s in segments))


def _profile(counts: dict, order) -> NgramProfile:
    return NgramProfile(order=order, counts=counts, total=sum(counts.values()))


# --- n-gram profiles ---------------------------------------------------------


def test_bigram_consecutive_pairs():
    profile = ngram_profile([["a", "b", "c"]], Bigram())
    assert profile.counts == {("a", "b"): 1, ("b", "c"): 1}
    assert profile.total == 2


def test_bigram_under_length_input():
    profile = ngram_profile([["a"]], Bigram())
    assert profile.counts == {} and profile.total == 0


def test_skip_bigram_matches_pair_enumeration():
    tokens = ["a", "b", "c", "d"]
    profile = ngram_profile([tokens], SkipBigram(4))
    expected = Counter(
        (tokens[i], tokens[i + g])
        for i in range(len(tokens))
        for g in range(1, 5)
        if i + g < len(tokens)
    )
    assert profile.counts == dict(expected)
    assert profile.total == 6


def test_ngrams_do_not_cross_segment_boundaries():
    segments = [["a", "b"], ["c", "d", "e"]]
    bigrams = ngram_profile(segments, Bigram())
    assert ("b", "c") not in bigrams.counts
    assert bigrams.total == 3
    skips = ngram_profile(segments, SkipBigram(4))
    assert all(pair[0] != "a" or pair[1] in ("b",) for pair in skips.counts)


def test_unigram_total_spans_segments():
    profile = ngram_profile([["a", "b"], ["a"]], Unigram())
    assert profile.counts == {("a",): 2, ("b",): 1}
    assert profile.total == 3


def test_flat_token_list_raises_type_error():
    # Read as segments, each string of a flat list would be counted as
    # character n-grams.
    for order in (Unigram(), Bigram(), SkipBigram(4)):
        with pytest.raises(TypeError):
            ngram_profile(["ab", "cd"], order)
        assert ngram_profile([], order).total == 0


def test_fresa_report_rejects_flat_streams():
    with pytest.raises(TypeError):
        fresa_report(["a", "b", "a"], [["a"]])
    with pytest.raises(TypeError):
        fresa_report([["a", "b", "a"]], ["a"])


def test_skip_bigram_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        SkipBigram(0)


@given(token_lists, st.integers(min_value=1, max_value=5))
def test_skip_bigram_property_enumeration(tokens, gap):
    profile = ngram_profile([tokens], SkipBigram(gap))
    expected = Counter(
        (tokens[i], tokens[i + g])
        for i in range(len(tokens))
        for g in range(1, gap + 1)
        if i + g < len(tokens)
    )
    assert profile.counts == dict(expected)
    assert profile.total == sum(expected.values())


def _per_position_units(segments, order) -> list:
    # The per-position loop that counted units before each order had its
    # own units(): every unit that starts at position i, for i in order.
    counts: Counter = Counter()
    for segment in segments:
        for i, first in enumerate(segment):
            if isinstance(order, Unigram):
                counts[(first,)] += 1
            elif isinstance(order, Bigram):
                if i + 1 < len(segment):
                    counts[(first, segment[i + 1])] += 1
            else:
                for second in segment[i + 1 : i + 1 + order.max_gap]:
                    counts[(first, second)] += 1
    return list(counts.items())


all_orders = st.sampled_from(
    [Unigram(), Bigram()] + [SkipBigram(gap) for gap in range(1, 6)]
)


@given(segment_lists, all_orders)
@example([[], ["a", "b"], []], SkipBigram(5))
@example([["a"], ["b", "a", "b"]], SkipBigram(4))
def test_profile_keys_units_in_first_occurrence_order(segments, order):
    # Every divergence adds its terms in profile order, so the order of the
    # keys, not only the counts, must match the per-position loop.
    profile = ngram_profile(segments, order)
    assert list(profile.counts.items()) == _per_position_units(segments, order)
    assert profile.total == sum(profile.counts.values())


# --- divergence ----------------------------------------------------------------


def test_divergence_sums_left_to_right_in_plain_float_arithmetic(monkeypatch):
    # 1e-16 is below half an ulp of 1.0, so each plain addition rounds back
    # to 1.0; compensated summation (math.fsum, and sum() from Python 3.12)
    # gives 1.000000000000001 and would move report.jsonl's last digits.
    # The module's sum() is made compensated here, as it is on 3.12, so that
    # a divergence summed with sum() fails on every Python version.
    terms = (1.0,) + (1e-16,) * 10
    assert math.fsum(terms) == 1.000000000000001
    monkeypatch.setattr(artex.evaluation, "sum", math.fsum, raising=False)
    source = SourceProfile(
        order=Unigram(),
        index={(str(i),): i for i in range(len(terms))},
        terms=terms,
        empty_divergence=1.0,
    )
    assert source.divergence(_profile({}, Unigram())) == 1.0
    assert source.divergence(_profile({("foreign",): 3}, Unigram())) == 1.0


def test_divergence_of_identical_profiles_is_zero():
    profile = _profile({("a",): 2, ("b",): 1}, Unigram())
    assert prepare_profile(profile).divergence(profile) == 0.0


def test_divergence_single_term_empty_summary_is_log_two():
    source = _profile({("a",): 1}, Unigram())
    empty = _profile({}, Unigram())
    assert prepare_profile(source).divergence(empty) == pytest.approx(math.log(2), rel=1e-12)


def test_divergence_matches_per_term_oracle():
    source = _profile({("a",): 3, ("b",): 1, ("c",): 2}, Unigram())
    summary = _profile({("a",): 1, ("c",): 4, ("d",): 2}, Unigram())
    expected = sum(
        abs(math.log1p(c / source.total) - math.log1p(summary.counts.get(t, 0) / summary.total))
        for t, c in source.counts.items()
    )
    assert prepare_profile(source).divergence(summary) == pytest.approx(expected, rel=1e-12)


def test_divergence_requires_nonempty_source():
    with pytest.raises(EmptySource):
        prepare_profile(_profile({}, Unigram()))


@given(token_lists.filter(bool), token_lists)
def test_divergence_nonnegative(source_tokens, summary_tokens):
    source = ngram_profile([source_tokens], Unigram())
    summary = ngram_profile([summary_tokens], Unigram())
    assert prepare_profile(source).divergence(summary) >= 0.0


def test_empty_summary_is_maximal_among_nonexcess_summaries():
    # Enumerate all small summaries whose per-type proportion does not
    # exceed the source proportion; none diverges more than the empty one.
    source_tokens = ["a", "a", "a", "b", "b", "c"]
    source = ngram_profile([source_tokens], Unigram())
    prepared = prepare_profile(source)
    d_empty = prepared.divergence(_profile({}, Unigram()))
    for size in range(1, 7):
        for summary_tokens in combinations_with_replacement("abc", size):
            counts = Counter(summary_tokens)
            if any(
                counts[t] / size > source.counts[(t,)] / source.total for t in counts
            ):
                continue
            d = prepared.divergence(ngram_profile([list(summary_tokens)], Unigram()))
            assert d <= d_empty


# --- report --------------------------------------------------------------------


def test_report_perfect_copy_scores_one():
    tokens = [["a", "b", "a"], ["c", "b"]]
    report = fresa_report(tokens, tokens)
    assert (report.d1, report.d2, report.d_su4) == (0.0, 0.0, 0.0)
    assert (report.f1, report.f2, report.f_su4, report.f_avg) == (1.0, 1.0, 1.0, 1.0)


def test_report_empty_summary_scores_zero():
    report = fresa_report([["a", "b", "a"], ["c", "b"]], [])
    assert (report.f1, report.f2, report.f_su4, report.f_avg) == (0.0, 0.0, 0.0, 0.0)


def test_report_values_clamped_to_unit_interval():
    # A summary wildly over-representing one rare type can push the raw
    # divergence past the empty-summary anchor; scores must stay in [0,1].
    source = [["a"] * 9 + ["b"]]
    summary = [["b"] * 30]
    report = fresa_report(source, summary)
    for value in (report.f1, report.f2, report.f_su4, report.f_avg):
        assert 0.0 <= value <= 1.0


def test_report_deterministic():
    source = [["a", "b"], ["c", "a"]]
    summary = [["a", "b"]]
    assert fresa_report(source, summary) == fresa_report(source, summary)


def test_report_fields_roundtrip():
    report = fresa_report([["a", "b"]], [["a"]])
    assert tuple(report.as_dict()) == ("d1", "d2", "d_su4", "f1", "f2", "f_su4", "f_avg")


ORACLE_DOC = (
    "The reactor core heats the coolant loop. "
    "Coolant flows from the core to the heat exchanger. "
    "Operators watch the loop pressure all day! "
    "The exchanger transfers heat into the steam line. "
    "Steam pressure drives the turbine and the turbine spins? "
    "The coolant returns to the reactor core cooled."
)


def test_report_matches_naive_end_to_end_oracle(stoplist_en):
    # Independent reimplementation, from raw text to report, for the lead-2
    # summary of a six-sentence document.
    lead_two = "The reactor core heats the coolant loop. Coolant flows from the core to the heat exchanger."
    source_segments = _naive_tokenize(ORACLE_DOC, stoplist_en)
    summary_segments = _naive_tokenize(lead_two, stoplist_en)
    report = fresa_report(
        evaluation_tokens(ORACLE_DOC, "en", stoplist_en),
        evaluation_tokens(lead_two, "en", stoplist_en),
    )
    for name, (make_units,) in {
        "1": (_unigrams,),
        "2": (_bigrams,),
        "_su4": (_skip_bigrams,),
    }.items():
        d, f = _naive_metric(source_segments, summary_segments, make_units)
        assert getattr(report, f"d{name}") == pytest.approx(d, rel=1e-12)
        assert getattr(report, f"f{name}") == pytest.approx(f, rel=1e-12)
    f_expected = (report.f1 + report.f2 + report.f_su4) / 3.0
    assert report.f_avg == pytest.approx(f_expected, rel=1e-12)


def _naive_tokenize(text: str, stoplist) -> list[list[str]]:
    segments = []
    for chunk in text.replace("!", ".").replace("?", ".").split("."):
        tokens = []
        for word in chunk.split():
            word = word.casefold().strip("(),:;'\"-")
            if word and any(c.isalnum() for c in word) and word not in stoplist:
                tokens.append(stemmer_for("en")(word))
        if tokens:
            segments.append(tokens)
    return segments


def _unigrams(segment):
    return [(t,) for t in segment]


def _bigrams(segment):
    return list(zip(segment, segment[1:]))


def _skip_bigrams(segment):
    return [
        (segment[i], segment[i + g])
        for i in range(len(segment))
        for g in (1, 2, 3, 4)
        if i + g < len(segment)
    ]


def _naive_metric(source_segments, summary_segments, make_units):
    source = Counter(u for s in source_segments for u in make_units(s))
    summary = Counter(u for s in summary_segments for u in make_units(s))
    nt, ns = sum(source.values()), sum(summary.values())
    d = sum(
        abs(math.log1p(c / nt) - (math.log1p(summary[u] / ns) if ns else 0.0))
        for u, c in source.items()
    )
    d_empty = sum(math.log1p(c / nt) for c in source.values())
    return d, min(1.0, max(0.0, 1.0 - d / d_empty))


# --- evaluation token extraction -------------------------------------------------


def test_evaluation_tokens_stems_and_keeps_hapax(stoplist_en):
    segments = evaluation_tokens("The cats sat. The cats ran.", "en", stoplist_en)
    assert segments == [["cat", "sat"], ["cat", "ran"]]


def test_evaluation_tokens_empty_text_yields_no_segments(stoplist_en):
    assert evaluation_tokens("", "en", stoplist_en) == []
    assert evaluation_tokens("...", "en", stoplist_en) == []


def test_evaluation_tokens_default_stoplist(small_doc_text, stoplist_en):
    assert evaluation_tokens(small_doc_text, "en") == evaluation_tokens(
        small_doc_text, "en", stoplist_en
    )


def test_evaluation_tokens_segment_per_sentence(small_doc_text, stoplist_en):
    segments = evaluation_tokens(small_doc_text, "en", stoplist_en)
    assert len(segments) == 6


# --- independent oracle for the evaluator ----------------------------------------

_UNIT_MAKERS = {"1": _unigrams, "2": _bigrams, "_su4": _skip_bigrams}


@given(source_segments, segment_lists)
def test_report_matches_counter_reference(source, summary):
    report = fresa_report(source, summary)
    for name, make_units in _UNIT_MAKERS.items():
        d, f = _naive_metric(source, summary, make_units)
        assert getattr(report, f"d{name}") == pytest.approx(d, rel=1e-12, abs=1e-15)
        assert getattr(report, f"f{name}") == pytest.approx(f, rel=1e-12, abs=1e-15)


@given(source_segments, segment_lists)
def test_report_scores_stay_in_unit_interval(source, summary):
    report = fresa_report(source, summary)
    for value in (report.f1, report.f2, report.f_su4, report.f_avg):
        assert 0.0 <= value <= 1.0


@given(source_segments, segment_lists, st.randoms(use_true_random=False))
def test_reordering_summary_sentences_keeps_f1(source, summary, rng):
    shuffled = list(summary)
    rng.shuffle(shuffled)
    assert fresa_report(source, shuffled).f1 == fresa_report(source, summary).f1


def _direct_divergence(source: NgramProfile, summary: NgramProfile) -> float:
    # The divergence loop as written before source profiles were prepared.
    result = 0.0
    for unit, count in source.counts.items():
        source_term = math.log1p(count / source.total)
        summary_count = summary.counts.get(unit, 0)
        summary_term = math.log1p(summary_count / summary.total) if summary.total else 0.0
        result += abs(source_term - summary_term)
    return result


def _direct_report(source_tokens, summary_tokens) -> DivergenceReport:
    raw, normalized = [], []
    for order in (Unigram(), Bigram(), SkipBigram(4)):
        source = ngram_profile(source_tokens, order)
        summary = ngram_profile(summary_tokens, order)
        d = _direct_divergence(source, summary)
        d_empty = _direct_divergence(source, NgramProfile(order=order, counts={}, total=0))
        raw.append(d)
        normalized.append(min(1.0, max(0.0, 1.0 - d / d_empty)))
    f1, f2, f_su4 = normalized
    return DivergenceReport(raw[0], raw[1], raw[2], f1, f2, f_su4, (f1 + f2 + f_su4) / 3.0)


@given(source_segments, segment_lists)
def test_prepared_path_equals_direct_formula_bit_for_bit(source, summary):
    assert fresa_report(source, summary) == _direct_report(source, summary)
    for order in (Unigram(), Bigram(), SkipBigram(4)):
        source_profile = ngram_profile(source, order)
        summary_profile = ngram_profile(summary, order)
        expected = _direct_divergence(source_profile, summary_profile)
        prepared = prepare_profile(source_profile)
        assert prepared.divergence(summary_profile) == expected
        empty = NgramProfile(order=order, counts={}, total=0)
        assert prepared.empty_divergence == _direct_divergence(source_profile, empty)


def test_prepare_profile_rejects_empty_source():
    with pytest.raises(EmptySource):
        prepare_profile(ngram_profile([["a"]], Bigram()))


# --- prepared sources --------------------------------------------------------------


def _prepared(text: str, stoplist):
    cleaned = clean_document(RawDocument(id="d", text=text, language="en"), stoplist)
    stems = stem_types(cleaned)
    return cleaned, stems, prepare_source(cleaned, stems)


def test_extract_segments_equal_evaluation_tokens_of_summaries(stoplist_en):
    # Every (document, system) of a synthetic corpus, as the batch runs them.
    for number in range(12):
        text = generate_document(31, number, words=300)
        cleaned, stems, source = _prepared(text, stoplist_en)
        assert [list(s) for s in source.segments] == evaluation_tokens(text, "en", stoplist_en)
        doc = normalize_document(cleaned, stems.__getitem__)
        _, matrix = vectorize(doc.sentences)
        for budget in (WordRatio(0.2), SentenceCount(1), SentenceCount(4)):
            summaries = [
                select(score(matrix), doc.sentences, budget),
                lead_baseline(doc.sentences, budget),
                random_baseline(doc.sentences, budget, number),
            ]
            for summary in summaries:
                expected = evaluation_tokens(summary.text, "en", stoplist_en)
                assert source.extract_segments(summary.selected) == expected
                assert source.evaluate(summary.selected) == fresa_report(
                    evaluation_tokens(text, "en", stoplist_en), expected
                )


def test_extract_without_letters_has_no_segments(stoplist_en):
    # "2024." is a sentence of the source, but alone it is no sentence at all.
    text = "2024. Solar panels store power. Solar panels feed power grids."
    _, _, source = _prepared(text, stoplist_en)
    assert source.segments[0] == ["2024"]
    lead = lead_baseline(source.sentences, SentenceCount(1))
    assert lead.text == "2024."
    assert evaluation_tokens(lead.text, "en", stoplist_en) == []
    assert source.extract_segments(lead.selected) == []
    assert source.extract_segments((0, 1)) == evaluation_tokens(
        "2024. Solar panels store power.", "en", stoplist_en
    )
    assert source.evaluate(()).f_avg == 0.0


def test_stem_mode_reads_the_shared_stems(small_doc_text, stoplist_en):
    raw = RawDocument(id="d", text=small_doc_text, language="en")
    cleaned = clean_document(raw, stoplist_en)
    stems = {token: token.upper() for token in cleaned.frequencies}
    doc = normalize_document(cleaned, stems.__getitem__)
    assert "PANELS" in doc.sentences[0].tokens
    stem = Stem().normalizer("en")
    assert normalize_document(cleaned, stem) == preprocess_document(raw, stoplist_en, stem)
