import concurrent.futures
import csv
import hashlib
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import artex.evaluation
import artex.preprocess
import artex.runner
import artex.stemming
from artex.errors import CorpusEmpty, CorpusError, EmptyDocument
from artex.preprocess import (
    Lemmatize,
    Raw,
    Stem,
    StopList,
    UltraStem,
    clean_token,
    preprocess_document,
    split_sentences,
)
from artex.runner import (
    CorpusSpec,
    RunConfig,
    TimingRecord,
    benchmark,
    benchmark_summary,
    document_seed,
    load_corpus,
    parse_mode,
    run_corpus,
)
from artex.scorer import SentenceCount, WordRatio
from artex.synthetic import generate_document


@pytest.fixture()
def flat_corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for number in range(3):
        text = generate_document(11, number, words=250)
        (root / f"doc_{number}.txt").write_text(text, encoding="utf-8")
    return root


# --- mode parsing --------------------------------------------------------


@pytest.mark.parametrize(
    "label,kind,n",
    [("raw", "raw", None), ("stem", "stem", None), ("fix:3", "fix", 3), ("STEM", "stem", None)],
)
def test_parse_mode_accepts_labels(label, kind, n):
    mode = parse_mode(label)
    assert (mode.label, getattr(mode, "n", None)) == (f"{kind}{n or ''}", n)


@pytest.mark.parametrize(
    "mode,label",
    [(Raw(), "raw"), (Stem(), "stem"), (Lemmatize("lemmas.tsv"), "lemma"),
     (UltraStem(1), "fix1"), (UltraStem(6), "fix6")],
)
def test_parse_mode_round_trips_labels(mode, label):
    assert mode.label == label
    parsed = parse_mode(label.replace("fix", "fix:"), "lemmas.tsv")
    assert parsed == mode
    assert parsed.label == label


def test_parse_mode_lemma_keeps_dictionary_path(tmp_path):
    path = tmp_path / "lemmas.tsv"
    assert parse_mode("lemma", path) == Lemmatize(path)
    assert parse_mode("stem", path) == Stem()  # ignored by the other modes


@pytest.mark.parametrize("label", ["fix:0", "fix:x", "bogus", "fix:"])
def test_parse_mode_rejects_bad_labels(label):
    with pytest.raises(ValueError):
        parse_mode(label)


# --- corpus loading ------------------------------------------------------


def test_load_corpus_flat_sorted_ids(flat_corpus):
    documents = load_corpus(CorpusSpec(root=flat_corpus))
    assert [d.id for d in documents] == ["doc_0", "doc_1", "doc_2"]
    assert all(d.language == "en" for d in documents)


def test_load_corpus_skips_unusable_files(flat_corpus, caplog):
    (flat_corpus / "empty.txt").write_text("   \n", encoding="utf-8")
    (flat_corpus / "binary.txt").write_bytes(b"\xff\xfe\x00junk\xff")
    (flat_corpus / ".hidden.txt").write_text("Hidden.", encoding="utf-8")
    documents = load_corpus(CorpusSpec(root=flat_corpus))
    assert [d.id for d in documents] == ["doc_0", "doc_1", "doc_2"]


def test_load_corpus_rejects_duplicate_ids(flat_corpus):
    (flat_corpus / "doc_1.md").write_text("Another doc one.", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"doc_1\.md") as caught:
        load_corpus(CorpusSpec(root=flat_corpus))
    assert "doc_1.txt" in str(caught.value)


def test_load_corpus_clusters_concatenate_in_filename_order(tmp_path):
    cluster = tmp_path / "c1"
    cluster.mkdir()
    (cluster / "b.txt").write_text("Second part here.", encoding="utf-8")
    (cluster / "a.txt").write_text("First part here.", encoding="utf-8")
    documents = load_corpus(CorpusSpec(root=tmp_path, layout="clusters"))
    assert len(documents) == 1
    assert documents[0].id == "c1"
    assert documents[0].text == "First part here.\nSecond part here."


def test_load_corpus_empty_raises(tmp_path):
    with pytest.raises(CorpusEmpty):
        load_corpus(CorpusSpec(root=tmp_path))
    with pytest.raises(CorpusEmpty):
        load_corpus(CorpusSpec(root=tmp_path / "missing"))


def test_corpus_spec_rejects_unknown_layout(tmp_path):
    with pytest.raises(ValueError):
        CorpusSpec(root=tmp_path, layout="nested")


# --- run configuration ----------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(systems=("artex", "nope"))
    with pytest.raises(ValueError):
        RunConfig(systems=())
    with pytest.raises(ValueError):
        RunConfig(workers=0)


def test_document_seed_is_stable_and_distinct():
    expected = int.from_bytes(hashlib.sha256(b"0:doc_0").digest()[:8], "big")
    assert document_seed(0, "doc_0") == expected
    assert document_seed(0, "doc_0") != document_seed(0, "doc_1")
    assert document_seed(0, "doc_0") != document_seed(1, "doc_0")


# --- batch runs -------------------------------------------------------------


def test_run_corpus_minimal_batch(flat_corpus, tmp_path):
    out = tmp_path / "out"
    cfg = RunConfig(
        normalization=UltraStem(1),
        budget=SentenceCount(2),
        systems=("artex",),
        out_dir=out,
    )
    results = run_corpus(CorpusSpec(root=flat_corpus), cfg)
    assert len(results) == 3
    for result in results:
        path = out / "artex" / "fix1" / f"{result.doc_id}.summary.txt"
        assert path.read_text(encoding="utf-8") == result.summary.text + "\n"
    lines = (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert record["doc_id"] == "doc_0"
    assert record["system"] == "artex"
    assert record["normalization"] == "fix1"
    assert set(record) == {"doc_id", "system", "normalization",
                           "d1", "d2", "d_su4", "f1", "f2", "f_su4", "f_avg"}
    with open(out / "timings.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(TimingRecord.CSV_COLUMNS)
    assert len(rows) == 4


def test_run_corpus_all_systems_and_timing(flat_corpus, tmp_path):
    out = tmp_path / "out"
    cfg = RunConfig(
        normalization=Stem(),
        budget=WordRatio(0.2),
        systems=("artex", "lead", "random"),
        out_dir=out,
    )
    results = run_corpus(CorpusSpec(root=flat_corpus), cfg)
    assert len(results) == 9
    assert {r.system for r in results} == {"artex", "lead", "random"}
    with open(out / "timings.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(TimingRecord.CSV_COLUMNS)
    assert len(rows) == 10
    for result in results:
        timing = result.timing
        assert timing.total_seconds == timing.preprocess_seconds + timing.score_seconds


def test_rerun_timings_name_only_this_runs_documents(flat_corpus, tmp_path):
    # A timings row left from an earlier run would name a document this run lacks.
    out = tmp_path / "out"
    spec = CorpusSpec(root=flat_corpus)
    run_corpus(spec, RunConfig(out_dir=out))
    (flat_corpus / "doc_2.txt").unlink()
    run_corpus(spec, RunConfig(out_dir=out))
    with open(out / "timings.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["corpus_id"] for row in rows] == ["doc_0", "doc_1"]


def test_rerun_removes_the_summaries_it_did_not_write(flat_corpus, tmp_path):
    # A summary left from an earlier run would name a document this run lacks.
    out = tmp_path / "out"
    cfg = RunConfig(systems=("artex", "lead", "random"), out_dir=out)
    run_corpus(CorpusSpec(root=flat_corpus), cfg)
    assert len(list(out.glob("*/stem/doc_2.summary.txt"))) == 3
    notes = out / "artex" / "stem" / "notes.txt"
    notes.write_text("kept", encoding="utf-8")
    elsewhere = out / "drafts" / "stem" / "doc_2.summary.txt"
    elsewhere.parent.mkdir(parents=True)
    elsewhere.write_text("kept", encoding="utf-8")
    (flat_corpus / "doc_2.txt").unlink()
    run_corpus(CorpusSpec(root=flat_corpus), cfg)
    summaries = sorted(
        path.relative_to(out).as_posix() for path in out.glob("*/*/*.summary.txt")
    )
    assert summaries == [
        "artex/stem/doc_0.summary.txt",
        "artex/stem/doc_1.summary.txt",
        "drafts/stem/doc_2.summary.txt",
        "lead/stem/doc_0.summary.txt",
        "lead/stem/doc_1.summary.txt",
        "random/stem/doc_0.summary.txt",
        "random/stem/doc_1.summary.txt",
    ]
    assert len((out / "report.jsonl").read_text(encoding="utf-8").splitlines()) == 6
    assert notes.read_text(encoding="utf-8") == "kept"
    assert elsewhere.read_text(encoding="utf-8") == "kept"


def test_run_corpus_deterministic_outputs(flat_corpus, tmp_path):
    spec = CorpusSpec(root=flat_corpus)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = RunConfig(systems=("artex", "lead", "random"), seed=7, out_dir=out)
        run_corpus(spec, cfg)
        blob = (out / "report.jsonl").read_bytes()
        for path in sorted(out.rglob("*.summary.txt")):
            blob += path.relative_to(out).as_posix().encode() + path.read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_run_corpus_isolates_failing_documents(flat_corpus, caplog):
    # All stop-words: preprocessing leaves no vocabulary for this document.
    (flat_corpus / "doc_3.txt").write_text(
        "The of and in. To is was it.", encoding="utf-8"
    )
    results = run_corpus(CorpusSpec(root=flat_corpus), RunConfig())
    assert {r.doc_id for r in results} == {"doc_0", "doc_1", "doc_2"}


def test_run_corpus_parallel_matches_sequential(flat_corpus):
    spec = CorpusSpec(root=flat_corpus)
    sequential = run_corpus(spec, RunConfig(systems=("artex", "random"), seed=3))
    parallel = run_corpus(spec, RunConfig(systems=("artex", "random"), seed=3, workers=2))

    def comparable(r):
        timing = (r.timing.system, r.timing.normalization, r.timing.corpus_id)
        return r.doc_id, r.system, r.summary, r.report, timing

    assert [comparable(r) for r in sequential] == [comparable(r) for r in parallel]


@pytest.mark.parametrize("documents,workers,pool_size", [(3, 64, 3), (3, 2, 2), (1, 4, None)])
def test_run_corpus_caps_workers_at_document_count(
    flat_corpus, monkeypatch, documents, workers, pool_size
):
    # A pool forks all its workers on the first submit, so the cap is
    # checked on a stand-in that records its size and runs inline.
    for path in sorted(flat_corpus.iterdir())[documents:]:
        path.unlink()
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # Also where a module-level import would bind it, so that no real pool
    # starts even if the import moves back to the top of the runner.
    monkeypatch.setattr(artex.runner, "ProcessPoolExecutor", RecordingPool, raising=False)
    monkeypatch.setattr(artex.runner, "_WORKER_STATE", None)
    spec = CorpusSpec(root=flat_corpus)
    sequential = run_corpus(spec, RunConfig(systems=("artex", "random"), seed=3))
    pooled = run_corpus(spec, RunConfig(systems=("artex", "random"), seed=3, workers=workers))
    assert sizes == ([] if pool_size is None else [pool_size])
    assert len({r.doc_id for r in pooled}) == documents
    assert [(r.doc_id, r.system, r.summary, r.report) for r in sequential] == [
        (r.doc_id, r.system, r.summary, r.report) for r in pooled
    ]


@pytest.mark.parametrize("systems", [("artex",), ("artex", "lead", "random")])
def test_run_corpus_prepares_each_document_once(flat_corpus, monkeypatch, systems):
    stoplist = StopList.bundled("en")
    documents = load_corpus(CorpusSpec(root=flat_corpus))
    # One clean per distinct raw token of each document.
    raw_types = [{t for s in split_sentences(raw) for t in s.tokens} for raw in documents]
    types = [
        {
            cleaned
            for sentence in split_sentences(raw)
            for token in sentence.tokens
            if (cleaned := clean_token(token)) and cleaned not in stoplist
        }
        for raw in documents
    ]
    calls = {"split": 0, "clean": 0, "profiles": 0, "summarizer stems": 0}
    stemmed: list[str] = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recording_stemmer_for(language):
        stemmer = artex.stemming.stemmer_for(language)

        def recording(token):
            stemmed.append(token)
            return stemmer(token)

        return recording

    monkeypatch.setattr(artex.preprocess, "split_sentences", counted("split", split_sentences))
    monkeypatch.setattr(artex.preprocess, "clean_token", counted("clean", clean_token))
    monkeypatch.setattr(
        artex.preprocess, "stemmer_for", counted("summarizer stems", artex.stemming.stemmer_for)
    )
    monkeypatch.setattr(artex.evaluation, "stemmer_for", recording_stemmer_for)
    monkeypatch.setattr(
        artex.evaluation, "prepare_profile", counted("profiles", artex.evaluation.prepare_profile)
    )
    results = run_corpus(CorpusSpec(root=flat_corpus), RunConfig(systems=systems))
    assert len(results) == len(documents) * len(systems)
    assert calls == {
        "split": len(documents),
        "clean": sum(len(distinct) for distinct in raw_types),
        "profiles": 3 * len(documents),
        "summarizer stems": 0,
    }
    assert len(stemmed) == sum(len(distinct) for distinct in types)
    position = 0
    for distinct in types:
        assert sorted(stemmed[position : position + len(distinct)]) == sorted(distinct)
        position += len(distinct)


# --- benchmark ---------------------------------------------------------------


def test_benchmark_cardinality_and_summary(flat_corpus, tmp_path):
    modes = [UltraStem(1), UltraStem(2), Raw()]
    records = benchmark(CorpusSpec(root=flat_corpus), modes, repetitions=3, out_dir=tmp_path)
    assert len(records) == 9  # 3 repetitions per mode
    assert (tmp_path / "timings.csv").exists()
    summary = benchmark_summary(records)
    assert [row["repetitions"] for row in summary] == [3, 3, 3]
    medians = [row["median_seconds"] for row in summary]
    assert medians == sorted(medians)
    by_label = {row["normalization"]: row["vocabulary_size"] for row in summary}
    assert by_label["fix1"] <= by_label["fix2"] <= by_label["raw"]


def test_benchmark_names_a_relative_corpus_root_by_its_directory(flat_corpus, monkeypatch):
    # Path(".").name is "": the corpus is named after the directory it resolves to.
    monkeypatch.chdir(flat_corpus)
    records = benchmark(CorpusSpec(root=Path(".")), [Raw()], 3)
    assert [record.corpus_id for record in records] == [flat_corpus.name] * 3


def test_benchmark_runs_every_mode_in_each_repetition(flat_corpus):
    modes = [UltraStem(1), Raw()]
    records = benchmark(CorpusSpec(root=flat_corpus), modes, repetitions=3)
    assert [(r.repetition, r.normalization) for r in records] == [
        (repetition, label) for repetition in range(3) for label in ("fix1", "raw")
    ]


def test_benchmark_frees_mode_resources_outside_timed_regions(flat_corpus, monkeypatch):
    # Each clock reading advances the fake clock by 1 s, and freeing a
    # dictionary by 1000 s: a free inside a timed region shows in a record.
    now = [0.0]
    live = []
    most_live = []

    class TrackedDictionary(dict):
        def __del__(self):
            live.remove(id(self))
            now[0] += 1000.0

    def load(path):
        dictionary = TrackedDictionary(cats="cat")
        live.append(id(dictionary))
        most_live.append(len(live))
        return dictionary

    def clock():
        now[0] += 1.0
        return now[0]

    monkeypatch.setattr(artex.preprocess, "load_lemma_dictionary", load)
    monkeypatch.setattr(artex.runner, "time", SimpleNamespace(perf_counter=clock))
    modes = [Raw(), Lemmatize("lemmas.tsv"), UltraStem(3)]
    records = benchmark(CorpusSpec(root=flat_corpus), modes, repetitions=3)
    assert live == []
    assert most_live == [1, 1, 1]
    assert max(record.total_seconds for record in records) < 1000.0


def test_benchmark_interleaves_modes_per_document(flat_corpus, monkeypatch):
    seen = []

    def recording_preprocess(raw, stoplist, normalize):
        # The two normalizers tell themselves apart on any word of two letters or more.
        seen.append((raw.id, normalize("word")))
        return preprocess_document(raw, stoplist, normalize)

    monkeypatch.setattr(artex.runner, "preprocess_document", recording_preprocess)
    benchmark(CorpusSpec(root=flat_corpus), [UltraStem(1), Raw()], repetitions=3)
    names = {"w": "UltraStem", "word": "Raw"}
    order = [(raw_id, names[word]) for raw_id, word in seen]
    per_repetition = [
        (f"doc_{number}", name) for number in range(3) for name in ("UltraStem", "Raw")
    ]
    assert order == per_repetition * 3


def test_benchmark_requires_three_repetitions(flat_corpus):
    with pytest.raises(ValueError):
        benchmark(CorpusSpec(root=flat_corpus), [Raw()], repetitions=2)


def test_benchmark_rejects_modes_with_one_label(flat_corpus):
    with pytest.raises(ValueError, match="fix6, fix6"):
        benchmark(CorpusSpec(root=flat_corpus), [UltraStem(6), UltraStem(6)], repetitions=3)


def test_benchmark_timing_fields_consistent(flat_corpus):
    records = benchmark(CorpusSpec(root=flat_corpus), [Raw()], repetitions=3)
    for record in records:
        assert record.system == "artex"
        assert record.repetition in (0, 1, 2)
        assert record.total_seconds >= record.preprocess_seconds
        assert record.total_seconds == pytest.approx(
            record.preprocess_seconds + record.score_seconds, rel=1e-9
        )


def test_benchmark_reports_one_vocabulary_size_per_mode_when_a_document_fails(
    flat_corpus, monkeypatch
):
    # doc_1 fails only on its first attempt in each mode. Skipping it in the
    # later repetitions keeps every repetition's sum over the same documents.
    spec = CorpusSpec(root=flat_corpus)
    modes = [UltraStem(1), Raw()]
    whole = {r.normalization: r.vocabulary_size for r in benchmark(spec, modes, repetitions=3)}
    attempts = Counter()

    def fails_once(raw, stoplist, normalize):
        attempts[raw.id, normalize("word")] += 1
        if raw.id == "doc_1" and attempts[raw.id, normalize("word")] == 1:
            raise EmptyDocument("fails on its first attempt")
        return preprocess_document(raw, stoplist, normalize)

    monkeypatch.setattr(artex.runner, "preprocess_document", fails_once)
    sizes = {}
    for record in benchmark(spec, modes, repetitions=3):
        sizes.setdefault(record.normalization, []).append(record.vocabulary_size)
    assert [attempts["doc_1", word] for word in ("w", "word")] == [1, 1]
    for label, seen in sizes.items():
        assert len(seen) == 3 and len(set(seen)) == 1
        assert 0 < seen[0] < whole[label]
