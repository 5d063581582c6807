import concurrent.futures
import csv
import hashlib
import json
import logging
import os
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import artex.evaluation
import artex.preprocess
import artex.runner
import artex.stemming
from artex.errors import ArtexError, CorpusEmpty, CorpusError
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
from artex.runner import (
    SYSTEMS,
    CorpusSpec,
    RunConfig,
    TimingRecord,
    benchmark,
    benchmark_summary,
    document_seed,
    load_corpus,
    parse_mode,
    run_corpus,
    write_timings,
)
from artex.scorer import SentenceCount, WordRatio, score
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
    assert type(parsed) is type(mode)
    assert parsed.label == label


def test_parse_mode_lemma_keeps_dictionary_path(tmp_path):
    path = tmp_path / "lemmas.tsv"
    assert parse_mode("lemma", path) == Lemmatize(path)
    assert parse_mode("stem", path) == Stem()  # ignored by the other modes


@pytest.mark.parametrize("label", ["fix:0", "fix:x", "bogus", "fix:", "fix:3:4"])
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


def test_load_corpus_warns_of_a_bad_byte_at_its_offset_in_the_file(flat_corpus, caplog):
    # A byte-order mark, 37 letters and 0xff: the bad byte is the file's byte 40.
    bom = flat_corpus / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + b"a" * 37 + b"\xff\n")
    documents = load_corpus(CorpusSpec(root=flat_corpus))
    assert [d.id for d in documents] == ["doc_0", "doc_1", "doc_2"]
    assert caplog.messages == [
        f"skipping {bom}: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte"
    ]


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


@pytest.mark.parametrize("layout", ["flat", "clusters"])
def test_load_corpus_reads_crlf_and_cr_files_like_lf_files(tmp_path, layout):
    text = "The sun rose.\nIt set\nagain.\n"
    for number, newline in enumerate(["\n", "\r\n", "\r"]):
        data = text.replace("\n", newline).encode("utf-8")
        directory = tmp_path / f"c{number}" if layout == "clusters" else tmp_path
        directory.mkdir(exist_ok=True)
        (directory / f"d{number}.txt").write_bytes(data)
        (directory / f"e{number}.txt").write_bytes(b"\xef\xbb\xbf" + data)
    documents = load_corpus(CorpusSpec(root=tmp_path, layout=layout))
    if layout == "clusters":
        assert [d.text for d in documents] == [f"{text}\n{text}"] * 3
    else:
        assert [d.text for d in documents] == [text] * 6


def test_load_corpus_empty_raises(tmp_path):
    with pytest.raises(CorpusEmpty):
        load_corpus(CorpusSpec(root=tmp_path))
    with pytest.raises(CorpusEmpty):
        load_corpus(CorpusSpec(root=tmp_path / "missing"))


def reference_load_corpus(spec: CorpusSpec) -> list[RawDocument]:
    """The loader load_corpus replaced, kept as its oracle: it sorts Path
    objects, tests each with Path.is_file or is_dir and reads it in text mode."""
    root = Path(spec.root)
    if not root.is_dir():
        raise CorpusEmpty(f"corpus root is not a directory: {root}")
    documents: list[RawDocument] = []
    if spec.layout == "flat":
        claimed: dict[str, Path] = {}
        for path in sorted(root.iterdir()):
            if not path.is_file() or path.name.startswith("."):
                continue
            if path.stem in claimed:
                raise CorpusError(
                    f"{claimed[path.stem]} and {path} both have document ID {path.stem!r}"
                )
            claimed[path.stem] = path
            text = reference_read_text(path)
            if text:
                documents.append(RawDocument(id=path.stem, text=text, language=spec.language))
    else:
        for cluster in sorted(root.iterdir()):
            if not cluster.is_dir() or cluster.name.startswith("."):
                continue
            parts = []
            for path in sorted(cluster.iterdir()):
                if not path.is_file() or path.name.startswith("."):
                    continue
                text = reference_read_text(path)
                if text:
                    parts.append(text)
            if parts:
                documents.append(
                    RawDocument(id=cluster.name, text="\n".join(parts), language=spec.language)
                )
    if not documents:
        raise CorpusEmpty(f"no usable documents under {root}")
    return documents


def reference_read_text(path: Path) -> str | None:
    """A corpus file's text, read in text mode, or None with a warning."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        try:
            path.read_bytes().decode("utf-8")  # the offset from the file's start
        except UnicodeDecodeError as exc:
            logging.getLogger("artex.runner").warning("skipping %s: %s", path, exc)
            return None
    except OSError as exc:
        logging.getLogger("artex.runner").warning("skipping %s: %s", path, exc)
        return None
    if not text.strip():
        logging.getLogger("artex.runner").warning("skipping %s: file is empty", path)
        return None
    return text


# Names that Path.stem, sorting and the dotfile rule treat apart; each entry
# is a file's bytes, a symbolic link to a sibling name (broken when nothing
# has that name, a loop when it is its own) or, one level down, a directory.
TREE_NAMES = ["a.", "a.txt", "a.md", "b.tar.gz", "b", "B.txt", ".hidden", ".d.txt", "\xe9.txt"]
TREE_FILES = [
    b"", b" \n\t", b"\xef\xbb\xbf", b"\xef\xbb\xbf \r\n", b"Sun rose.\n",
    b"\xef\xbb\xbfSun rose.\nIt set.", b"Sun rose.\r\nIt set.\r\n", b"Sun rose.\rIt set.\r",
    b"Mixed.\r\r\nEnd.\n\r", b"\xef\xbb\xbfaaaa\xff\n", b"ok\xfe",
]
TREE_LEAVES = st.one_of(
    st.sampled_from(TREE_FILES), st.tuples(st.just("link"), st.sampled_from(TREE_NAMES))
)
TREES = st.dictionaries(
    st.sampled_from(TREE_NAMES),
    st.one_of(TREE_LEAVES, st.dictionaries(st.sampled_from(TREE_NAMES), TREE_LEAVES, max_size=4)),
    max_size=6,
)


def build_tree(directory: Path, tree: dict) -> None:
    directory.mkdir()
    for name, node in tree.items():
        if isinstance(node, dict):
            build_tree(directory / name, node)
        elif isinstance(node, tuple):
            (directory / name).symlink_to(node[1])
        else:
            (directory / name).write_bytes(node)


class Recorded(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def outcome(load, spec: CorpusSpec) -> tuple:
    """``load(spec)``'s documents or error, with the warnings it logged."""
    recorded = Recorded()
    logging.getLogger("artex.runner").addHandler(recorded)
    try:
        result = load(spec)
    except ArtexError as exc:
        result = (type(exc), str(exc))
    finally:
        logging.getLogger("artex.runner").removeHandler(recorded)
    return result, recorded.messages


@settings(max_examples=200, deadline=None)
@example(
    tree={"a.": TREE_FILES[4], "b.tar.gz": TREE_FILES[6], "B.txt": TREE_FILES[5],
          "\xe9.txt": TREE_FILES[7], ".hidden": TREE_FILES[4], "b": {"a.txt": TREE_FILES[4]},
          "a.md": ("link", "missing"), ".d.txt": ("link", ".d.txt"), "a.txt": ("link", "a.")},
    layout="flat",
    root="corpus/",
)
@example(tree={"a.txt": TREE_FILES[4], "a.md": TREE_FILES[8]}, layout="flat", root=".")
@example(
    tree={"a.": {"b": TREE_FILES[8], ".d.txt": TREE_FILES[4], "a.txt": TREE_FILES[9],
                 "B.txt": TREE_FILES[1], "a.md": TREE_FILES[2]},
          ".hidden": {"b": TREE_FILES[4]}, "b": TREE_FILES[4], "a.md": ("link", "a."),
          "B.txt": ("link", "B.txt")},
    layout="clusters",
    root=".",
)
@given(
    tree=TREES,
    layout=st.sampled_from(["flat", "clusters"]),
    root=st.sampled_from(["absolute", "absolute/", "corpus", "corpus/", "./corpus//", "."]),
)
def test_load_corpus_matches_the_reference_loader(tree, layout, root):
    with tempfile.TemporaryDirectory() as scratch:
        corpus = Path(scratch) / "corpus"
        build_tree(corpus, tree)
        cwd = os.getcwd()
        os.chdir(corpus if root == "." else scratch)
        try:
            if root.startswith("absolute"):
                root = str(corpus) + root.removeprefix("absolute")
            spec = CorpusSpec(root=root, layout=layout)
            assert outcome(load_corpus, spec) == outcome(reference_load_corpus, spec)
        finally:
            os.chdir(cwd)


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


def test_write_timings_bytes(tmp_path):
    # A batch row leaves repetition and vocabulary_size empty; seconds are
    # written by repr.
    records = [
        TimingRecord("artex", "stem", "doc_0", 0.1, 0.2),
        TimingRecord("artex", "fix6", "corpus", 1.5, 0.25, repetition=2, vocabulary_size=310),
    ]
    write_timings(records, tmp_path / "timings.csv")
    assert (tmp_path / "timings.csv").read_bytes() == (
        b"system,normalization,corpus_id,repetition,preprocess_seconds,score_seconds,"
        b"total_seconds,vocabulary_size\r\n"
        b"artex,stem,doc_0,,0.1,0.2,0.30000000000000004,\r\n"
        b"artex,fix6,corpus,2,1.5,0.25,1.75,310\r\n"
    )


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


def test_benchmark_vocabulary_sizes_are_pinned(flat_corpus):
    # Each record sums the documents' distinct terms: stemming merges none of
    # this corpus's forms, and truncating to 3 letters merges 22.
    records = benchmark(CorpusSpec(root=flat_corpus), [Raw(), UltraStem(3), Stem()], 3)
    assert [(r.normalization, r.vocabulary_size) for r in records] == [
        ("raw", 74), ("fix3", 52), ("stem", 74)
    ] * 3


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


def test_benchmark_attempts_a_failing_document_in_every_repetition(
    flat_corpus, monkeypatch, caplog
):
    # doc_3 is all stop words, so it fails in every mode and every repetition:
    # each repetition attempts it, only the first warns, and every repetition
    # sums the sizes of the other documents.
    spec = CorpusSpec(root=flat_corpus)
    modes = [UltraStem(1), Raw()]
    whole = {r.normalization: r.vocabulary_size for r in benchmark(spec, modes, repetitions=3)}
    (flat_corpus / "doc_3.txt").write_text("The of and in. To is was it.", encoding="utf-8")
    attempts = Counter()

    def counting_preprocess(raw, stoplist, normalize):
        attempts[raw.id, normalize("word")] += 1
        return preprocess_document(raw, stoplist, normalize)

    monkeypatch.setattr(artex.runner, "preprocess_document", counting_preprocess)
    sizes = {}
    for record in benchmark(spec, modes, repetitions=3):
        sizes.setdefault(record.normalization, []).append(record.vocabulary_size)
    assert [attempts["doc_3", word] for word in ("w", "word")] == [3, 3]
    skips = [m for m in caplog.messages if m.startswith("benchmark skips document doc_3: ")]
    assert len(skips) == len(modes)
    assert sizes == {label: [size] * 3 for label, size in whole.items()}


def test_benchmark_charges_a_failing_documents_preprocessing_to_its_mode(
    flat_corpus, monkeypatch
):
    # The fake clock moves only while doc_3, all stop words, is preprocessed:
    # 1000 s in fix1 and 10 s in raw, before the document fails in both.
    now = [0.0]
    sleeps = {"w": 1000.0, "word": 10.0}
    (flat_corpus / "doc_3.txt").write_text("The of and in. To is was it.", encoding="utf-8")

    def sleeping_preprocess(raw, stoplist, normalize):
        if raw.id == "doc_3":
            now[0] += sleeps[normalize("word")]
        return preprocess_document(raw, stoplist, normalize)

    monkeypatch.setattr(artex.runner, "preprocess_document", sleeping_preprocess)
    monkeypatch.setattr(artex.runner, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    records = benchmark(CorpusSpec(root=flat_corpus), [UltraStem(1), Raw()], repetitions=3)
    assert [(r.normalization, r.preprocess_seconds, r.score_seconds) for r in records] == [
        ("fix1", 1000.0, 0.0), ("raw", 10.0, 0.0)
    ] * 3


# --- phase seconds -------------------------------------------------------------

# The time each slowed call sleeps.
SLEEP = 0.001


@pytest.fixture()
def slowed_corpus(flat_corpus, monkeypatch):
    """The flat corpus plus a document that fails, with Raw's normalizer and
    the scorer each sleeping SLEEP seconds a call; also returns how many
    normalizer calls each document makes."""
    (flat_corpus / "doc_3.txt").write_text("The of and in. To is was it.", encoding="utf-8")
    spec = CorpusSpec(root=flat_corpus)
    stoplist = StopList.bundled("en")
    calls = {}
    for raw in load_corpus(spec):
        normalized = []
        preprocess_document(raw, stoplist, lambda token: normalized.append(token) or token)
        calls[raw.id] = len(normalized)

    def sleepy(token):
        time.sleep(SLEEP)
        return token

    def slow_score(terms):
        time.sleep(SLEEP)
        return score(terms)

    monkeypatch.setattr(artex.preprocess, "_unchanged", sleepy)
    monkeypatch.setattr(artex.runner, "score", slow_score)
    return spec, calls


def test_batch_phase_seconds_hold_their_sleeps_and_fit_in_the_wall_time(slowed_corpus):
    spec, calls = slowed_corpus
    start = time.perf_counter()
    results = run_corpus(spec, RunConfig(normalization=Raw(), systems=SYSTEMS))
    wall = time.perf_counter() - start
    assert {r.doc_id for r in results} == {"doc_0", "doc_1", "doc_2"}
    for result in results:
        assert result.timing.preprocess_seconds >= calls[result.doc_id] * SLEEP
        if result.system == "artex":
            assert result.timing.score_seconds >= SLEEP
    # Each system's row repeats its document's preprocessing.
    preprocessing = {r.doc_id: r.timing.preprocess_seconds for r in results}
    assert sum(preprocessing.values()) + sum(r.timing.score_seconds for r in results) <= wall


def test_benchmark_phase_seconds_hold_their_sleeps_and_fit_in_the_wall_time(slowed_corpus):
    spec, calls = slowed_corpus
    start = time.perf_counter()
    records = benchmark(spec, [Raw()], repetitions=3)
    wall = time.perf_counter() - start
    for record in records:
        # Three documents are scored: doc_3 fails in every repetition.
        assert record.preprocess_seconds >= sum(calls.values()) * SLEEP
        assert record.score_seconds >= 3 * SLEEP
    assert sum(record.total_seconds for record in records) <= wall
