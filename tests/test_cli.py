import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import artex.evaluation
import artex.stemming
from artex.cli import main, parse_budget
from artex.errors import EmptySource
from artex.evaluation import evaluation_tokens, fresa_report
from artex.preprocess import RawDocument, Stem, StopList, clean_document, preprocess_document
from artex.scorer import SentenceCount, WordRatio, score, select
from artex.synthetic import generate_document


@pytest.fixture()
def doc_file(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text(generate_document(21, 0, words=250), encoding="utf-8")
    return path


@pytest.fixture()
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for number in range(2):
        text = generate_document(22, number, words=250)
        (root / f"doc_{number}.txt").write_text(text, encoding="utf-8")
    return root


# --- budget flag ------------------------------------------------------------


def test_parse_budget_forms():
    assert parse_budget("k:3") == SentenceCount(3)
    assert parse_budget("ratio:0.25") == WordRatio(0.25)
    for bad in ("3", "k=3", "pages:2", "k:x"):
        with pytest.raises(ValueError):
            parse_budget(bad)
    # A number that does not parse is named with its budget, not by int or float.
    for bad, message in [
        ("k:2.5", r"bad sentence count in 'k:2\.5'"),
        ("k:", r"bad sentence count in 'k:'"),
        ("ratio:x", r"bad word ratio in 'ratio:x'"),
        ("ratio:", r"bad word ratio in 'ratio:'"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_budget(bad)
    # A number that parses but is out of range keeps the budget's own check.
    with pytest.raises(ValueError, match="must be >= 1"):
        parse_budget("k:0")


# --- summarize ----------------------------------------------------------------


def test_summarize_prints_summary(doc_file, capsys):
    assert main(["summarize", str(doc_file), "--budget", "k:2"]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    assert out.count(".") + out.count("!") + out.count("?") >= 2


def test_summarize_scores_table_goes_to_stderr(doc_file, capsys):
    assert main(["summarize", str(doc_file), "--scores"]) == 0
    err = capsys.readouterr().err
    assert "index\traw\tnormalized\tselected" in err


def test_summarize_scores_table_matches_the_scores(doc_file, capsys):
    assert main(["summarize", str(doc_file), "--scores"]) == 0
    captured = capsys.readouterr()
    raw = RawDocument(id="doc", text=doc_file.read_text(encoding="utf-8"), language="en")
    doc = preprocess_document(raw, StopList.bundled("en"), Stem().normalizer("en"))
    scores = score(doc.terms)
    summary = select(scores, doc.sentences, WordRatio(0.2))
    assert captured.out == summary.text + "\n"
    lines = captured.err.splitlines()
    header = lines.index("index\traw\tnormalized\tselected")
    rows = [line.split("\t") for line in lines[header + 1 :]]
    assert len(rows) == len(scores) > 1
    peak = max(scores)
    for i, (index, raw_score, normalized, flag) in enumerate(rows):
        assert index == str(i)
        assert raw_score == repr(scores[i])
        assert normalized == repr(scores[i] / peak)
        assert flag == ("*" if i in summary.selected else "-")


def test_summarize_missing_file_is_io_error(tmp_path):
    assert main(["summarize", str(tmp_path / "absent.txt")]) == 2


@pytest.fixture()
def undecodable_file(tmp_path):
    # Byte 40 is not UTF-8.
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a" * 40 + b"\xff\xfe")
    return path


def test_summarize_undecodable_file_is_io_error(undecodable_file, caplog):
    assert main(["summarize", str(undecodable_file)]) == 2
    message = f"can't decode byte 0xff in position 40: invalid start byte in {undecodable_file}"
    assert message in caplog.text


def test_summarize_undecodable_stoplist_is_io_error(doc_file, undecodable_file, caplog):
    assert main(["summarize", str(doc_file), "--stoplist", str(undecodable_file)]) == 2
    assert f"position 40: invalid start byte in {undecodable_file}" in caplog.text


def test_summarize_undecodable_lemma_dictionary_names_its_byte(doc_file, tmp_path, caplog):
    # The dictionary is read in blocks; the logged position still counts from the file's start.
    path = tmp_path / "f.tsv"
    data = bytearray(b"solar\tsun\n" * 8_000)
    data[70_000] = 0xFF
    path.write_bytes(bytes(data))
    argv = ["summarize", str(doc_file), "--norm", "lemma", "--lemma-dict", str(path)]
    assert main(argv) == 2
    assert f"position 70000: invalid start byte in {path}" in caplog.text


def test_eval_undecodable_file_is_io_error_naming_it(doc_file, undecodable_file, caplog):
    # The log tells an undecodable source from an undecodable summary.
    for argv in (["eval", str(doc_file), str(undecodable_file)],
                 ["eval", str(undecodable_file), str(doc_file)]):
        caplog.clear()
        assert main(argv) == 2
        assert f"position 40: invalid start byte in {undecodable_file}" in caplog.text


def test_summarize_bad_normalization_is_usage_error(doc_file):
    assert main(["summarize", str(doc_file), "--norm", "bogus"]) == 1


def test_summarize_lemma_without_dictionary_is_usage_error(doc_file):
    assert main(["summarize", str(doc_file), "--norm", "lemma"]) == 1


def test_summarize_bad_budget_is_usage_error(doc_file):
    assert main(["summarize", str(doc_file), "--budget", "pages:1"]) == 1


def test_summarize_nonalphabetic_document_is_empty_result(tmp_path):
    path = tmp_path / "numbers.txt"
    path.write_text("123. 456!", encoding="utf-8")
    assert main(["summarize", str(path)]) == 3


def test_summarize_stopword_only_document_is_empty_result(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The of and in. To is was it.", encoding="utf-8")
    assert main(["summarize", str(path)]) == 3


def test_summarize_with_custom_stoplist(doc_file, tmp_path, capsys):
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("the\n", encoding="utf-8")
    assert main(["summarize", str(doc_file), "--stoplist", str(stoplist)]) == 0
    assert capsys.readouterr().out.strip()


def test_summarize_with_lemma_dictionary(doc_file, tmp_path, capsys):
    lemmas = tmp_path / "lemmas.tsv"
    lemmas.write_text("cats\tcat\n", encoding="utf-8")
    args = ["summarize", str(doc_file), "--norm", "lemma", "--lemma-dict", str(lemmas)]
    assert main(args) == 0
    assert capsys.readouterr().out.strip()


def test_summarize_drops_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfSolar panels shine. Solar panels hum!")
    assert main(["summarize", str(path), "--budget", "ratio:1.0"]) == 0
    assert capsys.readouterr().out == "Solar panels shine. Solar panels hum!\n"


def test_summarize_stoplist_first_word_survives_byte_order_mark(tmp_path):
    # With "solar" and "panels" stopped, every other word is a hapax.
    path = tmp_path / "doc.txt"
    path.write_text("Solar panels shine. Solar panels hum!", encoding="utf-8")
    stoplist = tmp_path / "stop.txt"
    stoplist.write_bytes(b"\xef\xbb\xbfsolar\npanels\n")
    assert main(["summarize", str(path), "--stoplist", str(stoplist)]) == 3


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("role", ["document", "summary", "stoplist"])
def test_crlf_and_cr_inputs_read_like_lf(tmp_path, capsys, role, newline):
    # The document's sentences span lines, so its newlines show in the summary.
    texts = {
        "document": "Solar panels\nshine at noon. Solar panels\nhum at night!\nThe grid\nhums.\n",
        "summary": "Solar panels\nshine at noon.\n",
        "stoplist": "# stopped\nsolar\nnight\n",
    }
    paths = {name: str(tmp_path / f"{name}.txt") for name in texts}
    calls = [
        ["summarize", paths["document"], "--budget", "ratio:1.0", "--scores",
         "--stoplist", paths["stoplist"]],
        ["eval", paths["document"], paths["summary"]],
    ]

    def outputs(ending):
        for name, text in texts.items():
            text = text.replace("\n", ending) if name == role else text
            Path(paths[name]).write_bytes(text.encode())
        return [(main(argv), *capsys.readouterr()) for argv in calls]

    lf = outputs("\n")
    assert outputs(newline) == lf
    assert lf[0][1] == "Solar panels\nshine at noon. Solar panels\nhum at night! The grid\nhums.\n"


# Lemma without --lemma-dict is a usage error (1) and an unreadable
# dictionary a file error (2), in every subcommand and at every worker
# count (summarize without a dictionary has its own test above).
@pytest.mark.parametrize(
    "command,dictionary,code",
    [
        (["summarize", "{doc}", "--norm", "lemma"], "absent.tsv", 2),
        (["batch", "{corpus}", "--norm", "lemma", "--workers", "1"], None, 1),
        (["batch", "{corpus}", "--norm", "lemma", "--workers", "1"], "absent.tsv", 2),
        (["batch", "{corpus}", "--norm", "lemma", "--workers", "2"], None, 1),
        (["batch", "{corpus}", "--norm", "lemma", "--workers", "2"], "absent.tsv", 2),
        (["bench", "{corpus}", "--modes", "lemma", "--reps", "3"], None, 1),
        (["bench", "{corpus}", "--modes", "lemma", "--reps", "3"], "absent.tsv", 2),
    ],
)
def test_lemma_dictionary_errors(doc_file, corpus_dir, tmp_path, command, dictionary, code):
    args = [part.format(doc=doc_file, corpus=corpus_dir) for part in command]
    if command[0] != "summarize":
        args += ["--out", str(tmp_path / "out")]
    if dictionary is not None:
        args += ["--lemma-dict", str(tmp_path / dictionary)]
    assert main(args) == code


# --- batch ---------------------------------------------------------------------


def test_batch_writes_output_tree(corpus_dir, tmp_path):
    out = tmp_path / "out"
    args = [
        "batch", str(corpus_dir),
        "--systems", "artex,lead,random",
        "--norm", "fix:1",
        "--budget", "k:2",
        "--out", str(out),
    ]
    assert main(args) == 0
    assert (out / "report.jsonl").exists()
    assert (out / "timings.csv").exists()
    for system in ("artex", "lead", "random"):
        files = list((out / system / "fix1").glob("*.summary.txt"))
        assert len(files) == 2
    lines = (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6


def _tree(root):
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*"))


@pytest.mark.parametrize(
    "command,layout,out",
    [
        ("batch", "flat", "."),
        ("batch", "clusters", "results"),
        ("bench", "flat", "."),
    ],
)
def test_out_dir_read_back_as_corpus_is_corpus_error(tmp_path, command, layout, out):
    # A second run would summarize the first run's report and timings.
    root = tmp_path / "corpus"
    documents = root / "cluster" if layout == "clusters" else root
    documents.mkdir(parents=True)
    for number in range(2):
        text = generate_document(22, number, words=250)
        (documents / f"doc_{number}.txt").write_text(text, encoding="utf-8")
    before = _tree(root)
    args = [command, str(root), "--layout", layout, "--out", str(root / out)]
    if command == "bench":
        args += ["--reps", "3"]
    assert main(args) == 2
    assert _tree(root) == before


def test_batch_timing_flag_is_usage_error(corpus_dir, tmp_path):
    assert main(["batch", str(corpus_dir), "--out", str(tmp_path / "out"), "--timing"]) == 1
    assert not (tmp_path / "out").exists()


def test_batch_missing_corpus_is_io_error(tmp_path):
    out = tmp_path / "out"
    assert main(["batch", str(tmp_path / "absent"), "--out", str(out)]) == 2


def test_batch_unknown_system_is_usage_error(corpus_dir, tmp_path):
    args = ["batch", str(corpus_dir), "--systems", "nope", "--out", str(tmp_path / "o")]
    assert main(args) == 1


def test_batch_all_documents_failing_is_empty_result(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "doc.txt").write_text("The of and in. To is was it.", encoding="utf-8")
    assert main(["batch", str(root), "--out", str(tmp_path / "out")]) == 3


def test_batch_baselines_summarize_a_document_artex_cannot(tmp_path, caplog):
    # No word occurs twice, so no term survives for artex to score; the
    # baselines need no term and are evaluated on the source's own words.
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "hapax.txt").write_text("The sun rose. A moon set.", encoding="utf-8")
    out = tmp_path / "baselines"
    assert main(["batch", str(root), "--systems", "lead,random", "--out", str(out)]) == 0
    for system in ("lead", "random"):
        summary = (out / system / "stem" / "hapax.summary.txt").read_text(encoding="utf-8")
        assert summary in ("The sun rose.\n", "A moon set.\n")
    assert len((out / "report.jsonl").read_text(encoding="utf-8").splitlines()) == 2
    assert "skipping" not in caplog.text
    out = tmp_path / "artex"
    assert main(["batch", str(root), "--systems", "artex", "--out", str(out)]) == 3
    assert (
        "skipping document hapax: EmptyVocabulary: no sentence retained any token"
        in caplog.messages
    )
    assert not list(out.glob("*/*/*.summary.txt"))


@pytest.mark.parametrize(
    "systems,error",
    [
        ("artex,lead,random", "EmptyVocabulary: no sentence retained any token"),
        ("lead,random", "EmptySource: source profile has no n-gram units"),
    ],
)
def test_batch_selects_with_every_system_before_it_prepares_the_source(
    tmp_path, caplog, systems, error
):
    # No word occurs twice, so artex cannot score the text, and no sentence
    # holds a bigram, so the evaluator cannot profile it. Every system
    # selects before the source is prepared: with artex, the batch skips the
    # document for the reason summarize reports.
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "sun.txt").write_text("Sun. Moon.", encoding="utf-8")
    assert main(["summarize", str(root / "sun.txt")]) == 3
    assert caplog.messages == ["no sentence retained any token"]
    caplog.clear()
    out = tmp_path / "out"
    assert main(["batch", str(root), "--systems", systems, "--out", str(out)]) == 3
    assert caplog.messages[0] == f"skipping document sun: {error}"


def test_batch_summary_file_drops_byte_order_mark(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "bom.txt").write_bytes(b"\xef\xbb\xbfSolar panels shine. Solar panels hum!")
    out = tmp_path / "out"
    assert main(["batch", str(root), "--budget", "ratio:1.0", "--out", str(out)]) == 0
    summary = (out / "artex" / "stem" / "bom.summary.txt").read_text(encoding="utf-8")
    assert summary == "Solar panels shine. Solar panels hum!\n"


@pytest.mark.parametrize("command", ["batch", "bench"])
def test_duplicate_document_ids_are_corpus_errors(corpus_dir, tmp_path, caplog, command):
    (corpus_dir / "doc_1.md").write_text("A second doc one.", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(corpus_dir), "--out", str(out)]) == 2
    assert "doc_1.md" in caplog.text and "doc_1.txt" in caplog.text
    assert not (out / "report.jsonl").exists()


# --- eval ------------------------------------------------------------------------


def test_eval_reports_json(doc_file, tmp_path, capsys):
    summary = tmp_path / "summary.txt"
    text = doc_file.read_text(encoding="utf-8")
    summary.write_text(" ".join(text.split(". ")[:2]) + ".", encoding="utf-8")
    assert main(["eval", str(doc_file), str(summary)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"d1", "d2", "d_su4", "f1", "f2", "f_su4", "f_avg"}
    assert 0.0 <= report["f_avg"] <= 1.0


def test_eval_identical_files_score_one(doc_file, capsys):
    assert main(["eval", str(doc_file), str(doc_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f_avg"] == 1.0


def test_eval_empty_source_is_empty_result(tmp_path, doc_file):
    empty = tmp_path / "empty.txt"
    empty.write_text("...", encoding="utf-8")
    assert main(["eval", str(empty), str(doc_file)]) == 3


def test_eval_undecodable_file_is_io_error(undecodable_file, doc_file):
    assert main(["eval", str(undecodable_file), str(undecodable_file)]) == 2
    assert main(["eval", str(doc_file), str(undecodable_file)]) == 2


@pytest.mark.parametrize(
    "make_summary",
    [
        lambda source: ". ".join(source.split(". ")[:3]) + ".",
        lambda source: "2024.",
        lambda source: "",
        lambda source: "Completely unrelated words appear here. Nothing else!",
    ],
    ids=["extract", "numeric-only", "empty", "unrelated"],
)
def test_eval_equals_report_of_evaluation_tokens(doc_file, tmp_path, capsys, make_summary):
    text = doc_file.read_text(encoding="utf-8")
    summary_text = make_summary(text)
    summary = tmp_path / "summary.txt"
    summary.write_text(summary_text, encoding="utf-8")
    expected = fresa_report(evaluation_tokens(text, "en"), evaluation_tokens(summary_text, "en"))
    assert main(["eval", str(doc_file), str(summary)]) == 0
    assert json.loads(capsys.readouterr().out) == expected.as_dict()


def test_eval_empty_source_matches_reference_error(tmp_path, doc_file):
    source = tmp_path / "source.txt"
    source.write_text("2024. 2025!", encoding="utf-8")
    with pytest.raises(EmptySource):
        fresa_report(evaluation_tokens("2024. 2025!", "en"), [["anything"]])
    assert main(["eval", str(source), str(doc_file)]) == 3


def test_eval_loads_one_stoplist_and_stems_each_word_once(doc_file, tmp_path, monkeypatch):
    source_text = doc_file.read_text(encoding="utf-8")
    summary_text = ". ".join(source_text.split(". ")[:4]) + ". Brandnew wording appears."
    summary = tmp_path / "summary.txt"
    summary.write_text(summary_text, encoding="utf-8")
    stoplist = StopList.bundled("en")
    distinct = {
        token
        for text in (source_text, summary_text)
        for token in clean_document(RawDocument("t", text, "en"), stoplist).frequencies
    }
    loads: list[str] = []
    stemmed: list[str] = []
    bundled = StopList.bundled

    def counted_bundled(language):
        loads.append(language)
        return bundled(language)

    def recording_stemmer_for(language):
        stemmer = artex.stemming.stemmer_for(language)

        def recording(token):
            stemmed.append(token)
            return stemmer(token)

        return recording

    monkeypatch.setattr(StopList, "bundled", staticmethod(counted_bundled))
    monkeypatch.setattr(artex.evaluation, "stemmer_for", recording_stemmer_for)
    assert main(["eval", str(doc_file), str(summary)]) == 0
    assert loads == ["en"]
    assert len(stemmed) == len(distinct)
    assert set(stemmed) == distinct


# --- bench -------------------------------------------------------------------------


def test_bench_writes_timings_and_summary(corpus_dir, tmp_path, capsys):
    out = tmp_path / "bench"
    args = ["bench", str(corpus_dir), "--modes", "fix:1,raw", "--reps", "3", "--out", str(out)]
    assert main(args) == 0
    assert (out / "timings.csv").exists()
    summary = json.loads(capsys.readouterr().out)
    assert {row["normalization"] for row in summary} == {"fix1", "raw"}
    assert all(row["repetitions"] == 3 for row in summary)


def test_bench_too_few_repetitions_is_usage_error(corpus_dir, tmp_path):
    args = ["bench", str(corpus_dir), "--reps", "2", "--out", str(tmp_path / "b")]
    assert main(args) == 1


def test_bench_duplicate_modes_is_usage_error(corpus_dir, tmp_path):
    out = tmp_path / "b"
    args = ["bench", str(corpus_dir), "--modes", "fix:6,fix:06", "--reps", "3", "--out", str(out)]
    assert main(args) == 1
    assert not (out / "timings.csv").exists()


# --- parser-level behaviour -----------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error(doc_file):
    assert main(["summarize", str(doc_file), "--frobnicate"]) == 1


def test_module_entry_point_help():
    # Run the same artex that the tests import, however they found it.
    env = dict(os.environ, PYTHONPATH=str(Path(artex.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "artex", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    assert "summarize" in result.stdout


# --- in-process calls ---------------------------------------------------------------

# Each probe runs in a fresh interpreter: "once per process" needs a process
# that starts with nothing built, and pytest's own root log handlers would
# keep ``main`` from configuring logging.
CALLS_PROBE = """
import collections, contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import artex.cli, artex.preprocess
doc, tiny, stoplist = sys.argv[2:5]
built, reads = [], collections.Counter()
build_parser, read_words = artex.cli.build_parser, artex.preprocess._read_words
def counted_build_parser():
    built.append(1)
    return build_parser()
def counted_read_words(source):
    reads[source.name] += 1
    return read_words(source)
artex.cli.build_parser = counted_build_parser
artex.preprocess._read_words = counted_read_words
calls = [
    ["summarize", doc, "--lang", lang] if number % 2 == 0 else ["eval", doc, doc, "--lang", lang]
    for number, lang in zip(range(18), ["en", "es", "fr"] * 6)
]
codes = []
for number in range(20):
    if number == 19:
        with open(stoplist, "w", encoding="utf-8") as handle:
            handle.write("solar\\npanels\\n")
    argv = calls[number] if number < 18 else ["summarize", tiny, "--stoplist", stoplist]
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(artex.cli.main(argv))
print(json.dumps({"built": len(built), "reads": reads, "codes": codes}))
"""

SEQUENCE_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import artex.cli
seen = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = artex.cli.main(argv)
    seen.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(seen))
"""

LOGGING_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import artex.cli
first, second = io.StringIO(), io.StringIO()
with contextlib.redirect_stderr(first):
    artex.cli.main(["summarize", sys.argv[2]])
logged = first.getvalue()
first.close()
with contextlib.redirect_stderr(second):
    artex.cli.main(["summarize", sys.argv[3]])
print(json.dumps([logged, second.getvalue()]))
"""


def run_probe(probe: str, *args: str):
    src = str(Path(artex.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe, src, *args], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_calls_build_one_parser_and_read_each_bundled_stoplist_once(doc_file, tmp_path):
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("Solar panels shine. Solar panels hum!", encoding="utf-8")
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("# nothing stopped\n", encoding="utf-8")
    seen = run_probe(CALLS_PROBE, str(doc_file), str(tiny), str(stoplist))
    assert seen["built"] == 1
    assert seen["reads"] == {"en.txt": 1, "es.txt": 1, "fr.txt": 1, "stop.txt": 2}
    # The edited --stoplist stops both repeated words of the last call.
    assert seen["codes"] == [0] * 19 + [3]


def test_calls_in_one_process_match_fresh_processes(doc_file, tmp_path):
    summary = tmp_path / "summary.txt"
    text = doc_file.read_text(encoding="utf-8")
    summary.write_text(". ".join(text.split(". ")[:3]) + ".", encoding="utf-8")
    doc, missing = str(doc_file), str(tmp_path / "absent.txt")
    calls = [
        [],
        ["--help"],
        ["summarize", doc, "--frobnicate"],
        ["summarize", doc, "--lang", "es"],
        ["summarize", missing],
        ["summarize", doc, "--scores"],
        ["eval", doc, str(summary)],
        ["frobnicate"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(artex.__file__).parents[1]))
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "artex", *argv], capture_output=True, text=True, env=env
        )
        fresh.append([done.returncode, done.stdout, done.stderr])
    assert [code for code, _, _ in fresh] == [1, 0, 1, 0, 2, 0, 0, 1]
    assert run_probe(SEQUENCE_PROBE, json.dumps(calls)) == fresh


def test_each_call_logs_to_its_own_stderr(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    logged = run_probe(LOGGING_PROBE, str(first), str(second))
    assert logged == [
        f"ERROR artex.cli: [Errno 2] No such file or directory: '{path}'\n"
        for path in (first, second)
    ]
