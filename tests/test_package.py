import ast
import inspect
import json
import pickle
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

import artex
from artex import (
    CorpusSpec,
    DivergenceReport,
    Document,
    Lemmatize,
    NgramProfile,
    Raw,
    RawDocument,
    RunConfig,
    RunResult,
    Sentence,
    SentenceCount,
    Stem,
    StopList,
    Summary,
    TimingRecord,
    UltraStem,
    WordRatio,
)
from artex.stemming import SUPPORTED_LANGUAGES, stemmer_for
from artex.synthetic import generate_corpus, generate_document, generate_lemma_dictionary

# Modules that only some calls need, so ``import artex`` must not load them.
# Records are named tuples, so nothing loads dataclasses (nor the inspect
# module it imports); logging is loaded by the first warning.
DEFERRED = (
    "concurrent.futures",
    "multiprocessing",
    "statistics",
    "csv",
    "hashlib",
    "json",
    "dataclasses",
    "inspect",
    "logging",
    "artex.stemming.english",
    "artex.stemming.french",
    "artex.stemming.spanish",
)
STANDARD_DEFERRED = [name for name in DEFERRED if not name.startswith("artex.")]

# Each probe runs in a fresh interpreter without site, so nothing but artex
# and the probe import modules; argv[1] is the directory that holds artex.
SRC = str(Path(artex.__file__).parents[1])

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
deferred = sys.argv[2:]
import artex
stemmer_for = artex.stemmer_for
loaded = [name for name in deferred if name in sys.modules]
before = set(sys.modules)
stemmer_for("fr")
added = sorted(set(sys.modules) - before)
import json
print(json.dumps({"loaded": loaded, "added": added}))
"""

# What a batch does before its first document (perfbench's setup probe).
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from artex import CorpusSpec, StopList, load_corpus
StopList.bundled("en")
documents = load_corpus(CorpusSpec(sys.argv[2]))
print(len(documents), *sorted(name for name in sys.modules if name.startswith("artex")))
print(*(name for name in sys.argv[3:] if name in sys.modules))
"""

# Every public name resolved from a bare ``import artex``.
RESOLVE_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import artex
print(artex.runner.__name__)
for name in artex.__all__:
    getattr(artex, name)
print(*(name for name in sys.argv[2:] if name in sys.modules))
"""

# Loads a corpus with one empty file; nothing configures logging.
WARNING_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from artex import CorpusSpec, load_corpus
print("logging" in sys.modules)
print(len(load_corpus(CorpusSpec(sys.argv[2]))))
"""

CLI_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import artex.cli
print(*sorted(name for name in sys.modules if name.startswith("artex")))
"""

MAIN_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from artex.cli import main
sys.exit(main(sys.argv[2:]))
"""

# Runs each argv of the JSON list argv[3] through one process's cli.main under
# sys.setprofile, from before artex is imported, and writes the exit codes and
# the (file under the package, first line) of every function that ran to argv[2].
INVENTORY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
ran = set()
def profile(frame, event, arg):
    if event == "call":
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import contextlib, json, os
from artex.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    codes = [main(argv) for argv in json.loads(sys.argv[3])]
sys.setprofile(None)
package = os.path.join(sys.argv[1], "artex", "")
ran = sorted([path[len(package):], line] for path, line in ran if path.startswith(package))
with open(sys.argv[2], "w") as out:
    json.dump([codes, ran], out)
"""


def fresh(probe: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-S", "-c", probe, SRC, *args],
        capture_output=True, text=True, check=True,
    )


@pytest.fixture
def one_file_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text(
        "Solar panels store power. Solar panels feed the grid.\n", encoding="utf-8"
    )
    return corpus


# The public API, name by name: adding or dropping an export is a deliberate
# edit of this list.
PUBLIC = (
    "ArtexError", "CompressionSpec", "CorpusEmpty", "CorpusError",
    "CorpusSpec", "DEFAULT_BUDGET", "DivergenceReport", "Document",
    "EmptyDocument", "EmptySource", "EmptyVocabulary", "Lemmatize",
    "MissingDictionary", "NgramProfile", "NormalizationMode",
    "Raw", "RawDocument", "RunConfig", "RunResult", "Sentence",
    "SentenceCount", "Stem", "StopList",
    "Summary", "TimingRecord", "UltraStem", "WordRatio",
    "benchmark", "benchmark_summary", "bigrams", "clean_token",
    "evaluation_tokens", "fresa_report", "lead_baseline", "load_corpus",
    "load_lemma_dictionary", "ngram_profile", "parse_mode",
    "preprocess_document", "random_baseline", "run_corpus",
    "score", "score_normalized", "score_table", "select", "skip_bigrams",
    "split_sentences", "stemmer_for", "unigrams", "__version__",
)


def test_every_exported_name_resolves():
    assert [name for name in artex.__all__ if not hasattr(artex, name)] == []
    assert len(set(artex.__all__)) == len(artex.__all__)
    assert len(PUBLIC) == 50
    assert sorted(artex.__all__) == sorted(PUBLIC)


def test_import_loads_no_deferred_module():
    done = fresh(PROBE, *DEFERRED)
    assert json.loads(done.stdout) == {"loaded": [], "added": ["artex.stemming.french"]}


def test_setup_loads_neither_runner_nor_logging(one_file_corpus):
    (one_file_corpus / "b.txt").write_text(
        "The grid stores power. The grid feeds homes.\n", encoding="utf-8"
    )
    unloaded = ["logging", "artex.runner", "artex.scorer", "artex.evaluation", "artex.cli"]
    count_and_loaded, still_loaded = fresh(
        SETUP_PROBE, str(one_file_corpus), *unloaded
    ).stdout.splitlines()
    assert count_and_loaded.split() == [
        "2", "artex", "artex.corpus", "artex.errors", "artex.preprocess", "artex.stemming"
    ]
    assert still_loaded == ""


def test_every_public_name_resolves_without_deferred_modules():
    runner, loaded = fresh(RESOLVE_PROBE, *STANDARD_DEFERRED).stdout.splitlines()
    assert runner == "artex.runner"
    assert loaded == ""


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(artex))


def test_import_cli_leaves_runner_unloaded():
    loaded = fresh(CLI_PROBE).stdout.split()
    assert "artex.cli" in loaded
    assert [name for name in ("artex.runner", "artex.corpus") if name in loaded] == []


def test_warnings_reach_stderr_when_nothing_configured_logging(one_file_corpus, tmp_path):
    empty = one_file_corpus / "empty.txt"
    empty.write_bytes(b"")
    done = fresh(WARNING_PROBE, str(one_file_corpus))
    # logging's last-resort handler prints the bare message.
    assert done.stdout.split() == ["False", "1"]
    assert done.stderr == f"skipping {empty}: file is empty\n"
    batch = fresh(MAIN_PROBE, "batch", str(one_file_corpus), "--out", str(tmp_path / "out"))
    assert f"WARNING artex.runner: skipping {empty}: file is empty\n" in batch.stderr


# Each function of the package that no call of the inventory below runs,
# with the reason it stays.
NEVER_RUN = {
    "artex.__getattr__": "resolves artex.<name> for API users; the CLI imports its modules",
    "artex.__dir__": "lists the public names for dir(artex)",
    "artex.cli._Parser.error": "runs on a usage error; every inventory call is valid",
    "artex.preprocess.StopList.__contains__": "public API; the pipeline reads StopList.words",
    "artex.runner._worker_init": "runs in pool worker processes, which the profile cannot see",
    "artex.runner._worker_run": "runs in pool worker processes, which the profile cannot see",
    "artex.scorer.score_normalized": "the paper's hypersphere variant (acceptance criterion 1)",
    **{
        f"artex.synthetic.{name}": "the corpus generator, kept for perfbench and the tests"
        for name in (
            "_syllables", "stem_pool", "_fresh_word", "_distinct_inflections",
            "_topical_sentence", "_junk_sentence", "generate_document", "generate_corpus",
            "generate_lemma_dictionary",
        )
    },
}


def package_functions() -> dict[tuple[str, int], str]:
    """Every function the package defines with def, keyed as the inventory
    probe reports it, with its dotted name (lambdas and comprehensions aside).
    """
    package = Path(artex.__file__).parent
    found = {}

    def walk(code, prefix, path):
        for const in code.co_consts:
            if isinstance(const, type(code)) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[path, const.co_firstlineno] = name
                walk(const, name, path)

    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package).as_posix()
        module = ".".join(["artex", *file.relative_to(package).with_suffix("").parts])
        walk(compile(file.read_bytes(), str(file), "exec"), module.removesuffix(".__init__"), path)
    return found


def test_every_function_no_command_runs_is_named(tmp_path):
    # Every command, every mode, both layouts, es and fr, --scores,
    # --stoplist, the budget clamp warning, and a batch at 2 workers.
    doc = tmp_path / "doc.txt"
    doc.write_text(generate_document(5, 0, words=300), encoding="utf-8")
    summary = tmp_path / "summary.txt"
    summary.write_text(doc.read_text(encoding="utf-8").split(". ")[0] + ".\n", encoding="utf-8")
    texts = {
        "es": "El gobierno aprueba la ley de energía. La ley de energía protege a los "
              "consumidores. Los consumidores pagan menos energía. El gobierno celebra la ley.\n",
        "fr": "Le gouvernement adopte la loi sur l'énergie. La loi sur l'énergie protège les "
              "consommateurs. Les consommateurs paient moins d'énergie. Le gouvernement "
              "célèbre la loi.\n",
    }
    for language, text in texts.items():
        (tmp_path / f"{language}.txt").write_text(text, encoding="utf-8")
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("the\nof\n", encoding="utf-8")
    lemmas = str(generate_lemma_dictionary(tmp_path / "lemmas.tsv", entries=56_000, seed=5))
    flat = tmp_path / "flat"
    generate_corpus(flat, documents=3, words_per_document=300, seed=5)
    clusters = tmp_path / "clusters"
    for number in range(2):
        generate_corpus(clusters / f"c{number}", documents=2, words_per_document=200, seed=5)
    calls = [
        ["summarize", str(doc), "--scores"],
        ["summarize", str(doc), "--norm", "raw", "--budget", "k:1000"],
        ["summarize", str(doc), "--norm", "fix:4", "--stoplist", str(stoplist)],
        ["summarize", str(doc), "--norm", "lemma", "--lemma-dict", lemmas],
        ["summarize", str(tmp_path / "es.txt"), "--lang", "es", "--budget", "k:2"],
        ["summarize", str(tmp_path / "fr.txt"), "--lang", "fr", "--budget", "k:2"],
        ["eval", str(doc), str(summary)],
        ["eval", str(tmp_path / "fr.txt"), str(tmp_path / "es.txt"), "--lang", "fr"],
        ["batch", str(flat), "--systems", "artex,lead,random", "--out", str(tmp_path / "b1")],
        ["batch", str(clusters), "--layout", "clusters", "--norm", "raw", "--budget", "k:2",
         "--out", str(tmp_path / "b2")],
        ["batch", str(flat), "--norm", "fix:3", "--workers", "2", "--out", str(tmp_path / "b3")],
        ["batch", str(flat), "--norm", "lemma", "--lemma-dict", lemmas,
         "--out", str(tmp_path / "b4")],
        ["bench", str(flat), "--modes", "raw,stem,fix:3,lemma", "--lemma-dict", lemmas,
         "--reps", "3", "--out", str(tmp_path / "bench")],
    ]
    result = tmp_path / "inventory.json"
    fresh(INVENTORY_PROBE, str(result), json.dumps(calls))
    codes, ran = json.loads(result.read_text(encoding="utf-8"))
    assert codes == [0] * len(calls)
    ran = {tuple(key) for key in ran}
    never_run = {name for key, name in package_functions().items() if key not in ran}
    assert sorted(never_run - NEVER_RUN.keys()) == []  # unlisted
    assert sorted(NEVER_RUN.keys() - never_run) == []  # listed, yet ran


@pytest.mark.parametrize("language", SUPPORTED_LANGUAGES)
def test_stemmers_pickle_by_name(language):
    # Pool workers receive the mode's normalizer pickled.
    stem = stemmer_for(language)
    assert pickle.loads(pickle.dumps(stem)) is stem


def test_runtime_imports_only_the_standard_library():
    # The runtime is pure standard library: every import under src/artex
    # names artex itself (absolute or relative) or a standard-library module.
    package = Path(artex.__file__).parent
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "artex" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(package).as_posix()}: {name}")
    assert outside == []


def test_readme_python_example_runs(monkeypatch, tmp_path, capsys):
    # The README's Python API example, run as written on a generated article.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "article.txt").write_text(generate_document(0, 0, 400), encoding="utf-8")
    exec(compile(block, "README.md", "exec"), {})
    summary, f_avg = capsys.readouterr().out.splitlines()
    assert summary and 0.0 <= float(f_avg) <= 1.0


def test_readme_layout_names_every_module_and_subpackage():
    # The README's Layout block lists src/artex's entries, one per line
    # indented by two spaces; a module or subpackage added, moved or
    # removed without its Layout line fails here.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```\n", 1)[1].split("\n```", 1)[0]
    below_package = block.split("src/artex/\n", 1)[1].split("\n")
    listing = takewhile(lambda line: line.startswith(" "), below_package)
    named = [line.split()[0] for line in listing if not line.startswith("   ")]
    package = Path(artex.__file__).parent
    modules = [path.name for path in package.glob("*.py")]
    subpackages = [f"{init.parent.name}/" for init in package.glob("*/__init__.py")]
    assert sorted(named) == sorted(modules + subpackages)


SENTENCE = Sentence(surface="Sun rose.", tokens=("Sun", "rose."))
SUMMARY = Summary(selected=(0,), text="Sun rose.")
REPORT = DivergenceReport(d1=0.5, d2=0.25, d_su4=0.125, f1=0.5, f2=0.25, f_su4=0.125, f_avg=0.25)
TIMING = TimingRecord(
    system="artex", normalization="stem", corpus_id="d", preprocess_seconds=1.5, score_seconds=0.5
)

# Each public record built by keyword, leaving out every field that has a
# default, beside the fields it must then hold, in field order.
RECORDS = [
    (RawDocument(id="d", text="Sun rose.", language="en"),
     {"id": "d", "text": "Sun rose.", "language": "en"}),
    (SENTENCE, {"surface": "Sun rose.", "tokens": ("Sun", "rose.")}),
    (Document(sentences=(SENTENCE,), terms=(("sun",),)),
     {"sentences": (SENTENCE,), "terms": (("sun",),)}),
    (Raw(), {}),
    (Stem(), {}),
    (UltraStem(n=3), {"n": 3}),
    (Lemmatize(), {"dictionary_path": None}),
    (StopList(), {"words": frozenset()}),
    (SentenceCount(k=2), {"k": 2}),
    (WordRatio(ratio=0.5), {"ratio": 0.5}),
    (SUMMARY, {"selected": (0,), "text": "Sun rose."}),
    (NgramProfile(counts={("sun",): 1}, total=1), {"counts": {("sun",): 1}, "total": 1}),
    (REPORT, {"d1": 0.5, "d2": 0.25, "d_su4": 0.125, "f1": 0.5, "f2": 0.25, "f_su4": 0.125,
              "f_avg": 0.25}),
    (CorpusSpec(root=Path("corpus")),
     {"root": Path("corpus"), "layout": "flat", "language": "en"}),
    (RunConfig(), {"normalization": Stem(), "budget": WordRatio(0.2), "systems": ("artex",),
                   "seed": 0, "out_dir": None, "workers": 1}),
    (TIMING, {"system": "artex", "normalization": "stem", "corpus_id": "d",
              "preprocess_seconds": 1.5, "score_seconds": 0.5, "repetition": None,
              "vocabulary_size": None}),
    (RunResult(doc_id="d", system="artex", normalization="stem", summary=SUMMARY,
               report=REPORT, timing=TIMING),
     {"doc_id": "d", "system": "artex", "normalization": "stem", "summary": SUMMARY,
      "report": REPORT, "timing": TIMING}),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


def fields_of(record) -> list[tuple[str, object]]:
    # A record's positional fields, in order; Raw and Stem have none.
    return [(name, getattr(record, name)) for name in getattr(record, "__match_args__", ())]


def test_every_public_record_type_is_checked():
    public = [getattr(artex, name) for name in artex.__all__]
    records = {k for k in public if isinstance(k, type) and not issubclass(k, Exception)}
    assert records == {type(record) for record, _ in RECORDS}


@pytest.mark.parametrize("record,fields", RECORDS, ids=RECORD_IDS)
def test_record_keyword_construction_keeps_fields(record, fields):
    assert fields_of(record) == list(fields.items())


@pytest.mark.parametrize("record,fields", RECORDS, ids=RECORD_IDS)
def test_record_is_immutable(record, fields):
    for name in [*fields, "label", "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("record,fields", RECORDS, ids=RECORD_IDS)
def test_record_pickles(record, fields):
    # Pool workers receive a RunConfig and send back RunResults.
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize(
    "record,field,bad",
    [
        (RawDocument(id="d", text="Sun rose.", language="en"), "language", "de"),
        (UltraStem(n=3), "n", 0),
        (UltraStem(n=3), "n", 2.5),
        (UltraStem(n=3), "n", True),
        (SentenceCount(k=2), "k", 0),
        (SentenceCount(k=2), "k", True),
        (WordRatio(ratio=0.5), "ratio", 5.0),
        (WordRatio(ratio=0.5), "ratio", "0.5"),
        (WordRatio(ratio=0.5), "ratio", True),
        (CorpusSpec(root=Path("corpus")), "layout", "bogus"),
        (RunConfig(), "workers", 0),
        (RunConfig(), "workers", 2.5),
        (RunConfig(), "workers", True),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, tuple) else None,
)
def test_checked_record_replace_and_make_run_the_checks(record, field, bad):
    # namedtuple's _replace builds its result with _make.
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        type(record)._make([bad if name == field else value for name, value in fields_of(record)])
    copy = type(record)._make(record)
    assert type(copy) is type(record) and copy == record


@pytest.mark.parametrize(
    "bad",
    [
        tuple.__new__(RawDocument, ("d", "Sun rose.", "de")),
        tuple.__new__(UltraStem, (0,)),
        tuple.__new__(SentenceCount, (0,)),
        tuple.__new__(WordRatio, (5.0,)),
        tuple.__new__(CorpusSpec, (Path("corpus"), "bogus", "en")),
        tuple.__new__(RunConfig, (*RunConfig()[:-1], 0)),
    ],
    ids=lambda value: type(value).__name__,
)
def test_checked_record_unpickling_runs_the_checks(bad):
    # tuple.__new__ skips the checks; pool workers receive a RunConfig by pickle.
    data = pickle.dumps(bad)
    with pytest.raises(ValueError):
        pickle.loads(data)


def test_fieldless_modes_compare_by_type():
    assert Raw() == Raw() and Stem() == Stem()
    assert Raw() != Stem() and hash(Raw()) != hash(Stem())
    assert hash(Raw()) == hash(Raw())
    assert len({Raw(), Stem(), Raw()}) == 2


# Modes, budgets and checked records: each is a value of its own type only.
TYPED = [
    Raw(),
    Stem(),
    UltraStem(6),
    Lemmatize("x"),
    SentenceCount(6),
    WordRatio(0.5),
    RawDocument(id="x", text="Sun rose.", language="en"),
    CorpusSpec(root=Path("x")),
    RunConfig(),
]


def test_records_equal_only_records_of_their_own_type():
    assert UltraStem(6) != SentenceCount(6) and not UltraStem(6) == SentenceCount(6)
    assert Lemmatize("x") != ("x",) and ("x",) != Lemmatize("x")
    assert len({UltraStem(3): "mode", SentenceCount(3): "budget"}) == 2
    for record in TYPED:
        for other in TYPED:
            assert (record == other) is (record is other)
            assert (record != other) is (record is not other)
        if isinstance(record, tuple):
            assert record != tuple(record) and tuple(record) != record
            assert type(record)._make(record) == record


@pytest.mark.parametrize("record", TYPED, ids=lambda record: type(record).__name__)
def test_equal_records_of_one_type_hash_alike(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and not copy != record
    assert hash(copy) == hash(record)
    assert len({record, copy}) == 1


def test_perfbench_selftest_passes():
    # The self-test exits 1 if an output check of the benchmark rejects a
    # real output or accepts a perturbed one.
    root = Path(__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
