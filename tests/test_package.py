import ast
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import artex
from artex.stemming import SUPPORTED_LANGUAGES, stemmer_for
from artex.synthetic import generate_document

# Modules that only some calls need, so ``import artex`` must not load them.
DEFERRED = (
    "concurrent.futures",
    "multiprocessing",
    "statistics",
    "csv",
    "hashlib",
    "artex.stemming.english",
    "artex.stemming.french",
    "artex.stemming.spanish",
)

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
deferred = sys.argv[2:]
import artex
loaded = [name for name in deferred if name in sys.modules]
before = set(sys.modules)
artex.stemmer_for("fr")
added = sorted(set(sys.modules) - before)
import json
print(json.dumps({"loaded": loaded, "added": added}))
"""


# The public API, name by name: adding or dropping an export is a deliberate
# edit of this list.
PUBLIC = (
    "ArtexError", "CompressionSpec", "CorpusEmpty", "CorpusError",
    "CorpusSpec", "DEFAULT_BUDGET", "DivergenceReport", "Document",
    "EmptyDocument", "EmptySource", "EmptyVocabulary", "Lemmatize",
    "MissingDictionary", "NgramProfile", "NormalizationMode", "PseudoVectors",
    "Raw", "RawDocument", "RunConfig", "RunResult", "Sentence",
    "SentenceCount", "Stem", "StopList",
    "Summary", "TimingRecord", "UltraStem", "WordRatio",
    "benchmark", "benchmark_summary", "bigrams", "clean_token",
    "evaluation_tokens", "fresa_report", "lead_baseline", "load_corpus",
    "load_lemma_dictionary", "ngram_profile", "parse_mode",
    "preprocess_document", "pseudo_vectors", "random_baseline", "run_corpus",
    "score", "score_normalized", "score_table", "select", "skip_bigrams",
    "split_sentences", "stemmer_for", "unigrams", "__version__",
)


def test_every_exported_name_resolves():
    assert [name for name in artex.__all__ if not hasattr(artex, name)] == []
    assert len(set(artex.__all__)) == len(artex.__all__)
    assert len(PUBLIC) == 52
    assert sorted(artex.__all__) == sorted(PUBLIC)


def test_import_loads_no_deferred_module():
    # A fresh interpreter without site, so nothing but artex imports modules.
    src = str(Path(artex.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, src, *DEFERRED],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == {"loaded": [], "added": ["artex.stemming.french"]}


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
