"""Pinned sha256 digests of outputs, one per named setting.

A batch digest covers ``report.jsonl`` and every summary file of a run:
each file's path under the output directory and its bytes. ``timings.csv``
is left out, since its seconds change from run to run; a timings digest
covers it with its seconds columns blanked. Every batch setting runs at 1
and at 2 workers, which must write the same bytes, and at 2 workers under
every start method the platform offers. A command digest covers
what ``summarize --scores`` and ``eval`` of that summary print for one
text, at ``ratio:0.2`` and at ``k:2``, and must come out the same under
every other supported interpreter found (Python 3.10 to 3.13; one that is
not found is skipped by name). A stop-list digest covers the bytes of one
bundled stop list. A change that moves an output byte fails each setting
whose output moved; a change meant to move bytes re-pins the digests of
those settings and names them in CHANGES.md.

The edge-case, Spanish and French texts are ``scripts/compare_outputs.py``'s,
imported from it so that they are written once.
"""

import csv
import functools
import hashlib
import importlib.util
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import artex
from artex.cli import parse_budget
from artex.corpus import CorpusSpec
from artex.preprocess import parse_mode
from artex.runner import SYSTEMS, RunConfig, run_corpus
from artex.synthetic import generate_corpus, generate_lemma_dictionary

SCRIPT = Path(__file__).parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

# name: (seed, documents, words per document, layout). The clusters corpus
# is the short one with its files moved, three by three, into 10 clusters.
CORPORA = {
    "long": (0, 10, 1000, "flat"),
    "short": (1, 30, 250, "flat"),
    "clusters": (1, 30, 250, "clusters"),
}

# name: (language, {file name: text}), each batched as one flat corpus.
TEXT_CORPORA = {
    "edge": ("en", compare_outputs.EDGE_TEXTS),
    **{language: (language, texts) for language, texts in compare_outputs.LANGUAGE_TEXTS.items()},
}
# text: (corpus, language).
TEXTS = {
    name: (corpus, language)
    for corpus, (language, texts) in TEXT_CORPORA.items()
    for name in texts
}

# (corpus, normalization, budget): the sha256 of that run's outputs.
DIGESTS = {
    ("long", "stem", "ratio:0.2"):
        "83ba54e477ab7600aa48e9b3e83f7723de841a3aaa5c07eb3ea65f835a595d07",
    ("long", "stem", "k:3"):
        "28e75ec6cab931682e2a0b3a7f31fdc862cfce93ecd56073a006bb62b6d7ae39",
    ("long", "raw", "k:1"):
        "9034260a3dda2b190f6e4f7bee9e663bd19b0bd84c2408fa07f8c8119d2b4e7c",
    ("long", "fix:3", "k:1"):
        "f6bfbdf5196f9eae10cfb228f482f3fcf1923be2195f7ec5229aa4d6b1d32cfc",
    ("long", "lemma", "ratio:0.2"):
        "8d452c872a7ad58f53e295af081e9d6c9ba49a024bd381504ec3dc5e264704da",
    ("short", "stem", "ratio:0.2"):
        "8aa3c3c4794718da800dac062f61ef1ca7a137ade3b6ab1a4d1093c2a291c987",
    ("short", "stem", "k:3"):
        "6c2ccba656f010609e7063a0d57b883c10da3c537d0771e52ca2791f27a694c7",
    ("short", "raw", "k:1"):
        "9b441f6d8bb784e97dfb4fa0a326d2564036c5329cbde64a5ee0441f695aa518",
    ("short", "fix:3", "k:1"):
        "391964dadf1e624f8874f3bd8f90bb9938c7e84185ac6d44bd69be84e7f72c99",
    ("clusters", "stem", "ratio:0.2"):
        "8a2a4c94f32ca7b65cbf96de5e1e9d3d8509b88b27b72397c750f9970741a4c2",
    ("edge", "stem", "ratio:0.2"):
        "c7e4bb7ad61d8880b7e45bc6a0faa6dad7d883f300baa480e897ef078c5fe189",
    ("edge", "stem", "k:3"):
        "b038cb6a655d4c923fe3183a9580d13c6953529d36dc080363f8c3564ee0fc77",
    ("edge", "raw", "k:1"):
        "a19833240e7bf5714c5d3a7899d6d374959c1344bcc51bae42845b4c0bbb7061",
    ("edge", "fix:3", "k:1"):
        "2ea3a251913d83c6dff68f5ce1721cce4cde4ef6ee93c57c3afb18719c8fff94",
    ("es", "stem", "k:2"):
        "4c61eb41af8868b6814d261e43e6ba1f5df72eec0949e1d9d13d9bb8f1374404",
    ("fr", "stem", "k:2"):
        "a65fafed2e1d38492d4d13a32d5beef4c1ec31dd494722ee125fa53d1ebfb0da",
}

# (corpus, normalization, budget): the sha256 of that run's timings.csv with
# its seconds columns blanked. A batch's rows hold no budget, so the
# ratio:0.2 and k:3 runs of one corpus share a digest.
TIMINGS_DIGESTS = {
    ("long", "stem", "ratio:0.2"):
        "e451fc44d51392a7d0d74e5b4944340216a7fbf41b60b3a4794884a970bf9c56",
    ("long", "stem", "k:3"):
        "e451fc44d51392a7d0d74e5b4944340216a7fbf41b60b3a4794884a970bf9c56",
    ("long", "raw", "k:1"):
        "95bf4163861217f15c3c796aa72020f5bed7896566fd522de7da9053d8bca15e",
    ("long", "fix:3", "k:1"):
        "a5dc26b82e3a0af6fc14e5d14897fc7a79f03fbaa0ba2f5be8103db8fd23a8e3",
    ("long", "lemma", "ratio:0.2"):
        "5db972f5c88f0d7a3d41ec73b5a5c77fbbdb7e66df9b972aec5292218e89b303",
    ("short", "stem", "ratio:0.2"):
        "ddc270faed8540dd66b57f6c36750b1bd6159663088ff91345ad9122a5825c88",
    ("short", "stem", "k:3"):
        "ddc270faed8540dd66b57f6c36750b1bd6159663088ff91345ad9122a5825c88",
    ("short", "raw", "k:1"):
        "17cf407959cc3d40482f6fde6cc7ef33224ac51cabd15d5bafca8135dfb13919",
    ("short", "fix:3", "k:1"):
        "8a6463ee3757ed94783ec59457fcdd18290a59ba164dc631eaf318b60d83f9a6",
    ("clusters", "stem", "ratio:0.2"):
        "99084ffcc3c7c15ddd6d562a06644abca010f91ddcff7b614ff984a622f1ce5d",
    ("edge", "stem", "ratio:0.2"):
        "51e4bcae8b9eba3ab052ee4fcecf75c0c11511947c40cf0d67f24087ea1ba666",
    ("edge", "stem", "k:3"):
        "51e4bcae8b9eba3ab052ee4fcecf75c0c11511947c40cf0d67f24087ea1ba666",
    ("edge", "raw", "k:1"):
        "c91eec0875c63b2ff5bfca0f8e2c453aa1351c1090709ea9a257b79672e66af0",
    ("edge", "fix:3", "k:1"):
        "0a827e949ef2a96fe7221f5d4d6b59abdbb53b73f7430e7ac5a014073250fa3a",
    ("es", "stem", "k:2"):
        "2eb4d9400753345a9037fcff1a0a27b9bc0c5e52c6077795c4cff21a2887a6bb",
    ("fr", "stem", "k:2"):
        "65f9a98ec8748124da9c289505e2e1c82d01935f54443aef5372783c5e8d8d95",
}

# text: the sha256 of its summarize --scores and eval calls.
COMMAND_DIGESTS = {
    "hapax": "a062a3b216b9247784d4e2aef73ab37bc92963f70b646371343ce8ab7fd2eae2",
    "repeats": "c6e8a78026e82c0de36dd4b1a2d8637f98fa6e8fc517c633bc454d310591725e",
    "year": "ff4f239a4b9b918a71d2774cdeda970acd69c1e96803615a23a92f0144c8e6c9",
    "regions": "ef8350bb80392f6d4e78ee10e72a8d99508ab715dcc8e1686fada6345fd73142",
    "suffixes": "9c999bd61841a93b3e11ab924d6f06efc4c435b52955fd478106358e07c08612",
    "bom": "41bfdb02c70d78ff0fd1e02ae604d48d466f194ad270391531328bc80bca1b53",
    "es": "55e891eb79ff9282e327662c549901d4786659fbca9f413621ff5e8b2f00a29c",
    "fr": "bb66454ac350a921a4cdef8a805170b779a941d1452d2a43f2dd3a3abe5ad4cc",
    "fr-regions": "f1204372ab8b4140657fe00d04d606fea689c45005f7235cde0e9a4c55552098",
    "fr-suffixes": "81405946a125c06877912ab41769de03b70d83b0cc9faa2679d9ff3246545508",
}

# language: the sha256 of its bundled stop list.
STOP_LIST_DIGESTS = {
    "en": "78f9e83f030bcdfea7da52ec17b3bbaabf0cbd3b9bf341dc6532147b5a3f1e07",
    "es": "52c5bce4ae5a24a18c462bd08c64651998f8c62e92dac6746ed8d1837fc157a3",
    "fr": "dd8e45b4d422cb11f9cf7811880c68300270e00b2558f31fee3f30fd7362fec7",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Each corpus's spec, and a lemma dictionary of every seed-0 inflection."""
    root = tmp_path_factory.mktemp("digest-inputs")
    specs = {}
    for name, (seed, documents, words, layout) in CORPORA.items():
        paths = generate_corpus(root / name, documents, words, seed)
        if layout == "clusters":
            for number, path in enumerate(paths):
                cluster = root / name / f"cluster_{number // 3:02d}"
                cluster.mkdir(exist_ok=True)
                shutil.move(path, cluster / path.name)
        specs[name] = CorpusSpec(root=root / name, layout=layout)
    for name, (language, texts) in TEXT_CORPORA.items():
        (root / name).mkdir()
        for text_name, text in texts.items():
            (root / name / f"{text_name}.txt").write_text(text, encoding="utf-8")
        specs[name] = CorpusSpec(root=root / name, language=language)
    dictionary = generate_lemma_dictionary(root / "lemmas.tsv", entries=56_000, seed=0)
    return specs, dictionary


def run_setting(inputs, corpus, mode, budget, out_dir, workers):
    """Run one batch setting with every system into ``out_dir``."""
    specs, dictionary = inputs
    cfg = RunConfig(
        normalization=parse_mode(mode, dictionary),
        budget=parse_budget(budget),
        systems=SYSTEMS,
        out_dir=out_dir,
        workers=workers,
    )
    run_corpus(specs[corpus], cfg)
    return out_dir


@pytest.fixture(scope="module")
def batch_outputs(inputs, tmp_path_factory):
    """A function from a batch setting to its two output directories, at 1
    and at 2 workers; each setting runs once, when first asked for."""
    root = tmp_path_factory.mktemp("batches")

    @functools.cache
    def outputs(corpus, mode, budget):
        out_dir = root / f"{corpus}-{mode}-{budget}".replace(":", "")
        return [
            run_setting(inputs, corpus, mode, budget, out_dir / f"w{workers}", workers)
            for workers in (1, 2)
        ]

    return outputs


def output_digest(out_dir) -> str:
    """sha256 over every output file but timings.csv, in path order."""
    digest = hashlib.sha256()
    files = {
        path.relative_to(out_dir).as_posix(): path
        for path in out_dir.rglob("*")
        if path.is_file() and path.name != "timings.csv"
    }
    for name in sorted(files):
        data = files[name].read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "corpus,mode,budget", DIGESTS, ids=["-".join(setting) for setting in DIGESTS]
)
def test_outputs_match_their_pinned_digest(batch_outputs, corpus, mode, budget):
    digests = [output_digest(out_dir) for out_dir in batch_outputs(corpus, mode, budget)]
    assert digests == [DIGESTS[corpus, mode, budget]] * 2


def timings_digest(out_dir) -> str:
    """sha256 of timings.csv with its seconds columns blanked."""
    with open(out_dir / "timings.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    seconds = [rows[0].index(column) for column in compare_outputs.SECONDS_COLUMNS]
    for row in rows[1:]:
        for column in seconds:
            row[column] = ""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "corpus,mode,budget", TIMINGS_DIGESTS, ids=["-".join(setting) for setting in TIMINGS_DIGESTS]
)
def test_timings_match_their_pinned_digest(batch_outputs, corpus, mode, budget):
    digests = [timings_digest(out_dir) for out_dir in batch_outputs(corpus, mode, budget)]
    assert digests == [TIMINGS_DIGESTS[corpus, mode, budget]] * 2


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
@pytest.mark.parametrize(
    "corpus,mode,budget", DIGESTS, ids=["-".join(setting) for setting in DIGESTS]
)
def test_two_workers_match_the_pinned_digests_under_each_start_method(
    inputs, tmp_path, method, corpus, mode, budget
):
    # The pool takes the default start method, which differs by platform and
    # Python version, so every method must write the pinned bytes.
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        out_dir = run_setting(inputs, corpus, mode, budget, tmp_path / "out", workers=2)
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert output_digest(out_dir) == DIGESTS[corpus, mode, budget]
    assert timings_digest(out_dir) == TIMINGS_DIGESTS[corpus, mode, budget]


@pytest.fixture(scope="module")
def command_digests_under(inputs, tmp_path_factory):
    """A function from an interpreter to each text's digest over its
    summarize --scores and eval calls.

    The calls run in one fresh interpreter through ``artex.cli.main``, with
    ``compare_outputs``'s runner, so that stderr holds what the command
    logs; the temporary directory is masked in stderr.
    """
    specs, _ = inputs
    src = str(Path(artex.__file__).parents[1])
    base = str(tmp_path_factory.getbasetemp())

    def digests_under(python):
        work = tmp_path_factory.mktemp("commands")
        calls = []
        for name, (corpus, language) in TEXTS.items():
            source = str(specs[corpus].root / f"{name}.txt")
            for budget in ("ratio:0.2", "k:2"):
                summary = work / f"{name}-{budget.replace(':', '')}.txt"
                calls += [
                    {"argv": ["summarize", source, "--scores", "--budget", budget,
                              "--lang", language], "stdout_to": str(summary), "text": name},
                    {"argv": ["eval", source, str(summary), "--lang", language], "text": name},
                ]
        plan = work / "calls.json"
        plan.write_text(json.dumps(calls), encoding="utf-8")
        subprocess.run(
            [python, "-c", compare_outputs.RUN, str(plan), src],
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            check=True,
        )
        digests = {name: hashlib.sha256() for name in TEXTS}
        for call in json.loads(plan.read_text(encoding="utf-8")):
            stderr = call["stderr"].replace(base, "<tmp>")
            record = [call["argv"][0], call["exit"], call["stdout"], stderr]
            digests[call["text"]].update(json.dumps(record).encode("utf-8"))
        return {name: digest.hexdigest() for name, digest in digests.items()}

    return digests_under


@pytest.fixture(scope="module")
def command_digests(command_digests_under):
    return command_digests_under(sys.executable)


@pytest.mark.parametrize("text", COMMAND_DIGESTS)
def test_commands_match_their_pinned_digest(command_digests, text):
    assert command_digests[text] == COMMAND_DIGESTS[text]


# The Python versions that artex supports (pyproject.toml's requires-python,
# up to the newest one it is tested on).
SUPPORTED_PYTHONS = ("3.10", "3.11", "3.12", "3.13")
RUNNING_PYTHON = "%d.%d" % sys.version_info[:2]


def find_python(version: str) -> str | None:
    """An interpreter that runs as Python ``version``: one that pyenv
    installed, else ``python<version>`` on PATH; None if neither does."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates = [
        *sorted(versions.glob(f"{version}.*/bin/python{version}")),
        shutil.which(f"python{version}"),
    ]
    for python in filter(None, candidates):
        check = subprocess.run(
            [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True,
        )
        if check.returncode == 0 and check.stdout.strip() == version:
            return str(python)
    return None


@pytest.mark.parametrize("version", [v for v in SUPPORTED_PYTHONS if v != RUNNING_PYTHON])
def test_commands_match_their_pinned_digests_under_python(command_digests_under, version):
    python = find_python(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter found")
    assert command_digests_under(python) == COMMAND_DIGESTS


@pytest.mark.parametrize("language", STOP_LIST_DIGESTS)
def test_bundled_stop_list_matches_its_pinned_digest(language):
    data = resources.files("artex").joinpath(f"data/stopwords/{language}.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == STOP_LIST_DIGESTS[language]
