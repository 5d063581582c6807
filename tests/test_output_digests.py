"""Pinned sha256 digests of outputs, one per named setting.

A batch digest covers ``report.jsonl`` and every summary file of a run:
each file's path under the output directory and its bytes. ``timings.csv``
is left out, since its seconds change from run to run. Every batch setting
runs at 1 and at 2 workers, which must write the same bytes. A command
digest covers what ``summarize --scores`` and ``eval`` of that summary print
for one text, at ``ratio:0.2`` and at ``k:2``. A stop-list digest covers the
bytes of one bundled stop list. A change that moves an output byte fails
each setting whose output moved; a change meant to move bytes re-pins the
digests of those settings and names them in CHANGES.md.

The edge-case, Spanish and French texts are ``scripts/compare_outputs.py``'s,
imported from it so that they are written once.
"""

import hashlib
import importlib.util
import json
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
        "f84085554e0cc5cd5be6f7a5c2328236c47a2fc44d014265117fcc6556bc0270",
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
    "fr-regions": "5d4fdded1451a40f37b6e490298955a4a2e33e773c324f89a61cffe17ff22b7b",
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
def test_outputs_match_their_pinned_digest(inputs, tmp_path, corpus, mode, budget):
    specs, dictionary = inputs
    digests = []
    for workers in (1, 2):
        cfg = RunConfig(
            normalization=parse_mode(mode, dictionary),
            budget=parse_budget(budget),
            systems=SYSTEMS,
            out_dir=tmp_path / f"workers-{workers}",
            workers=workers,
        )
        run_corpus(specs[corpus], cfg)
        digests.append(output_digest(cfg.out_dir))
    assert digests == [DIGESTS[corpus, mode, budget]] * 2


@pytest.fixture(scope="module")
def command_digests(inputs, tmp_path_factory):
    """Each text's digest over its summarize --scores and eval calls.

    The calls run in one fresh interpreter through ``artex.cli.main``, with
    ``compare_outputs``'s runner, so that stderr holds what the command
    logs; the temporary directory is masked in stderr.
    """
    specs, _ = inputs
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
    src = str(Path(artex.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", compare_outputs.RUN, str(plan), src],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    digests = {name: hashlib.sha256() for name in TEXTS}
    base = str(tmp_path_factory.getbasetemp())
    for call in json.loads(plan.read_text(encoding="utf-8")):
        stderr = call["stderr"].replace(base, "<tmp>")
        record = [call["argv"][0], call["exit"], call["stdout"], stderr]
        digests[call["text"]].update(json.dumps(record).encode("utf-8"))
    return {name: digest.hexdigest() for name, digest in digests.items()}


@pytest.mark.parametrize("text", COMMAND_DIGESTS)
def test_commands_match_their_pinned_digest(command_digests, text):
    assert command_digests[text] == COMMAND_DIGESTS[text]


@pytest.mark.parametrize("language", STOP_LIST_DIGESTS)
def test_bundled_stop_list_matches_its_pinned_digest(language):
    data = resources.files("artex").joinpath(f"data/stopwords/{language}.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == STOP_LIST_DIGESTS[language]
