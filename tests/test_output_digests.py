"""Pinned sha256 digests of batch outputs, one per named setting.

A digest covers ``report.jsonl`` and every summary file of a run: each
file's path under the output directory and its bytes. ``timings.csv`` is
left out, since its seconds change from run to run. Every setting runs at 1
and at 2 workers, which must write the same bytes. A change that moves an
output byte fails each setting whose output moved; a change meant to move
bytes re-pins the digests of those settings and names them in CHANGES.md.
"""

import hashlib
import shutil

import pytest

from artex.cli import parse_budget
from artex.corpus import CorpusSpec
from artex.preprocess import parse_mode
from artex.runner import SYSTEMS, RunConfig, run_corpus
from artex.synthetic import generate_corpus, generate_lemma_dictionary

# name: (seed, documents, words per document, layout). The clusters corpus
# is the short one with its files moved, three by three, into 10 clusters.
CORPORA = {
    "long": (0, 10, 1000, "flat"),
    "short": (1, 30, 250, "flat"),
    "clusters": (1, 30, 250, "clusters"),
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
