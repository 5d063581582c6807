"""Seeded benchmark inputs, generated with artex.synthetic and cached on disk.

Every input is a pure function of the seed and its shape, so it is generated
once per (seed, shape) under the work directory and reused by later runs.
The cache key also covers the source of the generator and of the stemmers it
uses, so editing either regenerates the inputs instead of reusing stale ones.
Generation happens before any timed region.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

# Shapes named by the workloads. The long corpus feeds batch-3sys and
# norm-sweep; the short one feeds cli-short.
LONG = {"documents": 100, "words": 2000}
SHORT = {"documents": 1000, "words": 250}
DICTIONARY_ENTRIES = 1_000_000


def _generator_digest(src: Path) -> str:
    files = [src / "artex" / "synthetic.py", *sorted((src / "artex" / "stemming").glob("*.py"))]
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def fingerprint(root: Path) -> str:
    """sha256 over the sorted per-file sha256 digests of a corpus directory."""
    lines = [
        f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in sorted(root.iterdir())
        if path.is_file()
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def has_content(text: str, stopwords) -> bool:
    """Whether some word outside the generator's stop-words occurs twice.

    artex keeps only such words, so a document without one has nothing to
    summarize: artex rightly refuses it (exit 3, no vocabulary). At ~250
    words the generator makes about one such document in 12,000.
    """
    counts = Counter(word.strip(".!?").lower() for word in text.split())
    return any(count > 1 and word not in stopwords for word, count in counts.items())


def _short_corpus(synthetic, root: Path, documents: int, words: int, seed: int) -> list[Path]:
    """The first ``documents`` generated documents that have content."""
    root.mkdir(parents=True)
    paths = []
    number = 0
    while len(paths) < documents:
        text = synthetic.generate_document(seed, number, words)
        if has_content(text, synthetic._STOPWORDS):
            paths.append(root / f"doc_{number:04d}.txt")
            paths[-1].write_text(text, encoding="utf-8")
        number += 1
    return paths


def _build(target: Path, make) -> dict:
    """Run ``make(tmp_dir)`` unless ``target`` already holds a finished build."""
    marker = target / "inputs.json"
    if marker.is_file():
        return json.loads(marker.read_text(encoding="utf-8"))
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    info = make(tmp)
    (tmp / "inputs.json").write_text(json.dumps(info, indent=2), encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return info


def prepare(work: Path, src: Path, seed: int, names=("long", "short", "dictionary")) -> dict:
    """Generate (or reuse) the named inputs: long corpus, short corpus, dictionary.

    Returns, per input, its path and the facts recorded with every result:
    document and word counts and a fingerprint, or the dictionary size.
    """
    from artex import synthetic

    # generate_document rebuilds the seed's stem pool for every document; the
    # pool depends only on the seed, so memoizing it changes no output byte
    # and cuts generation of the 1,000-document corpus from ~16 s to ~1 s.
    pooled = functools.lru_cache(maxsize=None)(synthetic.stem_pool)
    original, synthetic.stem_pool = synthetic.stem_pool, pooled
    try:
        cache = work / "inputs" / _generator_digest(src)
        inputs = {}
        corpora = (
            ("long", LONG, synthetic.generate_corpus),
            ("short", SHORT, functools.partial(_short_corpus, synthetic)),
        )
        for name, shape, generate in corpora:
            if name not in names:
                continue

            def make(tmp: Path, shape=shape, generate=generate) -> dict:
                corpus = tmp / "corpus"
                paths = generate(corpus, shape["documents"], shape["words"], seed)
                words = sum(len(p.read_text(encoding="utf-8").split()) for p in paths)
                return {
                    "documents": len(paths),
                    "words": words,
                    "fingerprint": fingerprint(corpus),
                }

            key = f"{name}-d{shape['documents']}-w{shape['words']}-seed{seed}"
            info = _build(cache / key, make)
            inputs[name] = dict(info, path=str(cache / key / "corpus"), shape=shape)

        def make_dictionary(tmp: Path) -> dict:
            synthetic.generate_lemma_dictionary(tmp / "lemmas.tsv", DICTIONARY_ENTRIES, seed)
            return {"entries": DICTIONARY_ENTRIES}

        if "dictionary" in names:
            key = f"lemmas-{DICTIONARY_ENTRIES}-seed{seed}"
            info = _build(cache / key, make_dictionary)
            inputs["dictionary"] = dict(info, path=str(cache / key / "lemmas.tsv"))
    finally:
        synthetic.stem_pool = original
    return inputs
