"""Corpus ingestion: a directory of documents read into RawDocuments.

A corpus is either a directory of flat files (one document each) or a
directory of cluster subdirectories whose files are concatenated in
filename order and read as one document. Unreadable and empty files are
skipped with a warning. This module needs only ``preprocess`` and
``errors``, so a caller that only loads a corpus imports neither the
summarizer nor the evaluator.
"""

from __future__ import annotations

import os
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import CorpusEmpty, CorpusError, warn
from .preprocess import RawDocument, checked, read_text

FLAT = "flat"
CLUSTERS = "clusters"

# Skipped files are reported under the batch runner's logger, as they were
# when the runner read the corpus itself.
LOGGER = "artex.runner"


@checked
class CorpusSpec(NamedTuple):
    """Where a corpus lives and how its files map to documents."""

    root: Path
    layout: str = FLAT
    language: str = "en"

    def _check(self):
        if self.layout not in (FLAT, CLUSTERS):
            raise ValueError(f"unknown layout: {self.layout!r}")


def load_corpus(spec: CorpusSpec) -> list[RawDocument]:
    """Read the corpus into documents; unreadable or empty files are skipped.

    A flat file's document ID is its name without the extension. Two files
    with the same ID (``b.txt`` and ``b.md``) raise CorpusError, since
    their outputs and random-baseline seeds would collide.
    """
    root = Path(spec.root)
    if not root.is_dir():
        raise CorpusEmpty(f"corpus root is not a directory: {root}")
    documents: list[RawDocument] = []
    if spec.layout == FLAT:
        claimed: dict[str, str] = {}
        for name, path in _listing(root, "is_file"):
            # PurePath(name).stem, which keeps "a." whole.
            head, _, suffix = name.rpartition(".")
            doc_id = head if head and suffix else name
            if doc_id in claimed:
                raise CorpusError(
                    f"{claimed[doc_id]} and {path} both have document ID {doc_id!r}"
                )
            claimed[doc_id] = path
            text = _read_text(path)
            if text:
                documents.append(RawDocument(id=doc_id, text=text, language=spec.language))
    else:
        for name, path in _listing(root, "is_dir"):
            texts = (_read_text(file) for _, file in _listing(Path(path), "is_file"))
            parts = [text for text in texts if text]
            if parts:
                documents.append(
                    RawDocument(id=name, text="\n".join(parts), language=spec.language)
                )
    if not documents:
        raise CorpusEmpty(f"no usable documents under {root}")
    return documents


def _listing(directory: Path, kind: str) -> list[tuple[str, str]]:
    """(name, str(directory / name)) of each entry that ``kind`` ("is_file" or
    "is_dir") accepts, in code-point order of the names, skipping names that
    start with "."; a symbolic link is tested as Path tests it.
    """
    prefix = os.path.join(directory, "") if directory.parts else ""  # Path(".") / name
    # A scanned entry knows its type: testing a file that is no link costs no stat.
    with os.scandir(directory) as scan:
        entries = sorted(scan, key=attrgetter("name"))
    return [
        (entry.name, prefix + entry.name)
        for entry in entries
        if not entry.name.startswith(".")
        and getattr(Path(entry.path) if entry.is_symlink() else entry, kind)()
    ]


def _read_text(path: str) -> str | None:
    try:
        text = read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            # read_text ends the reason with the file's name; the warning starts with it.
            exc.reason = exc.reason.removesuffix(f" in {path}")
        warn(LOGGER, "skipping %s: %s", path, exc)
        return None
    if not text or text.isspace():
        warn(LOGGER, "skipping %s: file is empty", path)
        return None
    return text
