"""Corpus ingestion, batch summarization, evaluation sweeps, and timing.

A corpus is either a directory of flat files (one document each) or a
directory of cluster subdirectories whose files are concatenated in
filename order and summarized as one document. Each document is processed
in isolation: failures are logged and skipped without aborting the batch.
Outputs are deterministic for a fixed corpus, configuration, and seed;
timing fields are the only nondeterministic values and live in their own
file.
"""

from __future__ import annotations

# The process pool, statistics, csv and hashlib are imported in the calls
# that use them: ``import artex`` is paid by every CLI process, and most of
# them never start a pool, summarize timings or draw a random baseline.
import json
import logging
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from .baselines import lead_baseline, random_baseline
from .errors import ArtexError, CorpusEmpty, CorpusError
from .evaluation import DivergenceReport, prepare_source, stem_types
from .preprocess import (
    Lemmatize,
    NormalizationMode,
    Raw,
    RawDocument,
    Stem,
    StopList,
    UltraStem,
    clean_document,
    normalize_document,
    preprocess_document,
)
from .scorer import DEFAULT_BUDGET, CompressionSpec, Summary, score, select

logger = logging.getLogger(__name__)

SYSTEMS = ("artex", "lead", "random")

FLAT = "flat"
CLUSTERS = "clusters"


def parse_mode(label: str, dictionary_path: str | Path | None = None) -> NormalizationMode:
    """Parse a normalization label: raw | lemma | stem | fix:N.

    ``dictionary_path`` is kept by lemma and ignored by the other modes.
    """
    label = label.strip().lower()
    if label == "raw":
        return Raw()
    if label == "stem":
        return Stem()
    if label == "lemma":
        return Lemmatize(dictionary_path)
    if label.startswith("fix:"):
        try:
            n = int(label.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad truncation length in {label!r}") from None
        return UltraStem(n)
    raise ValueError(f"unknown normalization: {label!r} (want raw|lemma|stem|fix:N)")


@dataclass(frozen=True)
class CorpusSpec:
    """Where a corpus lives and how its files map to documents."""

    root: Path
    layout: str = FLAT
    language: str = "en"

    def __post_init__(self) -> None:
        if self.layout not in (FLAT, CLUSTERS):
            raise ValueError(f"unknown layout: {self.layout!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs besides the corpus itself."""

    normalization: NormalizationMode = Stem()
    budget: CompressionSpec = DEFAULT_BUDGET
    systems: tuple[str, ...] = ("artex",)
    seed: int = 0
    out_dir: Path | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        unknown = set(self.systems) - set(SYSTEMS)
        if unknown:
            raise ValueError(f"unknown systems: {sorted(unknown)}")
        if not self.systems:
            raise ValueError("at least one system must be selected")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")


@dataclass(frozen=True)
class TimingRecord:
    """Wall-clock phase timings for one processed unit (monotonic clock).

    The preprocessing phase covers splitting, filtering and normalization,
    plus stemming every word for the evaluator in batch mode and
    per-repetition resource loading in benchmark mode. The scoring phase
    covers the system's sentence scoring (artex only) and its selection; a
    batch scores before it prepares the source for evaluation, and adds that
    time to artex's scoring phase. The total is the sum of both phases. In a
    batch, ``corpus_id`` holds the document ID, and ``repetition`` and
    ``vocabulary_size`` are None (empty in timings.csv).
    """

    system: str
    normalization: str
    corpus_id: str
    preprocess_seconds: float
    score_seconds: float
    repetition: int | None = None
    vocabulary_size: int | None = None

    CSV_COLUMNS = (
        "system",
        "normalization",
        "corpus_id",
        "repetition",
        "preprocess_seconds",
        "score_seconds",
        "total_seconds",
        "vocabulary_size",
    )

    @property
    def total_seconds(self) -> float:
        return self.preprocess_seconds + self.score_seconds

    def as_row(self) -> list[str]:
        return [
            self.system,
            self.normalization,
            self.corpus_id,
            "" if self.repetition is None else str(self.repetition),
            repr(self.preprocess_seconds),
            repr(self.score_seconds),
            repr(self.total_seconds),
            "" if self.vocabulary_size is None else str(self.vocabulary_size),
        ]


@dataclass(frozen=True)
class RunResult:
    """One summary with its evaluation and its phase timings."""

    doc_id: str
    system: str
    normalization: str
    summary: Summary
    report: DivergenceReport
    timing: TimingRecord


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
        claimed: dict[str, Path] = {}
        for path in sorted(root.iterdir()):
            if not path.is_file() or path.name.startswith("."):
                continue
            if path.stem in claimed:
                raise CorpusError(
                    f"{claimed[path.stem]} and {path} both have document ID {path.stem!r}"
                )
            claimed[path.stem] = path
            text = _read_text(path)
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
                text = _read_text(path)
                if text:
                    parts.append(text)
            if parts:
                documents.append(
                    RawDocument(id=cluster.name, text="\n".join(parts), language=spec.language)
                )
    if not documents:
        raise CorpusEmpty(f"no usable documents under {root}")
    return documents


def _read_text(path: Path) -> str | None:
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        logger.warning("skipping %s: %s", path, exc)
        return None
    if not text.strip():
        logger.warning("skipping %s: file is empty", path)
        return None
    return text


def _check_out_dir(corpus: CorpusSpec, out_dir: Path | None) -> None:
    """Raise CorpusError if a later run would read ``out_dir`` as documents."""
    if out_dir is not None:
        root, out = Path(corpus.root).resolve(), Path(out_dir).resolve()
        if out == root or (corpus.layout == CLUSTERS and out.parent == root):
            raise CorpusError(f"output directory {out_dir} would be read as corpus input")


def document_seed(seed: int, doc_id: str) -> int:
    """Per-document seed for the random baseline, stable across runs."""
    import hashlib

    digest = hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _process_document(
    raw: RawDocument,
    cfg: RunConfig,
    stoplist: StopList,
    normalize: Callable[[str], str] | None,
) -> list[RunResult]:
    """Summarize one document with every configured system and evaluate.

    The source is split and cleaned once, each distinct word is stemmed
    once, and the source profiles are prepared once for every system's
    evaluation. ``normalize`` is the mode's normalizer, or None in Stem
    mode, where the summarizer takes the evaluator's stems.
    """
    label = cfg.normalization.label
    clock = time.perf_counter

    t0 = clock()
    cleaned = clean_document(raw, stoplist)
    stems = stem_types(cleaned)
    doc = normalize_document(cleaned, normalize or stems.__getitem__)
    t1 = clock()
    preprocess_seconds = t1 - t0
    # Scored before the source is prepared, so that a document artex cannot
    # summarize fails before the costliest step.
    scores = score(doc.terms) if "artex" in cfg.systems else None
    scoring_seconds = clock() - t1

    source = prepare_source(cleaned, stems)
    results = []
    for system in SYSTEMS:
        if system not in cfg.systems:
            continue
        s0 = clock()
        if system == "artex":
            s0 -= scoring_seconds  # artex's phase holds its scoring too
            summary = select(scores, doc.sentences, cfg.budget)
        elif system == "lead":
            summary = lead_baseline(doc.sentences, cfg.budget)
        else:
            summary = random_baseline(
                doc.sentences, cfg.budget, document_seed(cfg.seed, raw.id)
            )
        s1 = clock()
        results.append(
            RunResult(
                doc_id=raw.id,
                system=system,
                normalization=label,
                summary=summary,
                report=source.evaluate(summary.selected),
                timing=TimingRecord(
                    system=system,
                    normalization=label,
                    corpus_id=raw.id,
                    preprocess_seconds=preprocess_seconds,
                    score_seconds=s1 - s0,
                ),
            )
        )
    return results


_WORKER_STATE: tuple[RunConfig, StopList, Callable[[str], str] | None] | None = None


def _worker_init(
    cfg: RunConfig, stoplist: StopList, normalize: Callable[[str], str] | None
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (cfg, stoplist, normalize)


def _outcome(
    raw: RawDocument,
    cfg: RunConfig,
    stoplist: StopList,
    normalize: Callable[[str], str] | None,
) -> tuple[str, list[RunResult], str | None]:
    """A document's ID and results, or its skip message if it fails."""
    try:
        return raw.id, _process_document(raw, cfg, stoplist, normalize), None
    except ArtexError as exc:
        return raw.id, [], f"{type(exc).__name__}: {exc}"


def _worker_run(raw: RawDocument) -> tuple[str, list[RunResult], str | None]:
    return _outcome(raw, *_WORKER_STATE)


def run_corpus(corpus: CorpusSpec, cfg: RunConfig) -> list[RunResult]:
    """Summarize and evaluate every corpus document; write outputs if asked.

    Documents are independent work units; with ``cfg.workers > 1`` they are
    processed in a process pool of at most one worker per document, and all
    file writes happen afterwards in deterministic document order either
    way. A document that fails (for example because filtering removed every
    token) is logged and skipped.
    The mode's normalizer (with its lemma dictionary) is loaded once, here,
    before the corpus, so that a missing or unreadable dictionary fails the
    run rather than each document or worker. An ``out_dir`` that a later
    run would read as documents raises CorpusError before any work.
    """
    _check_out_dir(corpus, cfg.out_dir)
    mode = cfg.normalization
    # In Stem mode the summarizer reads the evaluator's stems of each document.
    normalize = None if isinstance(mode, Stem) else mode.normalizer(corpus.language)
    documents = load_corpus(corpus)
    stoplist = StopList.bundled(corpus.language)
    results: list[RunResult] = []
    # A pool starts all its workers at once, so it gets no more than there
    # are documents.
    workers = min(cfg.workers, len(documents))
    if workers == 1:
        outcomes = [_outcome(raw, cfg, stoplist, normalize) for raw in documents]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(cfg, stoplist, normalize),
        ) as pool:
            outcomes = list(pool.map(_worker_run, documents))
    for doc_id, doc_results, error in outcomes:
        if error is not None:
            logger.warning("skipping document %s: %s", doc_id, error)
        results.extend(doc_results)
    if cfg.out_dir is not None:
        write_outputs(results, Path(cfg.out_dir))
    return results


def write_outputs(results: Sequence[RunResult], out_dir: Path) -> None:
    """Write summary files, report.jsonl and timings.csv, in result order.

    Every ``<system>/<mode>/*.summary.txt`` this run did not write is removed,
    so that an earlier run's cannot pass for this run's; other files stay.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written = set()
    with open(out_dir / "report.jsonl", "w", encoding="utf-8") as reports:
        for result in results:
            directory = out_dir / result.system / result.normalization
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{result.doc_id}.summary.txt"
            path.write_text(result.summary.text + "\n", encoding="utf-8")
            written.add(path)
            line = {
                "doc_id": result.doc_id,
                "system": result.system,
                "normalization": result.normalization,
            }
            line.update(result.report.as_dict())
            reports.write(json.dumps(line) + "\n")
    write_timings([result.timing for result in results], out_dir / "timings.csv")
    for system in SYSTEMS:
        for path in out_dir.glob(f"{system}/*/*.summary.txt"):
            if path not in written:
                path.unlink()


def write_timings(records: Sequence[TimingRecord], path: Path) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TimingRecord.CSV_COLUMNS)
        for record in records:
            writer.writerow(record.as_row())


def benchmark(
    corpus: CorpusSpec,
    modes: Sequence[NormalizationMode],
    repetitions: int,
    out_dir: Path | None = None,
) -> list[TimingRecord]:
    """Time the full pipeline per normalization mode, repeated for stability.

    Each repetition first re-acquires every mode's resources (dictionary
    load, stemmer lookup table) inside that mode's timed preprocessing
    phase, so modes backed by heavy resources are charged their real cost.
    Then each document goes through every mode in turn, and each mode's
    phases are summed over the documents: a machine that speeds up or slows
    down during the run weighs on all modes alike. The resources are freed
    after the repetition, outside every timed region. Documents are
    processed sequentially: benchmark mode forces a single worker so
    measurements are uncontended. Corpus file reading happens once, outside
    the timed regions, because it is identical for every mode. Records are
    told apart by mode label, so two modes with one label raise ValueError.
    An ``out_dir`` that a later run would read as documents raises
    CorpusError before any work.
    """
    _check_out_dir(corpus, out_dir)
    if repetitions < 3:
        raise ValueError(f"need at least 3 repetitions, got {repetitions}")
    labels = [mode.label for mode in modes]
    if len(set(labels)) < len(labels):
        raise ValueError(f"normalization modes repeat a label: {', '.join(labels)}")
    documents = load_corpus(corpus)
    stoplist = StopList.bundled(corpus.language)
    # Resolved first: the name of "." or ".." is "" or "..".
    corpus_id = Path(corpus.root).resolve().name
    records: list[TimingRecord] = []
    failed: list[set[str]] = [set() for _ in modes]
    for repetition in range(repetitions):
        # The modes' resources are freed when this call returns, outside
        # the timed regions and before the next repetition loads them again.
        records += _timed_repetition(
            documents, corpus.language, stoplist, modes, failed, corpus_id, repetition
        )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_timings(records, out_dir / "timings.csv")
    return records


def _timed_repetition(
    documents: Sequence[RawDocument],
    language: str,
    stoplist: StopList,
    modes: Sequence[NormalizationMode],
    failed: list[set[str]],
    corpus_id: str,
    repetition: int,
) -> list[TimingRecord]:
    """Run every mode over every document once, document by document.

    Returns one record per mode: its preprocessing and scoring seconds and
    its vocabulary size, summed over the documents it did not skip. A
    document that fails in a mode is added to that mode's ``failed`` set
    and skipped by it from then on, so every repetition sums the sizes of
    the same documents.
    """
    clock = time.perf_counter
    normalizers = []
    preprocess_seconds = []
    for mode in modes:
        t0 = clock()
        normalizers.append(mode.normalizer(language))
        preprocess_seconds.append(clock() - t0)
    score_seconds = [0.0] * len(modes)
    sizes = [0] * len(modes)
    for raw in documents:
        for position, normalize in enumerate(normalizers):
            if raw.id in failed[position]:
                continue
            t0 = clock()
            try:
                doc = preprocess_document(raw, stoplist, normalize)
                t1 = clock()
                select(score(doc.terms), doc.sentences, DEFAULT_BUDGET)
            except ArtexError as exc:
                preprocess_seconds[position] += clock() - t0
                failed[position].add(raw.id)
                logger.warning("benchmark skips document %s: %s", raw.id, exc)
                continue
            t2 = clock()
            preprocess_seconds[position] += t1 - t0
            score_seconds[position] += t2 - t1
            sizes[position] += len(set(chain.from_iterable(doc.terms)))
    return [
        TimingRecord(
            system="artex",
            normalization=mode.label,
            corpus_id=corpus_id,
            preprocess_seconds=preprocess_seconds[position],
            score_seconds=score_seconds[position],
            repetition=repetition,
            vocabulary_size=sizes[position],
        )
        for position, mode in enumerate(modes)
    ]


def benchmark_summary(records: Sequence[TimingRecord]) -> list[dict]:
    """Median and spread of total seconds per mode, with vocabulary size."""
    from statistics import median

    by_mode: dict[str, list[TimingRecord]] = {}
    for record in records:
        by_mode.setdefault(record.normalization, []).append(record)
    summary = []
    for label, group in by_mode.items():
        totals = [record.total_seconds for record in group]
        summary.append(
            {
                "normalization": label,
                "repetitions": len(group),
                "median_seconds": median(totals),
                "min_seconds": min(totals),
                "max_seconds": max(totals),
                "vocabulary_size": group[0].vocabulary_size,
            }
        )
    summary.sort(key=lambda item: item["median_seconds"])
    return summary
