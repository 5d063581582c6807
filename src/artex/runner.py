"""Batch summarization, evaluation sweeps, and timing.

A batch reads its corpus with :mod:`artex.corpus` and processes each
document in isolation: failures are logged and skipped without aborting the
batch. Outputs are deterministic for a fixed corpus, configuration, and
seed; timing fields are the only nondeterministic values and live in their
own file.
"""

from __future__ import annotations

# The process pool, statistics, csv, hashlib and json are imported in the calls
# that use them, and logging by the first warning (errors.warn): most processes
# never start a pool, summarize timings, draw a random baseline, write JSON or
# warn. A process that only loads a corpus imports artex.corpus, not this module.
import time
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

# CorpusSpec, load_corpus and parse_mode are also artex.runner's own names,
# and run_corpus and benchmark call load_corpus through this module's global.
from .corpus import CLUSTERS, CorpusSpec, load_corpus
from .errors import ArtexError, CorpusError, warn
from .evaluation import DivergenceReport, prepare_source, stem_types
from .preprocess import (
    NormalizationMode,
    RawDocument,
    Stem,
    StopList,
    checked,
    clean_document,
    normalize_document,
    parse_mode,
    preprocess_document,
)
from .scorer import (
    DEFAULT_BUDGET, CompressionSpec, Summary, lead_baseline, random_baseline, score, select,
)

SYSTEMS = ("artex", "lead", "random")


@checked
class RunConfig(NamedTuple):
    """Everything a batch run needs besides the corpus itself."""

    normalization: NormalizationMode = Stem()
    budget: CompressionSpec = DEFAULT_BUDGET
    systems: tuple[str, ...] = ("artex",)
    seed: int = 0
    out_dir: Path | None = None
    workers: int = 1

    def _check(self):
        unknown = set(self.systems) - set(SYSTEMS)
        if unknown:
            raise ValueError(f"unknown systems: {sorted(unknown)}")
        if not self.systems:
            raise ValueError("at least one system must be selected")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ValueError(f"worker count must be an integer, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")


class TimingRecord(NamedTuple):
    """Wall-clock phase timings for one processed unit (monotonic clock).

    The preprocessing phase covers splitting, filtering and normalization,
    plus stemming every word for the evaluator in batch mode and
    per-repetition resource loading in benchmark mode. The scoring phase
    covers the system's selection, artex's including its sentence scoring.
    The total is the sum of both phases. In a batch, ``corpus_id`` holds the
    document ID, and ``repetition`` and ``vocabulary_size`` are None (empty
    in timings.csv). A batch preprocesses a document once for all its
    systems, so each system's row repeats the document's
    ``preprocess_seconds``: summing ``total_seconds`` over the systems
    counts that preprocessing once per system. Preparing the source for
    evaluation and evaluating the summaries fall in no phase.
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


class RunResult(NamedTuple):
    """One summary with its evaluation and its phase timings."""

    doc_id: str
    system: str
    normalization: str
    summary: Summary
    report: DivergenceReport
    timing: TimingRecord


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
    """Summarize one document with every configured system, then evaluate.

    The source is split and cleaned once, and each distinct word is stemmed
    once. Every system selects its summary first, artex scoring inside its
    own timed block; then the source profiles are prepared once for every
    summary's evaluation, so that a document artex cannot score fails before
    the costliest step. ``normalize`` is the mode's normalizer, or None in
    Stem mode, where the summarizer takes the evaluator's stems.
    """
    label = cfg.normalization.label
    clock = time.perf_counter

    t0 = clock()
    cleaned = clean_document(raw, stoplist)
    stems = stem_types(cleaned)
    doc = normalize_document(cleaned, normalize or stems.__getitem__)
    preprocess_seconds = clock() - t0

    selections = []
    for system in SYSTEMS:
        if system not in cfg.systems:
            continue
        s0 = clock()
        if system == "artex":
            summary = select(score(doc.terms), doc.sentences, cfg.budget)
        elif system == "lead":
            summary = lead_baseline(doc.sentences, cfg.budget)
        else:
            summary = random_baseline(
                doc.sentences, cfg.budget, document_seed(cfg.seed, raw.id)
            )
        selections.append((system, summary, clock() - s0))

    source = prepare_source(cleaned, stems)
    return [
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
                score_seconds=seconds,
            ),
        )
        for system, summary, seconds in selections
    ]


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
            warn(__name__, "skipping document %s: %s", doc_id, error)
        results.extend(doc_results)
    if cfg.out_dir is not None:
        write_outputs(results, Path(cfg.out_dir))
    return results


def write_outputs(results: Sequence[RunResult], out_dir: Path) -> None:
    """Write summary files, report.jsonl and timings.csv, in result order.

    Every ``<system>/<mode>/*.summary.txt`` this run did not write is removed,
    so that an earlier run's cannot pass for this run's; other files stay.
    """
    import json

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
            writer.writerow([getattr(record, c) for c in TimingRecord.CSV_COLUMNS])


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
    for repetition in range(repetitions):
        # The modes' resources are freed when this call returns, outside
        # the timed regions and before the next repetition loads them again.
        records += _timed_repetition(
            documents, corpus.language, stoplist, modes, corpus_id, repetition
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
    corpus_id: str,
    repetition: int,
) -> list[TimingRecord]:
    """Run every mode over every document once, document by document.

    Returns one record per mode: its scoring seconds and vocabulary size over
    the documents that did not fail in it, and its preprocessing seconds, which
    also count its set-up and each failing document's time up to the failure.
    Every repetition attempts every document in every mode: splitting and
    filtering do not depend on the repetition, and each repetition loads the
    same resources, so a document fails in a mode in every repetition or in
    none. Only repetition 0 logs the failure.
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
            t0 = clock()
            try:
                doc = preprocess_document(raw, stoplist, normalize)
                t1 = clock()
                select(score(doc.terms), doc.sentences, DEFAULT_BUDGET)
            except ArtexError as exc:
                preprocess_seconds[position] += clock() - t0
                if repetition == 0:
                    warn(__name__, "benchmark skips document %s: %s", raw.id, exc)
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
