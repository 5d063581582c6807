"""Command-line interface: summarize, batch, eval, bench.

Exit codes: 0 on success, 1 for usage errors (bad flags, missing
dictionary, invalid budgets), 2 for corpus or file IO errors, 3 when the
requested result is empty (no sentences, no vocabulary, empty evaluation
source). Summaries and machine-readable reports go to stdout; logs and
debug tables go to stderr.

A process builds the argument parser once, on its first ``main`` call, and
reuses it: ``main`` keeps it private, and ``build_parser`` returns a fresh
one. Each call logs to the ``sys.stderr`` current at that call, so callers
that run ``main`` in-process may redirect it per call.
"""

from __future__ import annotations

# Every CLI call pays for these imports. json is imported only by eval and
# bench, which print it, and the runner only by batch and bench, which run it.
import argparse
import functools
import logging
import sys
from pathlib import Path

from .errors import (
    CorpusError,
    EmptyDocument,
    EmptySource,
    EmptyVocabulary,
    MissingDictionary,
)
from .evaluation import evaluation_tokens, fresa_report
from .preprocess import RawDocument, StopList, parse_mode, preprocess_document, read_text
from .scorer import SentenceCount, WordRatio, score, score_table, select
from .stemming import SUPPORTED_LANGUAGES

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _StderrHandler(logging.StreamHandler):
    """A handler that writes to whatever ``sys.stderr`` is when it emits."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def parse_budget(text: str):
    """Parse a budget flag: ``k:INT`` sentences or ``ratio:FLOAT`` words."""
    kind, sep, value = text.partition(":")
    if not sep:
        raise ValueError(f"budget must look like k:INT or ratio:FLOAT, got {text!r}")
    if kind == "k":
        convert, budget, what = int, SentenceCount, "sentence count"
    elif kind == "ratio":
        convert, budget, what = float, WordRatio, "word ratio"
    else:
        raise ValueError(f"unknown budget kind {kind!r} (want k or ratio)")
    try:
        number = convert(value)
    except ValueError:
        raise ValueError(f"bad {what} in {text!r}") from None
    return budget(number)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="artex", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser("summarize", help="summarize one document")
    summarize.add_argument("file", help="UTF-8 plain text document")
    summarize.add_argument("--lang", choices=SUPPORTED_LANGUAGES, default="en")
    summarize.add_argument("--norm", default="stem", help="raw|lemma|stem|fix:N")
    summarize.add_argument("--budget", default="ratio:0.2", help="k:INT or ratio:FLOAT")
    summarize.add_argument("--lemma-dict", default=None, help="word<TAB>lemma file")
    summarize.add_argument("--stoplist", default=None, help="stop-list file override")
    summarize.add_argument(
        "--scores", action="store_true", help="dump the per-sentence score table to stderr"
    )
    summarize.set_defaults(func=cmd_summarize)

    batch = commands.add_parser("batch", help="summarize and evaluate a corpus")
    batch.add_argument("corpus_root", help="corpus directory")
    batch.add_argument("--layout", choices=("flat", "clusters"), default="flat")
    batch.add_argument("--lang", choices=SUPPORTED_LANGUAGES, default="en")
    batch.add_argument("--systems", default="artex", help="comma list from artex,lead,random")
    batch.add_argument("--norm", default="stem", help="raw|lemma|stem|fix:N")
    batch.add_argument("--budget", default="ratio:0.2", help="k:INT or ratio:FLOAT")
    batch.add_argument("--lemma-dict", default=None, help="word<TAB>lemma file")
    batch.add_argument("--out", required=True, help="output directory")
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--workers", type=int, default=1, help="parallel document workers")
    batch.set_defaults(func=cmd_batch)

    evaluate = commands.add_parser("eval", help="evaluate a summary against its source")
    evaluate.add_argument("source", help="source document file")
    evaluate.add_argument("summary", help="summary file")
    evaluate.add_argument("--lang", choices=SUPPORTED_LANGUAGES, default="en")
    evaluate.set_defaults(func=cmd_eval)

    bench = commands.add_parser("bench", help="time the pipeline per normalization mode")
    bench.add_argument("corpus_root", help="corpus directory")
    bench.add_argument("--modes", default="stem,fix:1", help="comma list of normalizations")
    bench.add_argument("--reps", type=int, default=5, help="repetitions per mode (>= 3)")
    bench.add_argument("--out", required=True, help="output directory for timings.csv")
    bench.add_argument("--lang", choices=SUPPORTED_LANGUAGES, default="en")
    bench.add_argument("--layout", choices=("flat", "clusters"), default="flat")
    bench.add_argument("--lemma-dict", default=None, help="word<TAB>lemma file")
    bench.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser as it was, so every call in a process can share it.
    return build_parser()


def cmd_summarize(args) -> int:
    path = Path(args.file)
    text = read_text(path)
    normalize = parse_mode(args.norm, args.lemma_dict).normalizer(args.lang)
    if args.stoplist is not None:
        stoplist = StopList.from_file(args.stoplist)
    else:
        stoplist = StopList.bundled(args.lang)
    budget = parse_budget(args.budget)
    raw = RawDocument(id=path.stem, text=text, language=args.lang)
    doc = preprocess_document(raw, stoplist, normalize)
    scores = score(doc.terms)
    summary = select(scores, doc.sentences, budget)
    print(summary.text)
    if args.scores:
        print(score_table(scores, summary), file=sys.stderr)
    return 0


def cmd_batch(args) -> int:
    from .runner import CorpusSpec, RunConfig, run_corpus

    corpus = CorpusSpec(
        root=Path(args.corpus_root), layout=args.layout, language=args.lang
    )
    systems = tuple(name.strip() for name in args.systems.split(",") if name.strip())
    cfg = RunConfig(
        normalization=parse_mode(args.norm, args.lemma_dict),
        budget=parse_budget(args.budget),
        systems=systems,
        seed=args.seed,
        out_dir=Path(args.out),
        workers=args.workers,
    )
    results = run_corpus(corpus, cfg)
    if not results:
        logger.error("every document failed; nothing was summarized")
        return 3
    documents = len({result.doc_id for result in results})
    logger.info("wrote %d summaries for %d documents under %s", len(results), documents, args.out)
    return 0


def cmd_eval(args) -> int:
    import json

    source_text = read_text(Path(args.source))
    summary_text = read_text(Path(args.summary))
    # Nearly every word of a summary is a source word: stem each once.
    stoplist = StopList.bundled(args.lang)
    stems: dict[str, str] = {}
    report = fresa_report(
        evaluation_tokens(source_text, args.lang, stoplist, stems),
        evaluation_tokens(summary_text, args.lang, stoplist, stems),
    )
    print(json.dumps(report.as_dict()))
    return 0


def cmd_bench(args) -> int:
    import json

    from .runner import CorpusSpec, benchmark, benchmark_summary

    corpus = CorpusSpec(
        root=Path(args.corpus_root), layout=args.layout, language=args.lang
    )
    modes = [
        parse_mode(label, args.lemma_dict)
        for label in (piece.strip() for piece in args.modes.split(","))
        if label
    ]
    if not modes:
        raise ValueError("no normalization modes given")
    records = benchmark(corpus, modes, args.reps, out_dir=Path(args.out))
    print(json.dumps(benchmark_summary(records), indent=2))
    return 0


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 1
    logging.basicConfig(
        handlers=[_StderrHandler()],
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CorpusError, OSError, UnicodeDecodeError) as exc:
        # Before ValueError: UnicodeDecodeError is one.
        logger.error("%s", exc)
        return 2
    except (MissingDictionary, ValueError) as exc:
        logger.error("%s", exc)
        return 1
    except (EmptyDocument, EmptyVocabulary, EmptySource) as exc:
        logger.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
