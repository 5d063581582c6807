"""Spans and counts around calls into artex's modules, recorded from outside.

The tracer replaces, for the length of one traced pass, the names that
``artex.cli``, ``artex.runner``, ``artex.preprocess`` and ``artex.evaluation``
look up at call time (plus ``StopList.bundled``) with wrappers that open a
span, and restores the originals afterwards. Nothing under ``src/`` changes.
A name that no longer exists is reported as missing and its layer reads zero;
the run goes on.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
written out by :meth:`Tracer.write` when the run ends. A layer's self time is
the time its spans were open minus the time covered by their child spans;
it is accumulated as spans close.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list] = []  # [span id, ns covered by children, name]
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.document = None  # key of the source document being processed
        self.source = None  # source token stream of the current evaluation
        self.stem_pairs: set = set()
        self.source_profiles: set = set()
        self.missing: list[str] = []
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        span = len(self.span_start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(self._ids[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        frame = [span, 0, name]
        self._stack.append(frame)
        self.span_start.append(perf_counter_ns())
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter_ns()
        span, covered, name = frame
        self.span_end[span] = end
        duration = end - self.span_start[span]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self.self_ns[name] += duration - covered
        self.calls[name] += 1

    @property
    def parent(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def timed(self, name: str, after=None):
        """Wrapper factory: a span around each call, then ``after(result, args)``."""

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit(frame)
                if after is not None:
                    after(result, args)
                return result

            return wrapper

        return make

    def write(self, path: Path) -> int:
        """Write every span as ``id parent name start_ns end_ns``; return the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for span in range(len(self.span_start)):
                handle.write(
                    f"{span}\t{self.span_parent[span]}\t{self.names[self.span_name[span]]}"
                    f"\t{self.span_start[span]}\t{self.span_end[span]}\n"
                )
        return len(self.span_start)

    # -- patching ------------------------------------------------------------

    def patch(self, target, attr: str, make) -> None:
        """Replace ``target.attr`` by ``make(original)`` until :meth:`restore`."""
        if not hasattr(target, attr):
            self.missing.append(f"{target.__name__}.{attr}")
            return
        static = inspect.getattr_static(target, attr)
        wrapped = make(getattr(target, attr))
        setattr(target, attr, staticmethod(wrapped) if isinstance(target, type) else wrapped)
        self._patches.append((target, attr, static))

    def restore(self) -> None:
        for target, attr, static in reversed(self._patches):
            setattr(target, attr, static)
        self._patches.clear()

    # -- wiring --------------------------------------------------------------

    def install(self, artex) -> None:
        """Wrap every layer boundary that the workloads cross."""
        cli, runner = artex.cli, artex.runner
        preprocess, evaluation = artex.preprocess, artex.evaluation
        count = self.counts

        def vectorized(result, args):
            vocabulary, matrix = result
            count["vsm.terms"] += len(vocabulary)
            count["vsm.nnz"] += sum(len(row) for row in matrix.rows)
            if self.parent == "runner.benchmark":
                count["runner.benchmark_docs_done"] += 1

        # Token cleaning is counted at the functions that clean every token
        # they are given: a wrapper around clean_token itself would run 4.8
        # million times per norm-sweep round and triple the traced filter time.
        def split(result, args):
            count["preprocess.sentences"] += len(result)
            count["preprocess.tokens_in"] += sum(len(s.tokens) for s in result)

        def frequencies(result, args):
            count["preprocess.clean_calls"] += sum(len(s.tokens) for s in args[0])

        def filtered(result, args):
            count["preprocess.clean_calls"] += len(args[0].tokens)
            count["preprocess.tokens_kept"] += len(result.tokens)

        def evaluation_split(result, args):
            count["evaluation.clean_calls"] += sum(len(s.tokens) for s in result)

        def profiled(result, args):
            count["evaluation.profile_units"] += result.total
            if args and args[0] is self.source:
                count["evaluation.source_profiles_built"] += 1
                self.source_profiles.add((self.document, args[1] if len(args) > 1 else None))

        def stemmer_for(calls):
            def make(lookup):
                def traced_lookup(language):
                    stem = lookup(language)

                    def traced_stem(token):
                        count[calls] += 1
                        self.stem_pairs.add((self.document, token))
                        frame = self.enter("stemming.stem")
                        try:
                            return stem(token)
                        finally:
                            self.exit(frame)

                    return traced_stem

                return traced_lookup

            return make

        def process_document(fn):
            # One runner document (run_corpus): every system plus evaluation.
            def wrapper(raw, *args, **kwargs):
                count["runner.docs_attempted"] += 1
                outer, self.document = self.document, raw.id
                frame = self.enter("runner.process_document")
                try:
                    return fn(raw, *args, **kwargs)
                except artex.ArtexError:
                    count["runner.docs_failed"] += 1
                    raise
                finally:
                    self.exit(frame)
                    self.document = outer

            return wrapper

        def preprocess_document(fn):
            # Called by benchmark() directly, it starts one runner document.
            def wrapper(raw, *args, **kwargs):
                outer = self.document
                if self.parent == "runner.benchmark":
                    count["runner.benchmark_docs_attempted"] += 1
                    self.document = raw.id
                frame = self.enter("preprocess.document")
                try:
                    return fn(raw, *args, **kwargs)
                finally:
                    self.exit(frame)
                    self.document = outer

            return wrapper

        def fresa_report(fn):
            def wrapper(*args, **kwargs):
                outer, self.source = self.source, args[0] if args else kwargs.get("source_tokens")
                frame = self.enter("evaluation.report")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit(frame)
                    self.source = outer

            return wrapper

        def cli_main(fn):
            def wrapper(argv=None):
                outer = self.document
                if argv is not None and len(argv) > 1:
                    self.document = argv[1]
                frame = self.enter("cli.main")
                try:
                    return fn(argv)
                finally:
                    self.exit(frame)
                    self.document = outer

            return wrapper

        self.patch(cli, "main", cli_main)
        for module in (cli, runner):
            self.patch(module, "preprocess_document", preprocess_document)
            self.patch(module, "vectorize", self.timed("vsm.vectorize", vectorized))
            self.patch(module, "pseudo_vectors", self.timed("scorer.pseudo_vectors"))
            self.patch(module, "score", self.timed("scorer.score"))
            self.patch(module, "select", self.timed("scorer.select"))
            self.patch(module, "evaluation_tokens", self.timed("evaluation.tokens"))
            self.patch(module, "fresa_report", fresa_report)
        self.patch(runner, "run_corpus", self.timed("runner.run_corpus"))
        self.patch(runner, "benchmark", self.timed("runner.benchmark"))
        self.patch(runner, "load_corpus", self.timed("runner.load_corpus"))
        self.patch(runner, "write_outputs", self.timed("runner.write_outputs"))
        self.patch(runner, "_process_document", process_document)
        self.patch(runner, "lead_baseline", self.timed("baselines.lead"))
        self.patch(runner, "random_baseline", self.timed("baselines.random"))
        self.patch(runner, "load_lemma_dictionary", self.timed("preprocess.dictionary_load"))

        self.patch(preprocess.StopList, "bundled", self.timed("preprocess.stoplist_load"))
        self.patch(preprocess, "split_sentences", self.timed("preprocess.split", split))
        self.patch(preprocess, "document_frequencies", self.timed("preprocess.filter", frequencies))
        self.patch(preprocess, "filter_sentence", self.timed("preprocess.filter", filtered))
        self.patch(preprocess, "normalize_token", self.timed("preprocess.normalize"))
        self.patch(preprocess, "stemmer_for", stemmer_for("stemming.calls_summarizer"))

        self.patch(evaluation, "split_sentences", self.timed("evaluation.split", evaluation_split))
        self.patch(evaluation, "stemmer_for", stemmer_for("stemming.calls_evaluation"))
        self.patch(evaluation, "ngram_profile", self.timed("evaluation.profile", profiled))
        self.patch(evaluation, "divergence", self.timed("evaluation.divergence"))

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json except the run-level ones."""

        def seconds(*names: str) -> float:
            return sum(self.self_ns[name] for name in names) / 1e9

        count = self.counts
        stems = count["stemming.calls_summarizer"] + count["stemming.calls_evaluation"]
        built = count["evaluation.source_profiles_built"]
        needed = len(self.source_profiles)
        bench_attempted = count["runner.benchmark_docs_attempted"]
        return {
            "cli.self_s": seconds("cli.main"),
            "cli.calls": self.calls["cli.main"],
            "runner.load_corpus_s": seconds("runner.load_corpus"),
            "runner.write_outputs_s": seconds("runner.write_outputs"),
            "runner.self_s": seconds(
                "runner.run_corpus", "runner.benchmark", "runner.process_document"
            ),
            "runner.docs_attempted": count["runner.docs_attempted"] + bench_attempted,
            "runner.docs_failed": count["runner.docs_failed"]
            + bench_attempted
            - count["runner.benchmark_docs_done"],
            "preprocess.self_s": seconds("preprocess.document"),
            "preprocess.split_s": seconds("preprocess.split"),
            "preprocess.filter_s": seconds("preprocess.filter"),
            "preprocess.normalize_s": seconds("preprocess.normalize"),
            "preprocess.normalize_calls": self.calls["preprocess.normalize"],
            "preprocess.clean_calls": count["preprocess.clean_calls"],
            "preprocess.sentences": count["preprocess.sentences"],
            "preprocess.tokens_in": count["preprocess.tokens_in"],
            "preprocess.tokens_kept": count["preprocess.tokens_kept"],
            "preprocess.stoplist_load_s": seconds("preprocess.stoplist_load"),
            "preprocess.stoplist_loads": self.calls["preprocess.stoplist_load"],
            "preprocess.dictionary_load_s": seconds("preprocess.dictionary_load"),
            "stemming.s": seconds("stemming.stem"),
            "stemming.calls_summarizer": count["stemming.calls_summarizer"],
            "stemming.calls_evaluation": count["stemming.calls_evaluation"],
            "stemming.distinct_pairs": len(self.stem_pairs),
            "stemming.useful_ratio": len(self.stem_pairs) / stems if stems else 0.0,
            "vsm.vectorize_s": seconds("vsm.vectorize"),
            "vsm.nnz": count["vsm.nnz"],
            "vsm.terms": count["vsm.terms"],
            "scorer.score_s": seconds("scorer.pseudo_vectors", "scorer.score"),
            "scorer.select_s": seconds("scorer.select"),
            "baselines.lead_s": seconds("baselines.lead"),
            "baselines.random_s": seconds("baselines.random"),
            "evaluation.tokens_s": seconds("evaluation.tokens"),
            "evaluation.split_s": seconds("evaluation.split"),
            "evaluation.clean_calls": count["evaluation.clean_calls"],
            "evaluation.profile_s": seconds("evaluation.profile"),
            "evaluation.profile_calls": self.calls["evaluation.profile"],
            "evaluation.profile_units": count["evaluation.profile_units"],
            "evaluation.divergence_s": seconds("evaluation.divergence"),
            "evaluation.divergence_calls": self.calls["evaluation.divergence"],
            "evaluation.report_self_s": seconds("evaluation.report"),
            "evaluation.source_profiles_needed": needed,
            "evaluation.source_profiles_built": built,
            "evaluation.source_profile_useful_ratio": needed / built if built else 0.0,
            "trace.spans": len(self.span_start),
            "trace.missing_wraps": len(self.missing),
        }
