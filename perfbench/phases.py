"""One benchmark phase in its own interpreter, driven by run.py.

    python3 perfbench/phases.py '<request JSON>'

The request names the phase (batch-3sys, cli-short or norm-sweep), the
inputs, the seed, the seconds to measure for and whether to trace. The phase
prepares its untimed state, then runs whole rounds of its work for about
those seconds (see Phase.measure), checking every output, and prints one
JSON line with its metrics (scaled, see speed.py, and as measured),
attempted and failed operations, problems found and the process's peak
resident memory.

With tracing on, the phase runs one round untraced and the same round traced
and prints the per-layer metrics; the difference between the two wall times
is the cost of tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
from tracing import Tracer

SYSTEMS = ("artex", "lead", "random")
MODES = ("raw", "fix:6", "stem", "lemma")
LABELS = ("raw", "fix6", "stem", "lemma")  # their runner.mode_label
REPETITIONS = 3  # the fewest that runner.benchmark() accepts
CLI_STRETCH = 25  # documents between two reference timings
CLI_TAIL = 0.05  # share of documents called once more at the end of a run


class WarningCount(logging.Handler):
    """Counts artex warnings: every one reports a skipped document."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class Phase:
    # Units in one round: a round gives every metric of the phase a sample.
    ROUND = 1
    # The fewest rounds that keep the phase's metrics steady.
    MIN_ROUNDS = 1

    def __init__(self, request: dict, artex) -> None:
        self.artex = artex
        self.seed = request["seed"]
        self.work = Path(request["work"])
        self.inputs = request["inputs"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.scaler = speed.Scaler()
        self.samples = self.scaler.measured
        self.warnings = WarningCount()
        logging.getLogger("artex").addHandler(self.warnings)

    def fail(self, problems: list[str], failed: int | None = None) -> None:
        self.failed += len(problems) if failed is None else failed
        self.problems.extend(problems)

    def measure(self, seconds: float) -> int:
        """Run whole rounds while the next one is expected to end within
        ``seconds``, and at least MIN_ROUNDS; return the rounds run."""
        started = time.perf_counter()
        rounds = 0
        while True:
            elapsed = time.perf_counter() - started
            if rounds >= self.MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                return rounds
            for position in range(self.ROUND):
                self.scaler.mark()
                self.run_unit(rounds * self.ROUND + position)
                self.scaler.mark()
            rounds += 1

    def prepare(self) -> None:
        """Untimed set-up before the first unit."""

    def run_unit(self, number: int) -> float:
        """Run and check unit ``number``; return its measured seconds."""
        raise NotImplementedError

    def rerun_tail(self) -> None:
        """Measured work that needs every unit done; none by default."""

    def finish(self) -> None:
        """Checks that need every unit."""

    def metrics(self, samples: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
        """Each end-to-end metric of this phase with its sample count."""
        raise NotImplementedError

    def trace_round(self) -> float:
        """The round timed once untraced and once traced."""
        return sum(self.run_unit(number) for number in range(self.ROUND))


class Batch(Phase):
    """run_corpus with three systems over the long corpus at one worker.

    One pass at two workers, in prepare, is checked against every pass at one
    worker and gives the traced run its pool speed-up.
    """

    MIN_ROUNDS = 5

    def prepare(self) -> None:
        artex = self.artex
        self.corpus = artex.CorpusSpec(Path(self.inputs["long"]["path"]))
        self.documents = sorted(p.stem for p in self.corpus.root.iterdir())
        self.words = self.inputs["long"]["words"]
        self.reference = None
        self.report_bytes = None
        self.scaler.mark()
        self.run_pass(2)
        self.scaler.mark()

    def run_pass(self, workers: int) -> float:
        artex = self.artex
        out = self.work / f"batch-w{workers}"
        shutil.rmtree(out, ignore_errors=True)
        cfg = artex.RunConfig(
            normalization=artex.Stem(),
            budget=artex.WordRatio(0.2),
            systems=SYSTEMS,
            seed=self.seed,
            out_dir=out,
            workers=workers,
        )
        started = time.perf_counter()
        results = artex.runner.run_corpus(self.corpus, cfg)
        wall = time.perf_counter() - started
        self.attempted += len(self.documents)
        table = checks.result_table(results)
        self.fail(
            checks.check_batch(
                table,
                self.documents,
                len(SYSTEMS),
                self.reference,
                checks.PINNED_BATCH_DIGEST.get(self.seed),
            )
        )
        report = (out / "report.jsonl").read_bytes()
        if self.reference is None:
            self.reference, self.report_bytes = table, report
        elif report != self.report_bytes:
            self.fail([f"report.jsonl at {workers} workers differs from the first run"], 0)
        self.scaler.add(f"wall_w{workers}_s", wall)
        return wall

    def run_unit(self, number: int) -> float:
        # At one worker, also when traced: spans in pool workers would be lost.
        return self.run_pass(1)

    def metrics(self, samples: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
        return {
            name: (self.words / statistics.median(walls), len(walls))
            for name, walls in (
                ("words_per_s", samples["wall_w1_s"]),
                ("words_per_s_w2", samples["wall_w2_s"]),
            )
        }


class Cli(Phase):
    """artex summarize, then artex eval, per short document, in this process."""

    MIN_ROUNDS = 2

    def prepare(self) -> None:
        artex = self.artex
        corpus = artex.CorpusSpec(Path(self.inputs["short"]["path"]))
        self.paths = sorted(corpus.root.iterdir())
        self.words = self.inputs["short"]["words"]
        # The reference batch is untimed; two workers halve the wait for it.
        cfg = artex.RunConfig(
            normalization=artex.Stem(),
            budget=artex.WordRatio(0.2),
            systems=("artex",),
            seed=self.seed,
            workers=2,
        )
        results = artex.runner.run_corpus(corpus, cfg)
        self.attempted += len(self.paths)
        table = checks.result_table(results)
        self.fail(
            checks.check_batch(
                table,
                [p.stem for p in self.paths],
                1,
                None,
                checks.PINNED_SHORT_DIGEST.get(self.seed),
            )
        )
        self.expected = {r.doc_id: (r.summary.text, r.report.as_dict()) for r in results}
        self.summaries = self.work / "cli-summaries"
        self.summaries.mkdir(parents=True, exist_ok=True)

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            started = time.perf_counter()
            code = self.artex.cli.main(argv)
            elapsed = time.perf_counter() - started
        self.attempted += 1
        return code, out.getvalue(), elapsed

    def run_docs(self, paths) -> float:
        total = 0.0
        for number, path in enumerate(paths):
            if number and number % CLI_STRETCH == 0:
                self.scaler.mark()
            text, report = self.expected.get(path.stem, (None, None))
            code, stdout, elapsed = self.call(["summarize", str(path)])
            total += elapsed
            self.scaler.add(f"summarize_ms/{path.stem}", elapsed * 1e3)
            if code != 0 or not checks.check_summarize(stdout, text):
                self.fail([f"summarize {path.name}: exit {code}, output differs from batch"])
            summary = self.summaries / path.name
            summary.write_text(stdout, encoding="utf-8")
            code, stdout, elapsed = self.call(["eval", str(path), str(summary)])
            total += elapsed
            self.scaler.add(f"eval_ms/{path.stem}", elapsed * 1e3)
            if code != 0 or not checks.check_eval(stdout, report):
                self.fail([f"eval {path.name}: exit {code}, report differs from batch"])
        return total

    def run_unit(self, number: int) -> float:
        return self.run_docs(self.paths)

    def rerun_tail(self) -> None:
        # A burst of load from other tenants slows the calls it hits; on this
        # machine it moved the p99 of single calls by up to 70% between runs.
        # So the slowest documents are called once more at the end, and a
        # document's latency is its fastest call, as timeit takes the best of
        # its repeats. A document that is slow by itself stays slow.
        slow = set()
        for call in ("summarize", "eval"):
            fastest = self.fastest(self.scaler.scaled, call)
            ranked = sorted(fastest, key=fastest.get)
            slow.update(ranked[len(ranked) - int(len(ranked) * CLI_TAIL) :])
        self.scaler.mark()
        self.run_docs([path for path in self.paths if path.stem in slow])
        self.scaler.mark()

    @staticmethod
    def fastest(samples: dict[str, list[float]], call: str) -> dict[str, float]:
        prefix = f"{call}_ms/"
        return {
            name[len(prefix) :]: min(values)
            for name, values in samples.items()
            if name.startswith(prefix)
        }

    def metrics(self, samples: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
        # Words through summarize and eval per second of their calls, each
        # document at its fastest call. Per-call latencies go in the record.
        fastest = {call: self.fastest(samples, call) for call in ("summarize", "eval")}
        busy_s = sum(sum(values.values()) for values in fastest.values()) / 1e3
        metrics = {"words_per_s": (self.words / busy_s, len(fastest["eval"]))}
        for call, values in fastest.items():
            latencies = list(values.values())
            metrics[f"{call}_p50_ms"] = (statistics.median(latencies), len(latencies))
            # p99 only while at least ten samples lie beyond it.
            if len(latencies) >= 1000:
                p99 = statistics.quantiles(latencies, n=100)[98]
                metrics[f"{call}_p99_ms"] = (p99, len(latencies))
        return metrics


class Sweep(Phase):
    """runner.benchmark() for one normalization mode per unit."""

    ROUND = len(MODES)
    MIN_ROUNDS = 2

    def prepare(self) -> None:
        self.corpus = self.artex.CorpusSpec(Path(self.inputs["long"]["path"]))
        self.words = self.inputs["long"]["words"]
        self.documents = self.inputs["long"]["documents"]
        self.vocabulary: dict[str, set] = {}
        self.mode_attempts: dict[str, int] = {}

    def run_unit(self, number: int) -> float:
        # Round r runs the modes starting from the r-th: every mode comes
        # first, second, third and last equally often, so background load and
        # drift within a round hit every mode alike.
        rounds, position = divmod(number, len(MODES))
        label = MODES[(rounds + position) % len(MODES)]
        spec = self.artex.runner.parse_mode(label, self.inputs["dictionary"]["path"])
        skipped = self.warnings.count
        records = self.artex.runner.benchmark(self.corpus, [spec], REPETITIONS)
        skipped = self.warnings.count - skipped
        attempts = self.documents * REPETITIONS
        self.attempted += attempts
        self.mode_attempts[spec.label] = self.mode_attempts.get(spec.label, 0) + attempts
        if skipped or len(records) != REPETITIONS:
            self.fail([f"{spec.label}: {skipped} documents skipped"], skipped * REPETITIONS)
        for record in records:
            self.vocabulary.setdefault(spec.label, set()).add(record.vocabulary_size)
            self.scaler.add(f"{spec.label}_s", record.total_seconds)
        return sum(record.total_seconds for record in records)

    def finish(self) -> None:
        problems = checks.check_vocabulary(
            self.vocabulary, checks.PINNED_VOCABULARY.get(self.seed)
        )
        for problem in problems:
            self.fail([problem], self.mode_attempts[problem.split(":", 1)[0]])

    def metrics(self, samples: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
        # Words per second through one repetition of every mode: the corpus
        # once per mode over the sum of the modes' median total_seconds.
        medians = {label: statistics.median(samples[f"{label}_s"]) for label in LABELS}
        count = min(len(samples[f"{label}_s"]) for label in LABELS)
        metrics = {"words_per_s": (len(LABELS) * self.words / sum(medians.values()), count)}
        for label, median in medians.items():
            metrics[f"sweep_{label}_s"] = (median, len(samples[f"{label}_s"]))
        return metrics


PHASES = {"batch-3sys": Batch, "cli-short": Cli, "norm-sweep": Sweep}


def traced(phase: Phase, artex, trace_file: Path) -> dict:
    untraced = phase.trace_round()
    tracer = Tracer()
    tracer.install(artex)
    try:
        wall = phase.trace_round()
    finally:
        tracer.restore()
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = wall - untraced
    w1 = phase.samples.get("wall_w1_s", [0.0])[0]
    w2 = phase.samples.get("wall_w2_s", [0.0])[0]
    layers["runner.wall_w1_s"], layers["runner.wall_w2_s"] = w1, w2
    layers["runner.pool_speedup"] = w1 / w2 if w2 else 0.0
    return {"layers": layers, "missing": tracer.missing, "spans": tracer.write(trace_file)}


def main(request: dict) -> None:
    sys.path.insert(0, request["src"])
    import artex
    import artex.cli
    import artex.runner

    phase = PHASES[request["phase"]](request, artex)
    phase.prepare()
    result: dict = {"phase": request["phase"]}
    if request["trace"]:
        result.update(traced(phase, artex, Path(request["trace_file"])))
    else:
        result["rounds"] = phase.measure(request["seconds"])
        phase.rerun_tail()
    phase.finish()
    result.update(
        metrics={} if request["trace"] else phase.metrics(phase.scaler.scaled),
        measured={} if request["trace"] else phase.metrics(phase.samples),
        attempted=phase.attempted,
        failed=phase.failed,
        problems=phase.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
