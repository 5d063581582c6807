"""The artex benchmark: seeded inputs, three workloads, checked outputs.

    python3 perfbench/run.py --workload batch-3sys --seed 0 --seconds 60 --trace 0

Workloads (BENCHMARK.json says why each one is there):
  batch-3sys  run_corpus with artex, lead and random over 100 docs x ~2,000
              words at 1 worker, after one checked pass at 2 workers
  cli-short   artex.cli.main summarize, then eval, per doc of 1,000 docs of
              ~250 words, in one process
  norm-sweep  runner.benchmark() per mode raw, fix:6, stem and lemma with a
              1,000,000-entry lemma dictionary, the mode order rotated
              between rounds

Inputs are generated from --seed with artex.synthetic and cached under
.perfbench-work/ at the repository root. The workload runs in its own fresh
interpreter, with a single caller (closed loop).

With --trace 0 the run reports every end-to-end metric of BENCHMARK.json:
set-up time (the median over fresh interpreters), the peak memory of the
workload's process and its throughput in words per second, from whole
rounds of the workload run for about --seconds (see phases.py). Times are scaled to a
nominal machine speed (see speed.py).

With --trace 1 the workload runs one round untraced and the same round
traced (see tracing.py), and the run reports every per-layer metric; the
spans go to .perfbench-work/traces/.

Every output is checked (see checks.py). The last line of stdout is one JSON
object with correct, attempted, failed and metrics; the full record of the
run (metadata, sample counts, unscaled values, per-call latencies and
per-mode times, problems found) goes to .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from inputs import prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("batch-3sys", "cli-short", "norm-sweep")
CORPUS_OF = {"batch-3sys": "long", "cli-short": "short", "norm-sweep": "long"}
INPUTS_OF = {
    "batch-3sys": ("long",),
    "cli-short": ("short",),
    "norm-sweep": ("long", "dictionary"),
}
SETUP_PROBES = 9
DEADLINE_S = 170.0


class Child:
    """The workload's phase in a fresh interpreter."""

    def __init__(self, phase: str, args, inputs: dict) -> None:
        request = {
            "phase": phase,
            "src": str(SRC),
            "work": str(WORK / "run" / phase),
            "inputs": inputs,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "trace_file": str(WORK / "traces" / f"{phase}-seed{args.seed}.tsv"),
        }
        self.phase = phase
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "phases.py"), json.dumps(request)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            start_new_session=True,
        )

    def result(self) -> dict:
        line = self.proc.stdout.readline()
        if self.proc.wait() != 0 or not line:
            raise RuntimeError(f"{self.phase} exited with status {self.proc.returncode}")
        return json.loads(line)

    def kill(self) -> None:
        if self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def setup_seconds(corpus: str, deadline: float) -> speed.Scaler:
    """Set-up times of fresh interpreters (the median discounts a first one
    that compiles bytecode)."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), corpus]
    scaler = speed.Scaler()
    for _ in range(SETUP_PROBES):
        scaler.mark()
        done = subprocess.run(
            probe, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        scaler.add("setup_s", float(done.stdout.split()[-1]))
    scaler.mark()
    return scaler


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind through the finally below that stops the phases.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "artex" / "__init__.py").is_file():
        print(f"error: no artex sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    import artex

    inputs = prepare(WORK, SRC, args.seed, INPUTS_OF[args.workload])
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    measured: dict[str, float] = {}
    if not args.trace:
        setup = setup_seconds(inputs[CORPUS_OF[args.workload]]["path"], deadline)
        values["setup_s"] = statistics.median(setup.scaled["setup_s"])
        measured["setup_s"] = statistics.median(setup.measured["setup_s"])
        samples["setup_s"] = len(setup.measured["setup_s"])
    child = Child(args.workload, args, inputs)
    watchdog = threading.Timer(deadline - time.monotonic(), child.kill)
    watchdog.start()
    try:
        result = child.result()
    finally:
        watchdog.cancel()
        child.kill()
    for name, (value, count) in result["metrics"].items():
        values[name], samples[name] = value, count
    for name, (value, _) in result["measured"].items():
        measured[name] = value
    values.update(result.get("layers", {}))
    values["peak_rss_mb"] = measured["peak_rss_mb"] = result["peak_rss_mb"]

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: the run produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
    correct = failed == 0 and not problems

    record = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "artex": artex.__version__,
            "commit": git_commit(),
            "workers": [1, 2] if args.workload == "batch-3sys" else [1],
            "inputs": inputs,
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: values[name] for name in units},
        "samples": samples,
        "details": {name: values[name] for name in values if name not in units},
        "measured": measured,
        "phase": result,
    }
    records = WORK / "results"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")

    meta = record["meta"]
    print(
        f"{args.workload} seed {args.seed}: attempted {attempted}, failed {failed};"
        f" artex {meta['artex']}, Python {meta['python']}, {meta['nproc']} CPUs"
    )
    for problem in problems:
        print(f"  problem: {problem}")
    for name in result.get("missing", []):
        print(f"  missing (layer reads zero): {name}")
    for name, unit in units.items():
        counted = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {values[name]:>14.6g} {unit}{counted}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
