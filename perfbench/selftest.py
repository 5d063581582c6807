"""Shows that every output check of the benchmark rejects a perturbed output.

    python3 perfbench/selftest.py

Runs the seed-0 batch of the long corpus once at one worker (about three
seconds), confirms that the real outputs pass each check, then perturbs them
one way at a time and confirms that the check fails. Exits 1 if a check
rejects a real output or accepts a perturbed one.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import checks
from inputs import prepare

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import artex
    from artex import runner

    inputs = prepare(ROOT / ".perfbench-work", SRC, 0)
    corpus = artex.CorpusSpec(Path(inputs["long"]["path"]))
    cfg = artex.RunConfig(
        normalization=artex.Stem(),
        budget=artex.WordRatio(0.2),
        systems=("artex", "lead", "random"),
        seed=0,
    )
    results = runner.run_corpus(corpus, cfg)
    table = checks.result_table(results)
    documents = sorted(table)
    pinned = checks.PINNED_BATCH_DIGEST[0]
    doc = documents[7]
    (system, selected, f1, f2, f_su4), *others = table[doc]

    def with_row(row) -> dict:
        return {**table, doc: (row, *others)}

    artex_result = next(r for r in results if r.doc_id == doc and r.system == "artex")
    text, report = artex_result.summary.text, artex_result.report.as_dict()
    nudged = dict(report, f1=math.nextafter(report["f1"], 2.0))
    vocabulary = {label: {size} for label, size in checks.PINNED_VOCABULARY[0].items()}

    cases = [
        # (description, problems found or check result, whether it should pass)
        ("real batch outputs", checks.check_batch(table, documents, 3, table, pinned), True),
        (
            "f1 one ulp higher",
            checks.check_batch(
                with_row((system, selected, math.nextafter(f1, 2.0), f2, f_su4)),
                documents, 3, None, pinned,
            ),
            False,
        ),
        (
            "one selected sentence dropped",
            checks.check_batch(
                with_row((system, selected[1:], f1, f2, f_su4)), documents, 3, None, pinned
            ),
            False,
        ),
        (
            "differs from the other worker count",
            checks.check_batch(
                table, documents, 3, with_row((system, selected, f1, f2, f_su4 / 2)), None
            ),
            False,
        ),
        (
            "a system missing",
            checks.check_batch({**table, doc: tuple(others)}, documents, 3, None, None),
            False,
        ),
        ("real summarize output", [] if checks.check_summarize(text + "\n", text) else ["x"], True),
        (
            "summarize output one character short",
            [] if checks.check_summarize(text[:-1] + "\n", text) else ["x"],
            False,
        ),
        ("real eval output", [] if checks.check_eval(json.dumps(report), report) else ["x"], True),
        (
            "eval f1 one ulp higher",
            [] if checks.check_eval(json.dumps(nudged), report) else ["x"],
            False,
        ),
        ("pinned vocabularies", checks.check_vocabulary(vocabulary, checks.PINNED_VOCABULARY[0]), True),
        (
            "lemma vocabulary one smaller",
            checks.check_vocabulary({**vocabulary, "lemma": {7130}}, checks.PINNED_VOCABULARY[0]),
            False,
        ),
        (
            "vocabulary differs between repetitions",
            checks.check_vocabulary({**vocabulary, "stem": {8331, 8330}}, None),
            False,
        ),
        (
            "a mode above raw",
            checks.check_vocabulary({**vocabulary, "fix6": {9000}}, None),
            False,
        ),
    ]
    wrong = 0
    for description, problems, should_pass in cases:
        ok = not problems if should_pass else bool(problems)
        wrong += not ok
        verdict = "passes" if not problems else "fails"
        print(f"{'ok ' if ok else 'BAD'} {description}: check {verdict}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
