#!/usr/bin/env python3
"""Check that two artex source trees give byte-identical outputs.

Usage:
    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC WORK_DIR
        [--parent-python PYTHON] [--change-python PYTHON]

PARENT_SRC and CHANGE_SRC are directories holding an ``artex`` package
(a checkout's ``src``). WORK_DIR must be empty or missing. Each side runs
in the interpreter given by its option, by default the one running this
script; naming two interpreters compares one source tree on two Python
versions, or a change on one version against its parent on another. The
inputs are written once, under WORK_DIR/inputs, with PARENT_SRC's
artex.synthetic in the parent's interpreter:
two seeded English corpora, a lemma dictionary, a few edge-case texts
(one of them with no word that occurs twice, which artex cannot
summarize, one whose words' stems depend on where the English stemmer's
R2 starts and one whose words reach every entry of its step-2 and step-3
tables), a Spanish text, three French texts (one whose words' stems
depend on French step 1 following Snowball's regions, one whose words
reach every entry of its ``STEP1_IN_R2`` table),
two edge-case lemma dictionaries (one with every kind of line the loader
reads, one that is not UTF-8), a text that is not UTF-8, a corpus of
one good document and one that is not UTF-8 after a byte-order mark, a
corpus of one good document and ``Sun. Moon.`` (no word that occurs twice
and no bigram), and a corpus of every kind of entry the corpus loader
tells apart (names such as ``a.`` and ``b.tar.gz``, dotfiles, CRLF, CR
and byte-order-mark texts, empty and blank files, broken, looping and
followed symbolic links). Each side then runs the same list of calls in
one fresh interpreter, in-process through ``artex.cli.main``:

- ``batch`` with all three systems over each English corpus and over the
  edge texts, in five normalization and budget settings, at 1 and at 2
  workers, and over the Spanish and French texts at ``--budget k:2``;
- ``summarize --scores`` at ``ratio:0.2`` and ``k:2`` on the edge texts,
  on five short documents and on the Spanish and French texts;
- ``eval`` of each of those summaries against its source;
- ``summarize --budget k:99`` of an edge text, whose budget the scorer
  clamps with a warning;
- ``bench --modes raw,fix:3,stem,lemma --reps 3`` over each English
  corpus and over the edge texts;
- ``batch``, ``summarize`` and ``bench`` in lemma mode over the edge texts
  with each edge-case dictionary;
- ``summarize`` of the non-UTF-8 text, ``summarize`` with it as the
  stop-list, and ``eval`` with it as the summary;
- ``batch`` with all three systems over the corpus with the non-UTF-8
  document, which it skips with a warning;
- ``batch`` over the corpus with ``Sun. Moon.``, with all three systems
  (which skip it because artex cannot score it) and with ``lead,random``
  (which skip it because the evaluator finds no n-gram unit);
- ``batch`` with all three systems over the loader corpus as a flat corpus
  (its root given with a trailing slash) and as clusters (its root given
  as a relative path), and over its cluster ``c1``, whose ``a.txt`` and
  ``a.md`` share a document ID, as a flat corpus.

Every call's exit code, stdout and stderr, and every file the calls
write under WORK_DIR/parent and WORK_DIR/change, are compared byte for
byte; a side's own directory is masked in its stderr. Seconds are not
compared: ``bench`` output is compared without its seconds fields and
with its modes in label order, and ``timings.csv`` without its seconds
columns, so what it compares is each mode's vocabulary size per
repetition and the skip warnings. The first 20 differences are printed,
then each kind of difference with its count (a file's kind masks its
batch or bench run directory as ``<run>``; a call's kind is its
subcommand and whether its exit code, stdout or stderr differs), and the
exit status is 1 if there are any; otherwise the counts compared are
printed and the exit status is 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")
SHOWN = 20

GENERATE = """
import sys
from pathlib import Path
from artex.synthetic import generate_corpus, generate_lemma_dictionary
inputs = Path(sys.argv[1])
generate_corpus(inputs / "long", documents=20, words_per_document=2000, seed=0)
generate_corpus(inputs / "short", documents=100, words_per_document=250, seed=1)
generate_lemma_dictionary(inputs / "lemmas.tsv", entries=20000, seed=0)
"""

# Runs a JSON list of calls through artex.cli.main in this one process and
# writes each call's exit code, stdout and stderr back into the list.
RUN = """
import io, json, sys
from pathlib import Path
import artex
from artex.cli import main
plan_path, src = Path(sys.argv[1]), Path(sys.argv[2]).resolve()
if src not in Path(artex.__file__).resolve().parents:
    sys.exit(f"artex was imported from {artex.__file__}, not from {src}")
calls = json.loads(plan_path.read_text(encoding="utf-8"))
real_out, real_err = sys.stdout, sys.stderr
for call in calls:
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        call["exit"] = main(call["argv"])
    finally:
        call["stdout"], call["stderr"] = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = real_out, real_err
    if call.get("stdout_to"):
        Path(call["stdout_to"]).write_text(call["stdout"], encoding="utf-8")
plan_path.write_text(json.dumps(calls), encoding="utf-8")
"""


def twice_over(words: str) -> str:
    """A text of ``words`` twice over, six to a sentence, so that artex keeps
    every one of them (it drops words that occur once)."""
    twice = words.split() * 2
    return " ".join(
        " ".join(twice[i:i + 6]).capitalize() + "." for i in range(0, len(twice), 6)
    ) + "\n"


EDGE_TEXTS = {
    "hapax": "The sun rose. A moon set.\n",
    "repeats": "Solar. Solar! Power. Power? Grid. Grid.\n",
    "year": (
        "2024.\tSolar panels\tstore power for the grid. The grid feeds\tsolar power"
        " to homes.\nHomes store\tpower when the panels rest. Panels rest at night.\n"
    ),
    # Each repeated word's stem depends on R2 staying where it starts:
    # realization, realizer and realized all stem to realiz, and sprated to
    # sprate, apart from sprats.
    "regions": (
        "The realization came late. The realization came again. Nobody realized"
        " it. Everybody realized it late. The realizer realized nothing. The"
        " sprats sprated late. The sprats sprated again.\n"
    ),
    # Words that reach every entry of the English stemmer's step-2 and step-3
    # tables (ogi and li with and without the letter they need before them).
    "suffixes": twice_over(
        "realization relational hopefulness callousness effectiveness conditional"
        " sensibility carelessly recently information formalism formality generously"
        " sensitivity hopefully urgency hesitancy reasonably realizer operator radically"
        " possibly theology pedagogy warmly happily sensationally conditionally formalize"
        " duplicate electricity demonstrative formative electrical kindness hopeful"
    ),
    "bom": (
        "\ufeffSolar panels store power. Solar panels feed the grid. "
        "The grid stores power for the night.\n"
    ),
}

# Each language's texts, batched from one directory. Each repeated word of
# "fr-regions" has a stem that depends on French step 1 following
# Snowball's regions: fabricatrice and fabrication both stem to fabriqu, and
# finissemment and finissent to fin.
LANGUAGE_TEXTS = {
    "es": {
        "es": (
            "La energía solar crece cada año en las ciudades. Las ciudades instalan"
            " paneles solares en los techos. Los paneles solares producen energía"
            " limpia durante el día. La energía limpia reduce la contaminación de las"
            " ciudades. Los técnicos revisan los paneles cada mes. La contaminación"
            " baja cuando crece la energía solar.\n"
        ),
    },
    "fr": {
        "fr": (
            "L'énergie solaire progresse chaque année dans les villes. Les villes"
            " installent des panneaux solaires sur les toits. Les panneaux solaires"
            " produisent une énergie propre pendant la journée. Cette énergie propre"
            " réduit la pollution des villes. Les techniciens vérifient les panneaux"
            " chaque mois. La pollution baisse quand l'énergie solaire progresse.\n"
        ),
        "fr-regions": (
            "La fabricatrice fabrique les panneaux. La fabricatrice vend les panneaux"
            " aux villes. La fabrication des panneaux finit tard. Les ouvriers"
            " finissent la fabrication finissemment. Les villes paient finissemment"
            " les ouvriers qui finissent.\n"
        ),
        # Words that reach every entry of the French stemmer's STEP1_IN_R2.
        "fr-suffixes": twice_over(
            "importance politique capitalisme raisonnable capitaliste courageux"
            " importances politiques capitalismes raisonnables capitalistes"
            " m\xe9t\xe9orologie m\xe9t\xe9orologies d\xe9sillusion \xe9volution"
            " d\xe9sillusions \xe9volutions diff\xe9rence diff\xe9rences"
        ),
    },
}

# Lemma dictionaries for the edge texts. The first has CRLF lines after a
# byte-order mark, lines without a tab and with two, ASCII and non-ASCII
# whitespace around fields, entries that casefold to other words, a
# duplicate word, a line longer than the loader's 64K-character block and no
# final newline. The second is not UTF-8: byte 20,000 is 0xff.
EDGE_DICTIONARIES = {
    "edge-lemmas.tsv": (
        "\ufeffSolar\tsun\r\n"
        "panels\r\n"
        "Panels\tpanel\tboard\r\n"
        " grid \t\u3000Grid\u00a0\n"
        "\u00a0stores\t store \x85\n"
        "Straße\tstreet\nMASSE\tMaß\n"
        "solar\tstar\n"
        f"power\t{'P' * 70_000}\n"
        "homes\thome"
    ).encode("utf-8"),
    "bad-lemmas.tsv": b"solar\tsun\n" * 2_000 + b"\xff\tx\ngrid\tnet\n",
}

# A text that is not UTF-8 (byte 40 is 0xff), read as a document, as a
# stop-list and as a summary.
BAD_TEXT = b"Solar panels store power for the grids.\n\xff\n"

# A flat corpus of one good document and one that is not UTF-8 after its
# byte-order mark (byte 40 of the file is 0xff), which batch skips.
BAD_CORPUS = {
    "good.txt": EDGE_TEXTS["bom"].encode("utf-8"),
    "bom-bad.txt": b"\xef\xbb\xbf" + b"a" * 37 + b"\xff\n",
}

# A flat corpus of one good document and one with no word that occurs twice
# and no bigram, batched with all three systems (skipped because artex cannot
# score it) and with the baselines alone (skipped because the evaluator finds
# no n-gram unit), so that the skip reasons are compared.
SKIP_CORPUS = {
    "good.txt": EDGE_TEXTS["bom"].encode("utf-8"),
    "sun.txt": b"Sun. Moon.\n",
}

# A corpus of every kind of entry the corpus loader tells apart, batched as a
# flat corpus (root given with a trailing slash), as clusters (root given as a
# relative path) and, for its cluster c1, whose a.txt and a.md share a
# document ID, as a flat corpus. Bytes are files, a string is a symbolic
# link's target (broken, a loop, a file, a cluster) and a dict a directory.
LOADER_TEXT = "Solar panels store\npower. Solar panels feed\nthe grid. The grid stores power.\n"
LOADER_CORPUS = {
    "a.": LOADER_TEXT.replace("\n", "\r\n").encode("utf-8"),
    "b.tar.gz": LOADER_TEXT.replace("\n", "\r").encode("utf-8"),
    "B.txt": b"\xef\xbb\xbf" + LOADER_TEXT.replace("\n", "\r\n").encode("utf-8"),
    "\xe9t\xe9.txt": LOADER_TEXT.encode("utf-8"),
    ".hidden.txt": LOADER_TEXT.encode("utf-8"),
    "empty.txt": b"",
    "blank.txt": b" \r\n\t\r",
    "bom-only.txt": b"\xef\xbb\xbf",
    "bom-bad.txt": b"\xef\xbb\xbf" + b"a" * 37 + b"\xff\n",
    "broken.txt": "missing.txt",
    "loop.txt": "loop.txt",
    "link.txt": "B.txt",
    "c1": {
        "a.txt": LOADER_TEXT.encode("utf-8"),
        "a.md": LOADER_TEXT.replace("\n", "\r\n").encode("utf-8"),
        "b.": b"\xef\xbb\xbf" + LOADER_TEXT.replace("\n", "\r").encode("utf-8"),
        ".dot.txt": LOADER_TEXT.encode("utf-8"),
        "empty.txt": b"",
        "broken.txt": "missing.txt",
    },
    "c2": {"blank.txt": b" \r\n", "bom-only.txt": b"\xef\xbb\xbf"},
    ".hidden-cluster": {"a.txt": LOADER_TEXT.encode("utf-8")},
    "c3": "c1",
    "broken-cluster": "missing",
}

ENGLISH_SETTINGS = (
    ("stem", "ratio:0.2"),
    ("stem", "k:3"),
    ("raw", "k:1"),
    ("fix:3", "k:1"),
    ("lemma", "ratio:0.2"),
)


def write_inputs(python: str, parent_src: Path, inputs: Path) -> dict[str, Path]:
    """Generate the corpora with the parent's synthetic module; write the texts."""
    subprocess.run(
        [python, "-c", GENERATE, str(inputs)],
        env={**os.environ, "PYTHONPATH": str(parent_src)},
        check=True,
    )
    for name, data in EDGE_DICTIONARIES.items():
        (inputs / name).write_bytes(data)
    (inputs / "bad.txt").write_bytes(BAD_TEXT)
    write_tree(inputs / "bad-corpus", BAD_CORPUS)
    write_tree(inputs / "skip-corpus", SKIP_CORPUS)
    write_tree(inputs / "loader", LOADER_CORPUS)
    texts = {}
    for directory, named in [("edge", EDGE_TEXTS), *LANGUAGE_TEXTS.items()]:
        (inputs / directory).mkdir(parents=True)
        for name, text in named.items():
            texts[name] = inputs / directory / f"{name}.txt"
            texts[name].write_text(text, encoding="utf-8")
    return texts


def write_tree(directory: Path, tree: dict) -> None:
    directory.mkdir()
    for name, node in tree.items():
        if isinstance(node, dict):
            write_tree(directory / name, node)
        elif isinstance(node, str):
            (directory / name).symlink_to(node)
        else:
            (directory / name).write_bytes(node)


def plan(inputs: Path, texts: dict[str, Path], out: Path) -> list[dict]:
    """The calls of one side, which writes its outputs under ``out``."""
    calls = []
    dictionary = str(inputs / "lemmas.tsv")
    for corpus in ("long", "short", "edge"):
        for norm, budget in ENGLISH_SETTINGS:
            for workers in ("1", "2"):
                name = f"{corpus}-{norm.replace(':', '')}-{budget.replace(':', '')}-w{workers}"
                calls.append(
                    {"argv": ["batch", str(inputs / corpus), "--systems", "artex,lead,random",
                              "--norm", norm, "--budget", budget, "--lemma-dict", dictionary,
                              "--workers", workers, "--out", str(out / "batch" / name)]}
                )
    for language in LANGUAGE_TEXTS:
        for workers in ("1", "2"):
            calls.append(
                {"argv": ["batch", str(inputs / language), "--systems", "artex,lead,random",
                          "--lang", language, "--budget", "k:2", "--workers", workers,
                          "--out", str(out / "batch" / f"{language}-w{workers}")]}
            )
    documents = {name: (path, "en") for name, path in texts.items() if name in EDGE_TEXTS}
    for path in sorted((inputs / "short").iterdir())[:5]:
        documents[path.stem] = (path, "en")
    for language, named in LANGUAGE_TEXTS.items():
        for name in named:
            documents[name] = (texts[name], language)
    (out / "summaries").mkdir(parents=True)
    for name, (path, language) in documents.items():
        for budget in ("ratio:0.2", "k:2"):
            summary = out / "summaries" / f"{name}-{budget.replace(':', '')}.txt"
            calls.append(
                {"argv": ["summarize", str(path), "--scores", "--budget", budget,
                          "--lang", language], "stdout_to": str(summary)}
            )
            calls.append({"argv": ["eval", str(path), str(summary), "--lang", language]})
    calls.append({"argv": ["summarize", str(texts["bom"]), "--budget", "k:99"]})
    for corpus in ("long", "short", "edge"):
        calls.append(
            {"argv": ["bench", str(inputs / corpus), "--modes", "raw,fix:3,stem,lemma",
                      "--reps", "3", "--lemma-dict", dictionary,
                      "--out", str(out / "bench" / corpus)]}
        )
    for name in EDGE_DICTIONARIES:
        lemmas = ["--lemma-dict", str(inputs / name)]
        run = f"edge-{name.removesuffix('.tsv')}"
        calls += [
            {"argv": ["batch", str(inputs / "edge"), "--systems", "artex,lead,random",
                      "--norm", "lemma", *lemmas, "--out", str(out / "batch" / run)]},
            {"argv": ["summarize", str(texts["bom"]), "--scores", "--norm", "lemma", *lemmas]},
            {"argv": ["bench", str(inputs / "edge"), "--modes", "lemma", "--reps", "3",
                      *lemmas, "--out", str(out / "bench" / run)]},
        ]
    bad = str(inputs / "bad.txt")
    calls += [
        {"argv": ["summarize", bad]},
        {"argv": ["summarize", str(texts["bom"]), "--stoplist", bad]},
        {"argv": ["eval", str(texts["bom"]), bad]},
        {"argv": ["batch", str(inputs / "bad-corpus"), "--systems", "artex,lead,random",
                  "--out", str(out / "batch" / "bad-corpus")]},
    ]
    for systems in ("artex,lead,random", "lead,random"):
        calls.append(
            {"argv": ["batch", str(inputs / "skip-corpus"), "--systems", systems,
                      "--out", str(out / "batch" / f"skip-{systems.replace(',', '-')}")]}
        )
    loader = inputs / "loader"
    for name, root, layout in [
        ("loader-flat", f"{loader}/", "flat"),
        ("loader-clusters", os.path.relpath(loader), "clusters"),
        ("loader-c1", str(loader / "c1"), "flat"),
    ]:
        calls.append(
            {"argv": ["batch", root, "--layout", layout, "--systems", "artex,lead,random",
                      "--out", str(out / "batch" / name)]}
        )
    return calls


SECONDS_FIELDS = ("median_seconds", "min_seconds", "max_seconds")
SECONDS_COLUMNS = ("preprocess_seconds", "score_seconds", "total_seconds")


def without_seconds(bench_stdout: str) -> str:
    """A ``bench`` summary without its seconds, its modes in label order."""
    rows = json.loads(bench_stdout)
    for row in rows:
        for field in SECONDS_FIELDS:
            del row[field]
    return json.dumps(sorted(rows, key=lambda row: row["normalization"]), indent=2)


def timings_without_seconds(data: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    drop = {rows[0].index(column) for column in SECONDS_COLUMNS}
    return "\n".join(
        ",".join(value for i, value in enumerate(row) if i not in drop) for row in rows
    ).encode("utf-8")


def run_side(
    python: str, src: Path, inputs: Path, texts: dict[str, Path], out: Path
) -> list[dict]:
    out.mkdir(parents=True)
    plan_path = out.parent / f"{out.name}-calls.json"
    plan_path.write_text(json.dumps(plan(inputs, texts, out)), encoding="utf-8")
    subprocess.run(
        [python, "-c", RUN, str(plan_path), str(src)],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    calls = json.loads(plan_path.read_text(encoding="utf-8"))
    for call in calls:
        call["stderr"] = call["stderr"].replace(str(out), "<side>")
        if call["argv"][0] == "bench" and call["exit"] == 0:
            call["stdout"] = without_seconds(call["stdout"])
    return calls


def files_under(root: Path) -> dict[str, bytes]:
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "timings.csv":
                data = timings_without_seconds(data)
            files[path.relative_to(root).as_posix()] = data
    return files


def run_masked(name: str) -> str:
    """``name`` with its batch or bench run directory written as ``<run>``."""
    parts = name.split("/")
    if parts[0] in ("batch", "bench") and len(parts) > 2:
        parts[1] = "<run>"
    return "/".join(parts)


def compare(
    parent: list[dict], change: list[dict], work: Path
) -> tuple[list[tuple[str, str]], int]:
    """The differences between the two sides, each as (kind, message), and
    the number of files compared."""
    differences = []
    for number, (before, after) in enumerate(zip(parent, change), 1):
        command = " ".join(before["argv"][:2])
        for key in ("exit", "stdout", "stderr"):
            if before[key] != after[key]:
                differences.append((
                    f"{before['argv'][0]}: {key} differs",
                    f"call {number} ({command}): {key} differs:"
                    f" {before[key]!r:.200} != {after[key]!r:.200}",
                ))
    before_files = files_under(work / SIDES[0])
    after_files = files_under(work / SIDES[1])
    for name in sorted(before_files.keys() | after_files.keys()):
        if name not in after_files:
            outcome = f"only in {SIDES[0]}"
        elif name not in before_files:
            outcome = f"only in {SIDES[1]}"
        elif before_files[name] != after_files[name]:
            outcome = "contents differ"
        else:
            continue
        differences.append((f"{run_masked(name)}: {outcome}", f"{name}: {outcome}"))
    return differences, len(before_files)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        usage=__doc__.split("\n\n")[1].split("\n", 1)[1].strip(),
        description=__doc__.split("\n\n")[0],
    )
    for name in ("PARENT_SRC", "CHANGE_SRC", "WORK_DIR"):
        parser.add_argument(name, type=Path)
    for side in SIDES:
        parser.add_argument(
            f"--{side}-python", default=sys.executable, metavar="PYTHON",
            help=f"interpreter of the {side} side (default: {sys.executable})",
        )
    args = parser.parse_args(argv)
    parent_src, change_src, work = (
        path.resolve() for path in (args.PARENT_SRC, args.CHANGE_SRC, args.WORK_DIR)
    )
    if work.exists() and any(work.iterdir()):
        print(f"error: {work} is not empty", file=sys.stderr)
        return 2
    inputs = work / "inputs"
    texts = write_inputs(args.parent_python, parent_src, inputs)
    parent = run_side(args.parent_python, parent_src, inputs, texts, work / SIDES[0])
    change = run_side(args.change_python, change_src, inputs, texts, work / SIDES[1])
    differences, files = compare(parent, change, work)
    for _, message in differences[:SHOWN]:
        print(message)
    if differences:
        print("by kind:")
        for kind, count in sorted(Counter(kind for kind, _ in differences).items()):
            print(f"{count:6d}  {kind}")
        print(f"{len(differences)} differences")
        return 1
    print(f"identical: {len(parent)} calls (exit code, stdout, stderr) and {files} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
