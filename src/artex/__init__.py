"""Extractive summarization by pseudo-vector inner products.

Sentences are scored against two document-level averages of the
sentence-term occurrence matrix: the global-topic vector (column means)
and the lexical-weight vector (row means). The package also ships a
reference-free n-gram divergence evaluator, lead/random baselines, a batch
runner, and a normalization timing benchmark.

``import artex`` loads this module alone. Each public name is imported
from the module that defines it on its first use (``artex.StopList``
loads ``artex.preprocess``), and so is a submodule asked for by name
(``artex.runner``), so a process loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "corpus": ("CorpusSpec", "load_corpus"),
    "errors": (
        "ArtexError", "CorpusEmpty", "CorpusError", "EmptyDocument", "EmptySource",
        "EmptyVocabulary", "MissingDictionary",
    ),
    "evaluation": (
        "DivergenceReport", "NgramProfile", "bigrams", "evaluation_tokens",
        "fresa_report", "ngram_profile", "skip_bigrams", "unigrams",
    ),
    "preprocess": (
        "Document", "Lemmatize", "NormalizationMode", "Raw", "RawDocument", "Sentence",
        "Stem", "StopList", "UltraStem", "clean_token", "load_lemma_dictionary",
        "parse_mode", "preprocess_document", "split_sentences",
    ),
    "runner": (
        "RunConfig", "RunResult", "TimingRecord", "benchmark", "benchmark_summary",
        "run_corpus",
    ),
    "scorer": (
        "DEFAULT_BUDGET", "CompressionSpec", "SentenceCount", "Summary", "WordRatio",
        "lead_baseline", "random_baseline", "score", "score_normalized", "score_table",
        "select",
    ),
    "stemming": ("stemmer_for",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
