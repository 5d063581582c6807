"""Extractive summarization by pseudo-vector inner products.

Sentences are scored against two document-level averages of the
sentence-term occurrence matrix: the global-topic vector (column means)
and the lexical-weight vector (row means). The package also ships a
reference-free n-gram divergence evaluator, lead/random baselines, a batch
runner, and a normalization timing benchmark.
"""

from .baselines import lead_baseline, random_baseline
from .errors import (
    ArtexError,
    CorpusEmpty,
    CorpusError,
    EmptyDocument,
    EmptySource,
    EmptyVocabulary,
    MissingDictionary,
)
from .evaluation import (
    DivergenceReport,
    NgramProfile,
    bigrams,
    evaluation_tokens,
    fresa_report,
    ngram_profile,
    skip_bigrams,
    unigrams,
)
from .preprocess import (
    Document,
    Lemmatize,
    NormalizationMode,
    Raw,
    RawDocument,
    Sentence,
    Stem,
    StopList,
    UltraStem,
    clean_token,
    load_lemma_dictionary,
    preprocess_document,
    split_sentences,
)
from .runner import (
    CorpusSpec,
    RunConfig,
    RunResult,
    TimingRecord,
    benchmark,
    benchmark_summary,
    load_corpus,
    parse_mode,
    run_corpus,
)
from .scorer import (
    DEFAULT_BUDGET,
    CompressionSpec,
    PseudoVectors,
    SentenceCount,
    Summary,
    WordRatio,
    pseudo_vectors,
    score,
    score_normalized,
    score_table,
    select,
)
from .stemming import stemmer_for

__version__ = "0.1.0"

__all__ = [
    "ArtexError",
    "CompressionSpec",
    "CorpusEmpty",
    "CorpusError",
    "CorpusSpec",
    "DEFAULT_BUDGET",
    "DivergenceReport",
    "Document",
    "EmptyDocument",
    "EmptySource",
    "EmptyVocabulary",
    "Lemmatize",
    "MissingDictionary",
    "NgramProfile",
    "NormalizationMode",
    "PseudoVectors",
    "Raw",
    "RawDocument",
    "RunConfig",
    "RunResult",
    "Sentence",
    "SentenceCount",
    "Stem",
    "StopList",
    "Summary",
    "TimingRecord",
    "UltraStem",
    "WordRatio",
    "benchmark",
    "benchmark_summary",
    "bigrams",
    "clean_token",
    "evaluation_tokens",
    "fresa_report",
    "lead_baseline",
    "load_corpus",
    "load_lemma_dictionary",
    "ngram_profile",
    "parse_mode",
    "preprocess_document",
    "pseudo_vectors",
    "random_baseline",
    "run_corpus",
    "score",
    "score_normalized",
    "score_table",
    "select",
    "skip_bigrams",
    "split_sentences",
    "stemmer_for",
    "unigrams",
    "__version__",
]
