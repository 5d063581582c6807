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
    Bigram,
    DivergenceReport,
    NgramProfile,
    SkipBigram,
    Unigram,
    evaluation_tokens,
    fresa_report,
    ngram_profile,
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
    ScoreVector,
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
from .vsm import SentenceTermMatrix, vectorize

__version__ = "0.1.0"

__all__ = [
    "ArtexError",
    "Bigram",
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
    "ScoreVector",
    "Sentence",
    "SentenceCount",
    "SentenceTermMatrix",
    "SkipBigram",
    "Stem",
    "StopList",
    "Summary",
    "TimingRecord",
    "UltraStem",
    "Unigram",
    "WordRatio",
    "benchmark",
    "benchmark_summary",
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
    "split_sentences",
    "stemmer_for",
    "vectorize",
    "__version__",
]
