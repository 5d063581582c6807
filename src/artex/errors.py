"""Exception hierarchy shared across the pipeline."""


class ArtexError(Exception):
    """Base class for all errors raised by this package."""


class EmptyDocument(ArtexError):
    """Sentence splitting produced no sentence with an alphabetic character."""


class MissingDictionary(ArtexError):
    """Lemmatization was requested but no dictionary was loaded."""


class EmptyVocabulary(ArtexError):
    """No sentence retained any token, so no sentence can be scored."""


class EmptySource(ArtexError):
    """The source n-gram profile is empty; divergence is undefined."""


class CorpusError(ArtexError):
    """The corpus cannot be read as a set of documents, e.g. two files share an ID."""


class CorpusEmpty(CorpusError):
    """The corpus root contains no admissible documents."""
