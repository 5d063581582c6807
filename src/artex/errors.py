"""Exception hierarchy shared across the pipeline, and its one warning helper."""


def warn(logger: str, message: str, *args: object) -> None:
    """Log ``message % args`` as a warning of the logger named ``logger``.

    ``logging`` is imported here, by the first warning, and not by
    ``import artex``: most processes never warn. With no handler configured,
    logging's last-resort handler prints the bare message on stderr.
    """
    import logging

    logging.getLogger(logger).warning(message, *args)


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
