"""Porter-family suffix-stripping stemmers for English, Spanish and French.

Each language's stemmer lives in its own module, and that module is
imported by the first ``stemmer_for`` call for its language, not by
``import artex``: a process that stems only English never loads the
Spanish and French rules. ``sys.modules`` keeps each module once loaded.
The stem functions are module-level, so they pickle by name.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

_MODULES = {"en": "english", "es": "spanish", "fr": "french"}

SUPPORTED_LANGUAGES = tuple(sorted(_MODULES))


def stemmer_for(language: str) -> Callable[[str], str]:
    """Return the stem function for an ISO 639-1 language code."""
    try:
        name = _MODULES[language]
    except KeyError:
        raise ValueError(
            f"no stemmer for language {language!r}; supported: {SUPPORTED_LANGUAGES}"
        ) from None
    return import_module(f"{__name__}.{name}").stem


def stem(word: str, language: str) -> str:
    return stemmer_for(language)(word)
