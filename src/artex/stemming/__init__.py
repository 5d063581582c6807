"""Porter-family suffix-stripping stemmers for English, Spanish and French.

Each language's stemmer lives in its own module, and that module is
imported by the first ``stemmer_for`` call for its language, not by
``import artex``: a process that stems only English never loads the
Spanish and French rules. ``sys.modules`` keeps each module once loaded.
The stem functions are module-level, so they pickle by name. The Snowball
region rule that all three languages share is :func:`region`.
"""

from __future__ import annotations

import re
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


def region(word: str, vowel_then_non_vowel: Callable[[str], re.Match | None]) -> str:
    """The part of ``word`` after its first non-vowel that follows a vowel.

    ``vowel_then_non_vowel`` is the language's compiled ``[V][^V]`` search.
    R1 is the region of the word and R2 the region of R1; either is empty
    when there is no such non-vowel.
    """
    match = vowel_then_non_vowel(word)
    return word[match.end():] if match else ""
