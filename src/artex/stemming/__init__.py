"""Porter-family suffix-stripping stemmers for English, Spanish and French.

Each language's stemmer lives in its own module, and that module is
imported by the first ``stemmer_for`` call for its language, not by
``import artex``: a process that stems only English never loads the
Spanish and French rules. ``sys.modules`` keeps each module once loaded.
The stem functions are module-level, so they pickle by name. The Snowball
region rule that all three languages share is :func:`region`, which returns
the start position of a region; each stemmer fixes its regions as such
positions once per word.
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


def region(
    word: str, vowel_then_non_vowel: Callable[[str, int], re.Match | None], start: int = 0
) -> int:
    """Where the region of ``word`` after ``start`` begins: after its first
    non-vowel that follows a vowel, or at ``len(word)`` if there is none.

    ``vowel_then_non_vowel`` is the language's compiled ``[V][^V]`` search.
    R1 is the region from 0 and R2 the region from R1's start.
    """
    match = vowel_then_non_vowel(word, start)
    return match.end() if match else len(word)
