"""Spanish suffix-stripping stemmer (Snowball family).

R1, R2 and RV are start positions, fixed once before any suffix is
removed: ``word.endswith(suffix, p2)`` asks whether ``suffix`` is in R2, so
every rewrite changes only the word. Accents are removed from the final
stem.
"""

from __future__ import annotations

import re

from . import region

VOWELS = "aeiou\xe1\xe9\xed\xf3\xfa\xfc"
_VOWEL_THEN_NON_VOWEL = re.compile(f"[{VOWELS}][^{VOWELS}]").search

STEP0_SUFFIXES = (
    "selas", "selos", "sela", "selo", "las", "les", "los", "nos",
    "me", "se", "la", "le", "lo",
)
STEP1_SUFFIXES = (
    "amientos", "imientos", "amiento", "imiento", "acion", "aciones",
    "uciones", "adoras", "adores", "ancias", "log\xedas", "encias",
    "amente", "idades", "anzas", "ismos", "ables", "ibles", "istas",
    "adora", "aci\xf3n", "antes", "ancia", "log\xeda", "uci\xf3n",
    "encia", "mente", "anza", "icos", "icas", "ismo", "able", "ible",
    "ista", "osos", "osas", "ador", "ante", "idad", "ivas", "ivos",
    "ico", "ica", "oso", "osa", "iva", "ivo",
)
STEP2A_SUFFIXES = (
    "yeron", "yendo", "yamos", "yais", "yan", "yen", "yas", "yes",
    "ya", "ye", "yo", "y\xf3",
)
STEP2B_SUFFIXES = (
    "ar\xedamos", "er\xedamos", "ir\xedamos", "i\xe9ramos", "i\xe9semos",
    "ar\xedais", "aremos", "er\xedais", "eremos", "ir\xedais", "iremos",
    "ierais", "ieseis", "asteis", "isteis", "\xe1bamos", "\xe1ramos",
    "\xe1semos", "ar\xedan", "ar\xedas", "ar\xe9is", "er\xedan",
    "er\xedas", "er\xe9is", "ir\xedan", "ir\xedas", "ir\xe9is",
    "ieran", "iesen", "ieron", "iendo", "ieras", "ieses", "abais",
    "arais", "aseis", "\xe9amos", "ar\xe1n", "ar\xe1s", "ar\xeda",
    "er\xe1n", "er\xe1s", "er\xeda", "ir\xe1n", "ir\xe1s", "ir\xeda",
    "iera", "iese", "aste", "iste", "aban", "aran", "asen", "aron",
    "ando", "abas", "adas", "idas", "aras", "ases", "\xedais", "ados",
    "idos", "amos", "imos", "emos", "ar\xe1", "ar\xe9", "er\xe1",
    "er\xe9", "ir\xe1", "ir\xe9", "aba", "ada", "ida", "ara", "ase",
    "\xedan", "ado", "ido", "\xedas", "\xe1is", "\xe9is", "\xeda",
    "ad", "ed", "id", "an", "i\xf3", "ar", "er", "ir", "as", "\xeds",
    "en", "es",
)
STEP3_SUFFIXES = ("os", "a", "e", "o", "\xe1", "\xe9", "\xed", "\xf3")

_GERUND_INFINITIVE = (
    "ando", "\xe1ndo", "ar", "\xe1r", "er", "\xe9r",
    "iendo", "i\xe9ndo", "ir", "\xedr",
)


def _unaccent(word: str) -> str:
    return (
        word.replace("\xe1", "a")
        .replace("\xe9", "e")
        .replace("\xed", "i")
        .replace("\xf3", "o")
        .replace("\xfa", "u")
    )


def _rv_start(word: str) -> int:
    if len(word) >= 2:
        if word[1] not in VOWELS:
            for i in range(2, len(word)):
                if word[i] in VOWELS:
                    return i + 1
        elif word[0] in VOWELS and word[1] in VOWELS:
            for i in range(2, len(word)):
                if word[i] not in VOWELS:
                    return i + 1
        else:
            return 3
    return len(word)


def stem(word: str) -> str:
    """Return the stem of a lowercase Spanish word."""
    word = word.lower()

    step1_success = False
    p1 = region(word, _VOWEL_THEN_NON_VOWEL)
    p2 = region(word, _VOWEL_THEN_NON_VOWEL, p1)
    pv = _rv_start(word)

    # Step 0: attached pronouns after a gerund or infinitive
    for suffix in STEP0_SUFFIXES:
        if not word.endswith(suffix, pv):
            continue
        head = word[:-len(suffix)]
        if head.endswith(_GERUND_INFINITIVE, pv) or (
            head.endswith("uyendo") and head.endswith("yendo", pv)
        ):
            word = _unaccent(head)
        break

    # Step 1: standard suffixes
    for suffix in STEP1_SUFFIXES:
        if not word.endswith(suffix):
            continue
        if suffix == "amente" and word.endswith(suffix, p1):
            step1_success = True
            word = word[:-6]
            if word.endswith("iv", p2):
                word = word[:-2]
                if word.endswith("at", p2):
                    word = word[:-2]
            elif word.endswith(("os", "ic", "ad"), p2):
                word = word[:-2]
        elif word.endswith(suffix, p2):
            step1_success = True
            if suffix in (
                "adora", "ador", "aci\xf3n", "adoras", "adores", "acion",
                "aciones", "ante", "antes", "ancia", "ancias",
            ):
                word = word[:-len(suffix)]
                if word.endswith("ic", p2):
                    word = word[:-2]
            elif suffix in ("log\xeda", "log\xedas"):
                word = word[:-len(suffix)] + "log"
            elif suffix in ("uci\xf3n", "uciones"):
                word = word[:-len(suffix)] + "u"
            elif suffix in ("encia", "encias"):
                word = word[:-len(suffix)] + "ente"
            elif suffix == "mente":
                word = word[:-len(suffix)]
                if word.endswith(("ante", "able", "ible"), p2):
                    word = word[:-4]
            elif suffix in ("idad", "idades"):
                word = word[:-len(suffix)]
                for pre in ("abil", "ic", "iv"):
                    if word.endswith(pre, p2):
                        word = word[:-len(pre)]
                        break
            elif suffix in ("ivo", "iva", "ivos", "ivas"):
                word = word[:-len(suffix)]
                if word.endswith("at", p2):
                    word = word[:-2]
            else:
                word = word[:-len(suffix)]
        break

    # Steps 2a/2b: verb suffixes, each only when the step before removed nothing
    if not step1_success:
        for suffix in STEP2A_SUFFIXES:
            if word.endswith(suffix, pv) and word[-len(suffix) - 1:-len(suffix)] == "u":
                word = word[:-len(suffix)]
                break
        else:
            for suffix in STEP2B_SUFFIXES:
                if word.endswith(suffix, pv):
                    word = word[:-len(suffix)]
                    if suffix in ("en", "es", "\xe9is", "emos") and word.endswith("gu"):
                        word = word[:-1]
                    break

    # Step 3: residual vowel suffixes
    for suffix in STEP3_SUFFIXES:
        if word.endswith(suffix, pv):
            word = word[:-len(suffix)]
            if suffix in ("e", "\xe9") and word.endswith("gu") and word.endswith("u", pv):
                word = word[:-1]
            break

    return _unaccent(word)
