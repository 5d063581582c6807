"""Spanish suffix-stripping stemmer (Snowball family).

R1, R2 and RV are carried as trailing substrings of the evolving word and
trimmed alongside it; accents are removed from the final stem.
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


def _rv_region(word: str) -> str:
    rv = ""
    if len(word) >= 2:
        if word[1] not in VOWELS:
            for i in range(2, len(word)):
                if word[i] in VOWELS:
                    rv = word[i + 1:]
                    break
        elif word[0] in VOWELS and word[1] in VOWELS:
            for i in range(2, len(word)):
                if word[i] not in VOWELS:
                    rv = word[i + 1:]
                    break
        else:
            rv = word[3:]
    return rv


def stem(word: str) -> str:
    """Return the stem of a lowercase Spanish word."""
    word = word.lower()

    step1_success = False
    r1 = region(word, _VOWEL_THEN_NON_VOWEL)
    r2 = region(r1, _VOWEL_THEN_NON_VOWEL)
    rv = _rv_region(word)

    # Step 0: attached pronouns after a gerund or infinitive
    for suffix in STEP0_SUFFIXES:
        if not (word.endswith(suffix) and rv.endswith(suffix)):
            continue
        head = rv[:-len(suffix)]
        if head.endswith(_GERUND_INFINITIVE) or (
            head.endswith("yendo") and word[:-len(suffix)].endswith("uyendo")
        ):
            word = _unaccent(word[:-len(suffix)])
            r1 = _unaccent(r1[:-len(suffix)])
            r2 = _unaccent(r2[:-len(suffix)])
            rv = _unaccent(rv[:-len(suffix)])
        break

    # Step 1: standard suffixes
    for suffix in STEP1_SUFFIXES:
        if not word.endswith(suffix):
            continue
        if suffix == "amente" and r1.endswith(suffix):
            step1_success = True
            word, r2, rv = word[:-6], r2[:-6], rv[:-6]
            if r2.endswith("iv"):
                word, r2, rv = word[:-2], r2[:-2], rv[:-2]
                if r2.endswith("at"):
                    word, rv = word[:-2], rv[:-2]
            elif r2.endswith(("os", "ic", "ad")):
                word, rv = word[:-2], rv[:-2]
        elif r2.endswith(suffix):
            step1_success = True
            if suffix in (
                "adora", "ador", "aci\xf3n", "adoras", "adores", "acion",
                "aciones", "ante", "antes", "ancia", "ancias",
            ):
                word = word[:-len(suffix)]
                r2 = r2[:-len(suffix)]
                rv = rv[:-len(suffix)]
                if r2.endswith("ic"):
                    word, rv = word[:-2], rv[:-2]
            elif suffix in ("log\xeda", "log\xedas"):
                word = word[:-len(suffix)] + "log"
                rv = rv[:-len(suffix)] + "log"
            elif suffix in ("uci\xf3n", "uciones"):
                word = word[:-len(suffix)] + "u"
                rv = rv[:-len(suffix)] + "u"
            elif suffix in ("encia", "encias"):
                word = word[:-len(suffix)] + "ente"
                rv = rv[:-len(suffix)] + "ente"
            elif suffix == "mente":
                word = word[:-len(suffix)]
                r2 = r2[:-len(suffix)]
                rv = rv[:-len(suffix)]
                if r2.endswith(("ante", "able", "ible")):
                    word, rv = word[:-4], rv[:-4]
            elif suffix in ("idad", "idades"):
                word = word[:-len(suffix)]
                r2 = r2[:-len(suffix)]
                rv = rv[:-len(suffix)]
                for pre in ("abil", "ic", "iv"):
                    if r2.endswith(pre):
                        word = word[:-len(pre)]
                        rv = rv[:-len(pre)]
            elif suffix in ("ivo", "iva", "ivos", "ivas"):
                word = word[:-len(suffix)]
                r2 = r2[:-len(suffix)]
                rv = rv[:-len(suffix)]
                if r2.endswith("at"):
                    word, rv = word[:-2], rv[:-2]
            else:
                word = word[:-len(suffix)]
                rv = rv[:-len(suffix)]
        break

    # Steps 2a/2b: verb suffixes, only when step 1 removed nothing
    if not step1_success:
        for suffix in STEP2A_SUFFIXES:
            if rv.endswith(suffix) and word[-len(suffix) - 1:-len(suffix)] == "u":
                word = word[:-len(suffix)]
                rv = rv[:-len(suffix)]
                break

        for suffix in STEP2B_SUFFIXES:
            if rv.endswith(suffix):
                word = word[:-len(suffix)]
                rv = rv[:-len(suffix)]
                if suffix in ("en", "es", "\xe9is", "emos"):
                    if word.endswith("gu"):
                        word = word[:-1]
                    if rv.endswith("gu"):
                        rv = rv[:-1]
                break

    # Step 3: residual vowel suffixes
    for suffix in STEP3_SUFFIXES:
        if rv.endswith(suffix):
            word = word[:-len(suffix)]
            if suffix in ("e", "\xe9"):
                rv = rv[:-len(suffix)]
                if word[-2:] == "gu" and rv.endswith("u"):
                    word = word[:-1]
            break

    return _unaccent(word)
