"""Spanish suffix-stripping stemmer (Snowball family).

R1, R2 and RV are start positions, fixed once before any suffix is
removed: ``word.endswith(suffix, p2)`` asks whether ``suffix`` is in R2, so
every rewrite changes only the word. Step 1 is one table, ``STEP1``.
Accents are removed from the final stem.
"""

from __future__ import annotations

import re

from . import ending, region

VOWELS = "aeiou\xe1\xe9\xed\xf3\xfa\xfc"
_VOWEL_THEN_NON_VOWEL = re.compile(f"[{VOWELS}][^{VOWELS}]").search
_VOWEL = re.compile(f"[{VOWELS}]").search
_NON_VOWEL = re.compile(f"[^{VOWELS}]").search

STEP0_SUFFIXES = (
    "selas", "selos", "sela", "selo", "las", "les", "los", "nos",
    "me", "se", "la", "le", "lo",
)
# Step 1 maps each suffix to its replacement and to the endings then removed
# before it in R2, the first found. amente alone is tested in R1, and its
# ativ and iv remove "iv, then at": ativ in R2 puts iv in R2. The shared
# values delete the suffix, then the first of their endings in R2.
_ic = ("", ("ic",))
_at = ("", ("at",))
_abil = ("", ("abil", "ic", "iv"))
_none = ("", ())
STEP1 = {
    "amientos": _none, "imientos": _none, "amiento": _none, "imiento": _none,
    "aciones": _ic, "uciones": ("u", ()), "adoras": _ic, "adores": _ic,
    "ancias": _ic, "log\xedas": ("log", ()), "encias": ("ente", ()),
    "amente": ("", ("ativ", "iv", "os", "ic", "ad")), "idades": _abil, "anzas": _none,
    "ismos": _none, "ables": _none, "ibles": _none, "istas": _none, "adora": _ic,
    "aci\xf3n": _ic, "antes": _ic, "ancia": _ic, "log\xeda": ("log", ()),
    "uci\xf3n": ("u", ()), "encia": ("ente", ()), "mente": ("", ("ante", "able", "ible")),
    "anza": _none, "icos": _none, "icas": _none, "ismo": _none, "able": _none,
    "ible": _none, "ista": _none, "osos": _none, "osas": _none, "ador": _ic, "ante": _ic,
    "idad": _abil, "ivas": _at, "ivos": _at, "ico": _none, "ica": _none, "oso": _none,
    "osa": _none, "iva": _at, "ivo": _at,
}
STEP1_SUFFIXES = tuple(STEP1)
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
            return region(word, _VOWEL, 2)
        if word[0] in VOWELS:
            return region(word, _NON_VOWEL, 2)
        return 3
    return len(word)


def stem(word: str) -> str:
    """Return the stem of a lowercase Spanish word."""
    word = word.lower()

    p1 = region(word, _VOWEL_THEN_NON_VOWEL)
    p2 = region(word, _VOWEL_THEN_NON_VOWEL, p1)
    pv = _rv_start(word)

    # Step 0: attached pronouns after a gerund or infinitive
    suffix = ending(word, STEP0_SUFFIXES, pv)
    if suffix:
        head = word[:-len(suffix)]
        if head.endswith(_GERUND_INFINITIVE, pv) or (
            head.endswith("uyendo") and head.endswith("yendo", pv)
        ):
            word = _unaccent(head)

    # Step 1: standard suffixes; steps 2a/2b (verb suffixes) run only when
    # step 1 removed nothing, and 2b only when 2a removed nothing.
    suffix = ending(word, STEP1_SUFFIXES)
    if suffix and word.endswith(suffix, p1 if suffix == "amente" else p2):
        replacement, endings = STEP1[suffix]
        word = word[:-len(suffix)]
        word = word[:len(word) - len(ending(word, endings, p2))] + replacement
    else:
        suffix = ending(word, STEP2A_SUFFIXES, pv)
        if suffix and word[-len(suffix) - 1:-len(suffix)] == "u":
            word = word[:-len(suffix)]
        else:
            suffix = ending(word, STEP2B_SUFFIXES, pv)
            if suffix:
                word = word[:-len(suffix)]
                if suffix in ("en", "es", "\xe9is", "emos") and word.endswith("gu"):
                    word = word[:-1]

    # Step 3: residual vowel suffixes
    suffix = ending(word, STEP3_SUFFIXES, pv)
    if suffix:
        word = word[:-len(suffix)]
        if suffix in ("e", "\xe9") and word.endswith("gu") and word.endswith("u", pv):
            word = word[:-1]

    return _unaccent(word)
