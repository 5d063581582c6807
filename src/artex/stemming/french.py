"""French suffix-stripping stemmer (Snowball family).

Vowels playing a consonant role (u after q, u/i between vowels, y next to
a vowel) are upper-cased before the regions are computed and restored at
the end. R1, R2 and RV are start positions in the marked word, fixed once
before any suffix is removed: ``word.endswith(suffix, p2)`` asks whether
``suffix`` is in R2. Two step-1 rules are not positional, each one
commented rule: after ``atrice(s)`` is removed, a preceding ``ic`` is
deleted wherever it starts; after ``emment`` becomes ``ent``, steps 2a and
2b are skipped. Snowball has neither rule: without them, fabricatrice
would stem to fabriqu (as fabrication does) and finissemment to fin (as
finissent does).
"""

from __future__ import annotations

import re

from . import region

VOWELS = "aeiouy\xe2\xe0\xeb\xe9\xea\xe8\xef\xee\xf4\xfb\xf9"
_VOWEL_THEN_NON_VOWEL = re.compile(f"[{VOWELS}][^{VOWELS}]").search

STEP1_SUFFIXES = (
    "issements", "issement", "atrices", "atrice", "ateurs", "ations",
    "logies", "usions", "utions", "ements", "amment", "emment",
    "ances", "iqUes", "ismes", "ables", "istes", "ateur", "ation",
    "logie", "usion", "ution", "ences", "ement", "euses", "ments",
    "ance", "iqUe", "isme", "able", "iste", "ence", "it\xe9s", "ives",
    "eaux", "euse", "ment", "eux", "it\xe9", "ive", "ifs", "aux", "if",
)
STEP2A_SUFFIXES = (
    "issaIent", "issantes", "iraIent", "issante", "issants", "issions",
    "irions", "issais", "issait", "issant", "issent", "issiez",
    "issons", "irais", "irait", "irent", "iriez", "irons", "iront",
    "isses", "issez", "\xeemes", "\xeetes", "irai", "iras", "irez",
    "isse", "ies", "ira", "\xeet", "ie", "ir", "is", "it", "i",
)
STEP2B_SUFFIXES = (
    "eraIent", "assions", "erions", "assent", "assiez", "\xe8rent",
    "erais", "erait", "eriez", "erons", "eront", "aIent", "antes",
    "asses", "ions", "erai", "eras", "erez", "\xe2mes", "\xe2tes",
    "ante", "ants", "asse", "\xe9es", "era", "iez", "ais", "ait",
    "ant", "\xe9e", "\xe9s", "er", "ez", "\xe2t", "ai", "as", "\xe9",
    "a",
)
STEP4_SUFFIXES = ("i\xe8re", "I\xe8re", "ion", "ier", "Ier", "e", "\xeb")

_ER_LIKE = (
    "eraIent", "erions", "\xe8rent", "erais", "erait", "eriez",
    "erons", "eront", "erai", "eras", "erez", "\xe9es", "era", "iez",
    "\xe9e", "\xe9s", "er", "ez", "\xe9",
)
_A_LIKE = (
    "assions", "assent", "assiez", "aIent", "antes", "asses",
    "\xe2mes", "\xe2tes", "ante", "ants", "asse", "ais", "ait", "ant",
    "\xe2t", "ai", "as", "a",
)


def _mark_consonant_vowels(word: str) -> str:
    for i in range(1, len(word)):
        if word[i - 1] == "q" and word[i] == "u":
            word = word[:i] + "U" + word[i + 1:]
    for i in range(1, len(word) - 1):
        if word[i - 1] in VOWELS and word[i + 1] in VOWELS:
            if word[i] == "u":
                word = word[:i] + "U" + word[i + 1:]
            elif word[i] == "i":
                word = word[:i] + "I" + word[i + 1:]
        if word[i - 1] in VOWELS or word[i + 1] in VOWELS:
            if word[i] == "y":
                word = word[:i] + "Y" + word[i + 1:]
    return word


def _rv_start(word: str) -> int:
    # "par", "col" and "tap" prefixes count like a leading double vowel.
    if len(word) >= 2:
        if word.startswith(("par", "col", "tap")) or (
            word[0] in VOWELS and word[1] in VOWELS
        ):
            return 3
        for i in range(1, len(word)):
            if word[i] in VOWELS:
                return i + 1
    return len(word)


def stem(word: str) -> str:
    """Return the stem of a lowercase French word."""
    word = word.lower()

    removed = False
    word = _mark_consonant_vowels(word)
    p1 = region(word, _VOWEL_THEN_NON_VOWEL)
    p2 = region(word, _VOWEL_THEN_NON_VOWEL, p1)
    pv = _rv_start(word)

    # Step 1: standard suffixes
    for suffix in STEP1_SUFFIXES:
        if word.endswith(suffix):
            if suffix == "eaux":
                word = word[:-1]
                removed = True
            elif suffix in ("euse", "euses"):
                if word.endswith(suffix, p2):
                    word = word[:-len(suffix)]
                    removed = True
                elif word.endswith(suffix, p1):
                    word = word[:-len(suffix)] + "eux"
                    removed = True
            elif suffix in ("ement", "ements") and word.endswith(suffix, pv):
                word = word[:-len(suffix)]
                removed = True
                if word.endswith("iv", p2):
                    word = word[:-2]
                    if word.endswith("at", p2):
                        word = word[:-2]
                elif word.endswith("eus"):
                    if word.endswith("eus", p2):
                        word = word[:-3]
                    elif word.endswith("eus", p1):
                        word = word[:-1] + "x"
                elif word.endswith(("abl", "iqU"), p2):
                    word = word[:-3]
                elif word.endswith(("i\xe8r", "I\xe8r"), pv):
                    word = word[:-3] + "i"
            elif suffix == "amment" and word.endswith(suffix, pv):
                word = word[:-6] + "ant"
            elif suffix == "emment" and word.endswith(suffix, pv):
                word = word[:-6] + "ent"
                # Kept rule: steps 2a and 2b read RV from the word before this
                # rewrite, where none of their suffixes ends, so they are
                # skipped (steps 3 and 4 both keep the final t).
                removed = True
            elif (
                suffix in ("ment", "ments")
                and word.endswith(suffix, pv)
                and not word.startswith(suffix, pv)
                and word[-len(suffix) - 1] in VOWELS
            ):
                word = word[:-len(suffix)]
            elif suffix == "aux" and word.endswith(suffix, p1):
                word = word[:-2] + "l"
                removed = True
            elif (
                suffix in ("issement", "issements")
                and word.endswith(suffix, p1)
                and word[-len(suffix) - 1] not in VOWELS
            ):
                word = word[:-len(suffix)]
                removed = True
            elif suffix in (
                "ance", "iqUe", "isme", "able", "iste", "eux",
                "ances", "iqUes", "ismes", "ables", "istes",
            ) and word.endswith(suffix, p2):
                word = word[:-len(suffix)]
                removed = True
            elif suffix in (
                "atrice", "ateur", "ation", "atrices", "ateurs", "ations",
            ) and word.endswith(suffix, p2):
                word = word[:-len(suffix)]
                removed = True
                if word.endswith("ic"):
                    # Kept rule: the ic inside a removed atrice(s) counts as in R2.
                    if word.endswith("ic", p2) or "ic" in suffix:
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
            elif suffix in ("logie", "logies") and word.endswith(suffix, p2):
                word = word[:-len(suffix)] + "log"
                removed = True
            elif suffix in ("usion", "ution", "usions", "utions") and word.endswith(suffix, p2):
                word = word[:-len(suffix)] + "u"
                removed = True
            elif suffix in ("ence", "ences") and word.endswith(suffix, p2):
                word = word[:-len(suffix)] + "ent"
                removed = True
            elif suffix in ("it\xe9", "it\xe9s") and word.endswith(suffix, p2):
                word = word[:-len(suffix)]
                removed = True
                if word.endswith("abil"):
                    if word.endswith("abil", p2):
                        word = word[:-4]
                    else:
                        word = word[:-2] + "l"
                elif word.endswith("ic"):
                    if word.endswith("ic", p2):
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
                elif word.endswith("iv", p2):
                    word = word[:-2]
            elif suffix in ("if", "ive", "ifs", "ives") and word.endswith(suffix, p2):
                word = word[:-len(suffix)]
                removed = True
                if word.endswith("at", p2):
                    word = word[:-2]
                    if word.endswith("ic"):
                        if word.endswith("ic", p2):
                            word = word[:-2]
                        else:
                            word = word[:-2] + "iqU"
            break

    # Steps 2a/2b: verb suffixes, only when step 1 removed nothing
    if not removed:
        for suffix in STEP2A_SUFFIXES:
            if word.endswith(suffix):
                if word.endswith(suffix, pv + 1) and word[-len(suffix) - 1] not in VOWELS:
                    word = word[:-len(suffix)]
                    removed = True
                break

    if not removed:
        for suffix in STEP2B_SUFFIXES:
            if word.endswith(suffix, pv):
                if suffix == "ions" and word.endswith(suffix, p2):
                    word = word[:-4]
                    removed = True
                elif suffix in _ER_LIKE:
                    word = word[:-len(suffix)]
                    removed = True
                elif suffix in _A_LIKE:
                    word = word[:-len(suffix)]
                    removed = True
                    if word.endswith("e", pv):
                        word = word[:-1]
                break

    # Step 3: tidy a trailing marked Y or cedilla
    if removed:
        if word[-1] == "Y":
            word = word[:-1] + "i"
        elif word[-1] == "\xe7":
            word = word[:-1] + "c"

    # Step 4: residual suffixes
    else:
        if len(word) >= 2 and word[-1] == "s" and word[-2] not in "aiou\xe8s":
            word = word[:-1]
        for suffix in STEP4_SUFFIXES:
            if word.endswith(suffix, pv):
                # R2 starts after RV does, so an s or t before an ion in R2 is in RV.
                if suffix == "ion" and word.endswith(suffix, p2) and word[-4:-3] in ("s", "t"):
                    word = word[:-3]
                elif suffix in ("ier", "i\xe8re", "Ier", "I\xe8re"):
                    word = word[:-len(suffix)] + "i"
                elif suffix == "e":
                    word = word[:-1]
                elif suffix == "\xeb" and word[-3:-1] == "gu":
                    word = word[:-1]
                break

    # Step 5: undouble
    if word.endswith(("enn", "onn", "ett", "ell", "eill")):
        word = word[:-1]

    # Step 6: un-accent the last vowel when it is not word-final
    for i in range(1, len(word)):
        if word[-i] in VOWELS:
            if i != 1 and word[-i] in ("\xe9", "\xe8"):
                word = word[:-i] + "e" + word[-i + 1:]
            break

    return word.replace("I", "i").replace("U", "u").replace("Y", "y")
