"""French suffix-stripping stemmer (Snowball family).

Vowels playing a consonant role (u after q, u/i between vowels, y next to
a vowel) are upper-cased before the regions are computed and restored at
the end. R1/R2/RV are trailing substrings of the marked word.
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


def _rv_region(word: str) -> str:
    # "par", "col" and "tap" prefixes count like a leading double vowel.
    rv = ""
    if len(word) >= 2:
        if word.startswith(("par", "col", "tap")) or (
            word[0] in VOWELS and word[1] in VOWELS
        ):
            rv = word[3:]
        else:
            for i in range(1, len(word)):
                if word[i] in VOWELS:
                    rv = word[i + 1:]
                    break
    return rv


def stem(word: str) -> str:
    """Return the stem of a lowercase French word."""
    word = word.lower()

    step1_success = False
    rv_ending_found = False
    step2a_success = False
    step2b_success = False

    word = _mark_consonant_vowels(word)
    p1 = region(word, _VOWEL_THEN_NON_VOWEL)
    r1 = word[p1:]
    r2 = word[region(word, _VOWEL_THEN_NON_VOWEL, p1):]
    rv = _rv_region(word)

    # Step 1: standard suffixes
    for suffix in STEP1_SUFFIXES:
        if word.endswith(suffix):
            if suffix == "eaux":
                word = word[:-1]
                step1_success = True
            elif suffix in ("euse", "euses"):
                if suffix in r2:
                    word = word[:-len(suffix)]
                    step1_success = True
                elif suffix in r1:
                    word = word[:-len(suffix)] + "eux"
                    step1_success = True
            elif suffix in ("ement", "ements") and suffix in rv:
                word = word[:-len(suffix)]
                step1_success = True
                if word[-2:] == "iv" and "iv" in r2:
                    word = word[:-2]
                    if word[-2:] == "at" and "at" in r2:
                        word = word[:-2]
                elif word[-3:] == "eus":
                    if "eus" in r2:
                        word = word[:-3]
                    elif "eus" in r1:
                        word = word[:-1] + "x"
                elif word[-3:] in ("abl", "iqU"):
                    if "abl" in r2 or "iqU" in r2:
                        word = word[:-3]
                elif word[-3:] in ("i\xe8r", "I\xe8r"):
                    if "i\xe8r" in rv or "I\xe8r" in rv:
                        word = word[:-3] + "i"
            elif suffix == "amment" and suffix in rv:
                word = word[:-6] + "ant"
                rv = rv[:-6] + "ant"
                rv_ending_found = True
            elif suffix == "emment" and suffix in rv:
                word = word[:-6] + "ent"
                rv_ending_found = True
            elif (
                suffix in ("ment", "ments")
                and suffix in rv
                and not rv.startswith(suffix)
                and rv[rv.rindex(suffix) - 1] in VOWELS
            ):
                word = word[:-len(suffix)]
                rv = rv[:-len(suffix)]
                rv_ending_found = True
            elif suffix == "aux" and suffix in r1:
                word = word[:-2] + "l"
                step1_success = True
            elif (
                suffix in ("issement", "issements")
                and suffix in r1
                and word[-len(suffix) - 1] not in VOWELS
            ):
                word = word[:-len(suffix)]
                step1_success = True
            elif suffix in (
                "ance", "iqUe", "isme", "able", "iste", "eux",
                "ances", "iqUes", "ismes", "ables", "istes",
            ) and suffix in r2:
                word = word[:-len(suffix)]
                step1_success = True
            elif suffix in (
                "atrice", "ateur", "ation", "atrices", "ateurs", "ations",
            ) and suffix in r2:
                word = word[:-len(suffix)]
                step1_success = True
                if word[-2:] == "ic":
                    if "ic" in r2:
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
            elif suffix in ("logie", "logies") and suffix in r2:
                word = word[:-len(suffix)] + "log"
                step1_success = True
            elif suffix in ("usion", "ution", "usions", "utions") and suffix in r2:
                word = word[:-len(suffix)] + "u"
                step1_success = True
            elif suffix in ("ence", "ences") and suffix in r2:
                word = word[:-len(suffix)] + "ent"
                step1_success = True
            elif suffix in ("it\xe9", "it\xe9s") and suffix in r2:
                word = word[:-len(suffix)]
                step1_success = True
                if word[-4:] == "abil":
                    if "abil" in r2:
                        word = word[:-4]
                    else:
                        word = word[:-2] + "l"
                elif word[-2:] == "ic":
                    if "ic" in r2:
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
                elif word[-2:] == "iv":
                    if "iv" in r2:
                        word = word[:-2]
            elif suffix in ("if", "ive", "ifs", "ives") and suffix in r2:
                word = word[:-len(suffix)]
                step1_success = True
                if word[-2:] == "at" and "at" in r2:
                    word = word[:-2]
                    if word[-2:] == "ic":
                        if "ic" in r2:
                            word = word[:-2]
                        else:
                            word = word[:-2] + "iqU"
            break

    # Steps 2a/2b: verb suffixes
    if not step1_success or rv_ending_found:
        for suffix in STEP2A_SUFFIXES:
            if word.endswith(suffix):
                if (
                    suffix in rv
                    and len(rv) > len(suffix)
                    and rv[rv.rindex(suffix) - 1] not in VOWELS
                ):
                    word = word[:-len(suffix)]
                    step2a_success = True
                break

        if not step2a_success:
            for suffix in STEP2B_SUFFIXES:
                if rv.endswith(suffix):
                    if suffix == "ions" and "ions" in r2:
                        word = word[:-4]
                        step2b_success = True
                    elif suffix in _ER_LIKE:
                        word = word[:-len(suffix)]
                        step2b_success = True
                    elif suffix in _A_LIKE:
                        word = word[:-len(suffix)]
                        rv = rv[:-len(suffix)]
                        step2b_success = True
                        if rv.endswith("e"):
                            word = word[:-1]
                    break

    # Step 3: tidy a trailing marked Y or cedilla
    if step1_success or step2a_success or step2b_success:
        if word[-1] == "Y":
            word = word[:-1] + "i"
        elif word[-1] == "\xe7":
            word = word[:-1] + "c"

    # Step 4: residual suffixes
    else:
        if len(word) >= 2 and word[-1] == "s" and word[-2] not in "aiou\xe8s":
            word = word[:-1]
        for suffix in STEP4_SUFFIXES:
            if word.endswith(suffix):
                if suffix in rv:
                    if suffix == "ion" and suffix in r2 and len(rv) >= 4 and rv[-4] in "st":
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
