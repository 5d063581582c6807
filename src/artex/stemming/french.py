"""French suffix-stripping stemmer (Snowball family).

Vowels playing a consonant role (u after q, u/i between vowels, y next to
a vowel) are upper-cased before the regions are computed and restored at
the end. R1, R2 and RV are start positions in the marked word, fixed once
before any suffix is removed: ``word.endswith(suffix, p2)`` asks whether
``suffix`` is in R2. The step-1 suffixes that, in R2, are only removed or
replaced by a fixed ending are one table, ``STEP1_IN_R2``.
"""

from __future__ import annotations

import re

from . import ending, region

VOWELS = "aeiouy\xe2\xe0\xeb\xe9\xea\xe8\xef\xee\xf4\xfb\xf9"
_VOWEL_THEN_NON_VOWEL = re.compile(f"[{VOWELS}][^{VOWELS}]").search
_VOWEL = re.compile(f"[{VOWELS}]").search

STEP1_SUFFIXES = (
    "issements", "issement", "atrices", "atrice", "ateurs", "ations",
    "logies", "usions", "utions", "ements", "amment", "emment",
    "ances", "iqUes", "ismes", "ables", "istes", "ateur", "ation",
    "logie", "usion", "ution", "ences", "ement", "euses", "ments",
    "ance", "iqUe", "isme", "able", "iste", "ence", "it\xe9s", "ives",
    "eaux", "euse", "ment", "eux", "it\xe9", "ive", "ifs", "aux", "if",
)
# Step 1's suffixes that, in R2, are replaced by a fixed ending.
STEP1_IN_R2 = {
    "ance": "", "iqUe": "", "isme": "", "able": "", "iste": "", "eux": "",
    "ances": "", "iqUes": "", "ismes": "", "ables": "", "istes": "",
    "logie": "log", "logies": "log", "usion": "u", "ution": "u",
    "usions": "u", "utions": "u", "ence": "ent", "ences": "ent",
}
STEP2A_SUFFIXES = (
    "issaIent", "issantes", "iraIent", "issante", "issants", "issions",
    "irions", "issais", "issait", "issant", "issent", "issiez",
    "issons", "irais", "irait", "irent", "iriez", "irons", "iront",
    "isses", "issez", "\xeemes", "\xeetes", "irai", "iras", "irez",
    "isse", "ies", "ira", "\xeet", "ie", "ir", "is", "it", "i",
)
# Step 2b's suffixes in RV, each with its rule: "ions" is removed in R2, the
# "er" family is removed, and the "a" family is removed with an e before it
# in RV.
STEP2B = {
    "eraIent": "er", "assions": "a", "erions": "er", "assent": "a",
    "assiez": "a", "\xe8rent": "er", "erais": "er", "erait": "er",
    "eriez": "er", "erons": "er", "eront": "er", "aIent": "a",
    "antes": "a", "asses": "a", "ions": "ions", "erai": "er", "eras": "er",
    "erez": "er", "\xe2mes": "a", "\xe2tes": "a", "ante": "a", "ants": "a",
    "asse": "a", "\xe9es": "er", "era": "er", "iez": "er", "ais": "a",
    "ait": "a", "ant": "a", "\xe9e": "er", "\xe9s": "er", "er": "er",
    "ez": "er", "\xe2t": "a", "ai": "a", "as": "a", "\xe9": "er", "a": "a",
}
STEP2B_SUFFIXES = tuple(STEP2B)
STEP4_SUFFIXES = ("i\xe8re", "I\xe8re", "ion", "ier", "Ier", "e", "\xeb")


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
        return region(word, _VOWEL, 1)
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
    suffix = ending(word, STEP1_SUFFIXES)
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
    # amment becomes ant and emment ent; neither they nor ment(s) set
    # removed, so steps 2a and 2b still run.
    elif suffix in ("amment", "emment") and word.endswith(suffix, pv):
        word = word[:-5] + "nt"
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
    elif suffix in STEP1_IN_R2 and word.endswith(suffix, p2):
        word = word[:-len(suffix)] + STEP1_IN_R2[suffix]
        removed = True
    elif suffix in (
        "atrice", "ateur", "ation", "atrices", "ateurs", "ations",
    ) and word.endswith(suffix, p2):
        word = word[:-len(suffix)]
        removed = True
        if word.endswith("ic"):
            if word.endswith("ic", p2):
                word = word[:-2]
            else:
                word = word[:-2] + "iqU"
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

    # Steps 2a/2b: verb suffixes, only when step 1 removed nothing
    if not removed:
        suffix = ending(word, STEP2A_SUFFIXES)
        if suffix and word.endswith(suffix, pv + 1) and word[-len(suffix) - 1] not in VOWELS:
            word = word[:-len(suffix)]
            removed = True

    if not removed:
        suffix = ending(word, STEP2B_SUFFIXES, pv)
        if suffix and (STEP2B[suffix] != "ions" or word.endswith(suffix, p2)):
            word = word[:-len(suffix)]
            removed = True
            if STEP2B[suffix] == "a" and word.endswith("e", pv):
                word = word[:-1]

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
        suffix = ending(word, STEP4_SUFFIXES, pv)
        # R2 starts after RV does, so an s or t before an ion in R2 is in RV.
        if suffix == "ion" and word.endswith(suffix, p2) and word[-4:-3] in ("s", "t"):
            word = word[:-3]
        elif suffix in ("ier", "i\xe8re", "Ier", "I\xe8re"):
            word = word[:-len(suffix)] + "i"
        elif suffix == "e":
            word = word[:-1]
        elif suffix == "\xeb" and word[-3:-1] == "gu":
            word = word[:-1]

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
