"""English suffix-stripping stemmer (Porter2 / Snowball family).

The regions R1 and R2 are tracked as trailing substrings of the evolving
word; every rewrite touches only the tail, so the three strings are
trimmed in lockstep.

Each suffix step first asks ``word.endswith(STEPn_SUFFIXES)`` once with the
whole table, a single call that runs in C; most words end in no suffix of
most steps and skip the step there. Only a word that does end in one walks
the table in order, so the first (longest) matching suffix still wins.
"""

from __future__ import annotations

import re

from . import region

VOWELS = "aeiouy"
DOUBLE_CONSONANTS = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
LI_ENDING = "cdeghkmnrt"

STEP0_SUFFIXES = ("'s'", "'s", "'")
STEP1A_SUFFIXES = ("sses", "ied", "ies", "us", "ss", "s")
STEP1B_SUFFIXES = ("eedly", "ingly", "edly", "eed", "ing", "ed")
STEP2_SUFFIXES = (
    "ization", "ational", "fulness", "ousness", "iveness", "tional",
    "biliti", "lessli", "entli", "ation", "alism", "aliti", "ousli",
    "iviti", "fulli", "enci", "anci", "abli", "izer", "ator", "alli",
    "bli", "ogi", "li",
)
STEP3_SUFFIXES = (
    "ational", "tional", "alize", "icate", "iciti", "ative", "ical",
    "ness", "ful",
)
STEP4_SUFFIXES = (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent",
    "ism", "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic",
)

# Irregular forms and words that must never be touched.
SPECIAL_WORDS = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
    "inning": "inning",
    "innings": "inning",
    "outing": "outing",
    "outings": "outing",
    "canning": "canning",
    "cannings": "canning",
    "herring": "herring",
    "herrings": "herring",
    "earring": "earring",
    "earrings": "earring",
    "proceed": "proceed",
    "proceeds": "proceed",
    "proceeded": "proceed",
    "proceeding": "proceed",
    "exceed": "exceed",
    "exceeds": "exceed",
    "exceeded": "exceed",
    "exceeding": "exceed",
    "succeed": "succeed",
    "succeeds": "succeed",
    "succeeded": "succeed",
    "succeeding": "succeed",
}


_VOWEL_THEN_NON_VOWEL = re.compile(f"[{VOWELS}][^{VOWELS}]").search
_HAS_VOWEL = re.compile(f"[{VOWELS}]").search


def stem(word: str) -> str:
    """Return the stem of a lowercase English word."""
    word = word.lower()

    if len(word) <= 2:
        return word
    if word in SPECIAL_WORDS:
        return SPECIAL_WORDS[word]

    # Fold typographic apostrophes, drop a leading one.
    if not word.isascii():
        word = word.replace("’", "'").replace("‘", "'").replace("‛", "'")
    if word.startswith("'"):
        word = word[1:]

    # Consonant 'y' is marked 'Y' so it never counts as a vowel below.
    if "y" in word:
        if word.startswith("y"):
            word = "Y" + word[1:]
        for i in range(1, len(word)):
            if word[i - 1] in VOWELS and word[i] == "y":
                word = word[:i] + "Y" + word[i + 1:]

    # R1 follows a fixed prefix or else the first non-vowel after a vowel;
    # R2 is the same rule applied within R1.
    if word.startswith(("gener", "arsen")):
        r1 = word[5:]
    elif word.startswith("commun"):
        r1 = word[6:]
    else:
        r1 = region(word, _VOWEL_THEN_NON_VOWEL)
    r2 = region(r1, _VOWEL_THEN_NON_VOWEL)

    # Step 0: possessives
    if word.endswith(STEP0_SUFFIXES):
        for suffix in STEP0_SUFFIXES:
            if word.endswith(suffix):
                word = word[:-len(suffix)]
                r1 = r1[:-len(suffix)]
                r2 = r2[:-len(suffix)]
                break

    # Step 1a: plural-ish endings
    if word.endswith(STEP1A_SUFFIXES):
        for suffix in STEP1A_SUFFIXES:
            if word.endswith(suffix):
                if suffix == "sses":
                    word, r1, r2 = word[:-2], r1[:-2], r2[:-2]
                elif suffix in ("ied", "ies"):
                    if len(word[:-len(suffix)]) > 1:
                        word, r1, r2 = word[:-2], r1[:-2], r2[:-2]
                    else:
                        word, r1, r2 = word[:-1], r1[:-1], r2[:-1]
                elif suffix == "s":
                    if _HAS_VOWEL(word[:-2]):
                        word, r1, r2 = word[:-1], r1[:-1], r2[:-1]
                break

    # Step 1b: -ed / -ing families
    if word.endswith(STEP1B_SUFFIXES):
        for suffix in STEP1B_SUFFIXES:
            if word.endswith(suffix):
                if suffix in ("eed", "eedly"):
                    if r1.endswith(suffix):
                        word = word[:-len(suffix)] + "ee"
                        r1 = r1[:-len(suffix)] + "ee" if len(r1) >= len(suffix) else ""
                        r2 = r2[:-len(suffix)] + "ee" if len(r2) >= len(suffix) else ""
                else:
                    if _HAS_VOWEL(word[:-len(suffix)]):
                        word = word[:-len(suffix)]
                        r1 = r1[:-len(suffix)]
                        r2 = r2[:-len(suffix)]
                        if word.endswith(("at", "bl", "iz")):
                            word += "e"
                            r1 += "e"
                            if len(word) > 5 or len(r1) >= 3:
                                r2 += "e"
                        elif word.endswith(DOUBLE_CONSONANTS):
                            word, r1, r2 = word[:-1], r1[:-1], r2[:-1]
                        elif (
                            r1 == ""
                            and len(word) >= 3
                            and word[-1] not in VOWELS
                            and word[-1] not in "wxY"
                            and word[-2] in VOWELS
                            and word[-3] not in VOWELS
                        ) or (
                            r1 == ""
                            and len(word) == 2
                            and word[0] in VOWELS
                            and word[1] not in VOWELS
                        ):
                            word += "e"
                            if r1:
                                r1 += "e"
                            if r2:
                                r2 += "e"
                break

    # Step 1c: final y -> i after a consonant
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in VOWELS:
        word = word[:-1] + "i"
        r1 = r1[:-1] + "i" if r1 else ""
        r2 = r2[:-1] + "i" if r2 else ""

    # Step 2: derivational suffixes, rewritten in R1
    if word.endswith(STEP2_SUFFIXES):
        for suffix in STEP2_SUFFIXES:
            if word.endswith(suffix):
                if r1.endswith(suffix):
                    if suffix == "tional":
                        word, r1, r2 = word[:-2], r1[:-2], r2[:-2]
                    elif suffix in ("enci", "anci", "abli"):
                        word = word[:-1] + "e"
                        r1 = r1[:-1] + "e" if r1 else ""
                        r2 = r2[:-1] + "e" if r2 else ""
                    elif suffix == "entli":
                        word, r1, r2 = word[:-2], r1[:-2], r2[:-2]
                    elif suffix in ("izer", "ization"):
                        word, r1, r2 = _replace(word, r1, r2, suffix, "ize")
                    elif suffix in ("ational", "ation", "ator"):
                        word, r1, r2 = _replace(word, r1, r2, suffix, "ate", r2_fallback="e")
                    elif suffix in ("alism", "aliti", "alli"):
                        word, r1, r2 = _replace(word, r1, r2, suffix, "al")
                    elif suffix == "fulness":
                        word, r1, r2 = word[:-4], r1[:-4], r2[:-4]
                    elif suffix in ("ousli", "ousness"):
                        word, r1, r2 = _replace(word, r1, r2, suffix, "ous")
                    elif suffix in ("iveness", "iviti"):
                        word, r1, r2 = _replace(word, r1, r2, suffix, "ive", r2_fallback="e")
                    elif suffix in ("biliti", "bli"):
                        word, r1, r2 = _replace(word, r1, r2, suffix, "ble")
                    elif suffix == "ogi" and word[-4] == "l":
                        word, r1, r2 = word[:-1], r1[:-1], r2[:-1]
                    elif suffix in ("fulli", "lessli"):
                        word, r1, r2 = word[:-2], r1[:-2], r2[:-2]
                    elif suffix == "li" and word[-3] in LI_ENDING:
                        word, r1, r2 = word[:-2], r1[:-2], r2[:-2]
                break

    # Step 3: more derivational suffixes, in R1 (one case needs R2)
    if word.endswith(STEP3_SUFFIXES):
        for suffix in STEP3_SUFFIXES:
            if word.endswith(suffix):
                if r1.endswith(suffix):
                    if suffix == "tional":
                        word, r1, r2 = word[:-2], r1[:-2], r2[:-2]
                    elif suffix == "ational":
                        word, r1, r2 = _replace(word, r1, r2, suffix, "ate")
                    elif suffix == "alize":
                        word, r1, r2 = word[:-3], r1[:-3], r2[:-3]
                    elif suffix in ("icate", "iciti", "ical"):
                        word, r1, r2 = _replace(word, r1, r2, suffix, "ic")
                    elif suffix in ("ful", "ness"):
                        word = word[:-len(suffix)]
                        r1 = r1[:-len(suffix)]
                        r2 = r2[:-len(suffix)]
                    elif suffix == "ative" and r2.endswith(suffix):
                        word, r1, r2 = word[:-5], r1[:-5], r2[:-5]
                break

    # Step 4: residual suffixes, in R2
    if word.endswith(STEP4_SUFFIXES):
        for suffix in STEP4_SUFFIXES:
            if word.endswith(suffix):
                if r2.endswith(suffix):
                    if suffix == "ion":
                        if word[-4] in "st":
                            word, r1, r2 = word[:-3], r1[:-3], r2[:-3]
                    else:
                        word = word[:-len(suffix)]
                        r1 = r1[:-len(suffix)]
                        r2 = r2[:-len(suffix)]
                break

    # Step 5: final -e / -ll cleanup
    if r2.endswith("l") and word[-2] == "l":
        word = word[:-1]
    elif r2.endswith("e"):
        word = word[:-1]
    elif r1.endswith("e"):
        if len(word) >= 4 and (
            word[-2] in VOWELS
            or word[-2] in "wxY"
            or word[-3] not in VOWELS
            or word[-4] in VOWELS
        ):
            word = word[:-1]

    return word.replace("Y", "y")


def _replace(
    word: str, r1: str, r2: str, suffix: str, repl: str, r2_fallback: str = ""
) -> tuple[str, str, str]:
    """Swap ``suffix`` for ``repl``, keeping the region strings aligned."""
    word = word[:-len(suffix)] + repl
    r1 = r1[:-len(suffix)] + repl if len(r1) >= len(suffix) else ""
    r2 = r2[:-len(suffix)] + repl if len(r2) >= len(suffix) else r2_fallback
    return word, r1, r2
