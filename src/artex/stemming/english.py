"""English suffix-stripping stemmer (Porter2 / Snowball family).

R1 and R2 are start positions, fixed once before any suffix is removed, as
Snowball fixes them: a suffix is in a region when it starts at or after the
region's start, so every rewrite changes only the word and no rule moves a
region.

Each suffix step first asks ``word.endswith(STEPn_SUFFIXES)`` once with the
whole table, a single call that runs in C; most words end in no suffix of
most steps and skip the step there. Only a word that does end in one walks
the table in order, so the first (longest) matching suffix still wins.
``stemming.ending`` is the same guard for the Spanish and French steps.
English inlines it: English is the stemmer every perfbench workload runs,
and a call to ``ending`` per step made it 16–24% slower per word (2.81–2.90
against 3.31–3.59 µs over the 102,763 per-document distinct words of the
seed-0 short perfbench corpus, best of 7, Python 3.11.7, 2 CPUs).
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
# Steps 2 and 3 map each suffix to its replacement.
STEP2 = {
    "ization": "ize", "ational": "ate", "fulness": "ful", "ousness": "ous",
    "iveness": "ive", "tional": "tion", "biliti": "ble", "lessli": "less",
    "entli": "ent", "ation": "ate", "alism": "al", "aliti": "al",
    "ousli": "ous", "iviti": "ive", "fulli": "ful", "enci": "ence",
    "anci": "ance", "abli": "able", "izer": "ize", "ator": "ate",
    "alli": "al", "bli": "ble", "ogi": "og", "li": "",
}
STEP2_SUFFIXES = tuple(STEP2)
# The letters one of which must precede these step-2 suffixes.
STEP2_PRECEDING = {"ogi": "l", "li": LI_ENDING}
STEP3 = {
    "ational": "ate", "tional": "tion", "alize": "al", "icate": "ic",
    "iciti": "ic", "ative": "", "ical": "ic", "ness": "", "ful": "",
}
STEP3_SUFFIXES = tuple(STEP3)
STEP4_SUFFIXES = (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent",
    "ism", "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic",
)

# Snowball's two exception lists. A word of the first is stemmed by the
# list before any rule runs; a word that steps 0 and 1a leave as one of the
# second is left as it is.
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
}
INVARIANT_AFTER_STEP1A = frozenset(
    ("inning", "outing", "canning", "herring", "earring", "proceed", "exceed", "succeed")
)


_VOWEL_THEN_NON_VOWEL = re.compile(f"[{VOWELS}][^{VOWELS}]").search
_HAS_VOWEL = re.compile(f"[{VOWELS}]").search


def _ends_in_short_syllable(word: str) -> bool:
    """Snowball's short syllable at the end of ``word``: a vowel then a
    non-vowel that make up the whole word, or a non-vowel, a vowel and a
    non-vowel other than w, x and Y."""
    if len(word) == 2:
        return word[0] in VOWELS and word[1] not in VOWELS
    return (
        len(word) >= 3
        and word[-1] not in VOWELS
        and word[-1] not in "wxY"
        and word[-2] in VOWELS
        and word[-3] not in VOWELS
    )


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

    # R1 starts after a fixed prefix or else after the first non-vowel that
    # follows a vowel; R2 starts by the same rule, searched from R1.
    if word.startswith(("gener", "arsen")):
        p1 = 5
    elif word.startswith("commun"):
        p1 = 6
    else:
        p1 = region(word, _VOWEL_THEN_NON_VOWEL)
    p2 = region(word, _VOWEL_THEN_NON_VOWEL, p1)

    # Step 0: possessives
    if word.endswith(STEP0_SUFFIXES):
        for suffix in STEP0_SUFFIXES:
            if word.endswith(suffix):
                word = word[:-len(suffix)]
                break

    # Step 1a: plural-ish endings
    if word.endswith(STEP1A_SUFFIXES):
        for suffix in STEP1A_SUFFIXES:
            if word.endswith(suffix):
                if suffix == "sses":
                    word = word[:-2]
                elif suffix in ("ied", "ies"):
                    word = word[:-2] if len(word) > 4 else word[:-1]
                elif suffix == "s":
                    if _HAS_VOWEL(word[:-2]):
                        word = word[:-1]
                break
    if word in INVARIANT_AFTER_STEP1A:
        return word

    # Step 1b: -ed / -ing families
    if word.endswith(STEP1B_SUFFIXES):
        for suffix in STEP1B_SUFFIXES:
            if word.endswith(suffix):
                if suffix in ("eed", "eedly"):
                    if len(word) - len(suffix) >= p1:
                        word = word[:-len(suffix)] + "ee"
                elif _HAS_VOWEL(word[:-len(suffix)]):
                    word = word[:-len(suffix)]
                    if word.endswith(("at", "bl", "iz")):
                        word += "e"
                    elif word.endswith(DOUBLE_CONSONANTS):
                        word = word[:-1]
                    # A short word (R1 empty, a short final syllable) gets an e.
                    elif len(word) <= p1 and _ends_in_short_syllable(word):
                        word += "e"
                break

    # Step 1c: final y -> i after a consonant
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in VOWELS:
        word = word[:-1] + "i"

    # Step 2: derivational suffixes, rewritten in R1
    if word.endswith(STEP2_SUFFIXES):
        for suffix in STEP2_SUFFIXES:
            if word.endswith(suffix):
                if len(word) - len(suffix) >= p1 and (
                    suffix not in STEP2_PRECEDING
                    or word[-len(suffix) - 1] in STEP2_PRECEDING[suffix]
                ):
                    word = word[:-len(suffix)] + STEP2[suffix]
                break

    # Step 3: more derivational suffixes, in R1 (ative in R2)
    if word.endswith(STEP3_SUFFIXES):
        for suffix in STEP3_SUFFIXES:
            if word.endswith(suffix):
                if len(word) - len(suffix) >= (p2 if suffix == "ative" else p1):
                    word = word[:-len(suffix)] + STEP3[suffix]
                break

    # Step 4: residual suffixes, in R2
    if word.endswith(STEP4_SUFFIXES):
        for suffix in STEP4_SUFFIXES:
            if word.endswith(suffix):
                if len(word) - len(suffix) >= p2:
                    if suffix != "ion":
                        word = word[:-len(suffix)]
                    elif word[-4] in "st":
                        word = word[:-3]
                break

    # Step 5: final -e / -ll cleanup
    if word.endswith(("e", "ll")) and len(word) - 1 >= p2:
        word = word[:-1]
    elif (
        word.endswith("e") and len(word) - 1 >= p1 and not _ends_in_short_syllable(word[:-1])
    ):
        word = word[:-1]

    return word.replace("Y", "y")
