"""English suffix-stripping stemmer (Porter2 / Snowball family).

R1 and R2 are start positions, fixed once before any suffix is removed: a
suffix is in a region when it starts at or after the region's start, so
every rewrite changes only the word. Two rules still move R2:

- the R2 fallback field of the step-2 and step-3 tables: when R2 began
  inside the replaced suffix, R2 becomes empty, or the final ``e`` after
  step 2's ``ate`` and ``ive`` (``None`` leaves R2 where it is);
- step 1b, one commented line: the ``e`` added after ``at``, ``bl`` or
  ``iz`` joins R2 in a word of six letters or more.

Snowball's fixed positions have neither rule. Without the first,
realization and realizer would stem to realiz, as realize does; without
the second, rjhized would stem to rjhize.

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
# Steps 2 and 3 map each suffix to its replacement and R2 fallback: when R2
# began inside the replaced suffix, R2 becomes the fallback (None: R2 stays).
STEP2 = {
    "ization": ("ize", ""), "ational": ("ate", "e"), "fulness": ("ful", None),
    "ousness": ("ous", ""), "iveness": ("ive", "e"), "tional": ("tion", None),
    "biliti": ("ble", ""), "lessli": ("less", None), "entli": ("ent", None),
    "ation": ("ate", "e"), "alism": ("al", ""), "aliti": ("al", ""),
    "ousli": ("ous", ""), "iviti": ("ive", "e"), "fulli": ("ful", None),
    "enci": ("ence", None), "anci": ("ance", None), "abli": ("able", None),
    "izer": ("ize", ""), "ator": ("ate", "e"), "alli": ("al", ""),
    "bli": ("ble", ""), "ogi": ("og", None), "li": ("", None),
}
STEP2_SUFFIXES = tuple(STEP2)
# The letters one of which must precede these step-2 suffixes.
STEP2_PRECEDING = {"ogi": "l", "li": LI_ENDING}
STEP3 = {
    "ational": ("ate", ""), "tional": ("tion", None), "alize": ("al", None),
    "icate": ("ic", ""), "iciti": ("ic", ""), "ative": ("", None),
    "ical": ("ic", ""), "ness": ("", None), "ful": ("", None),
}
STEP3_SUFFIXES = tuple(STEP3)
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
                        # The added e joins R2 in a word of six letters or more.
                        if len(word) > 5:
                            p2 = min(p2, len(word) - 1)
                    elif word.endswith(DOUBLE_CONSONANTS):
                        word = word[:-1]
                    # A short word (R1 empty, a short final syllable) gets an e.
                    elif len(word) <= p1 and (
                        (
                            len(word) >= 3
                            and word[-1] not in VOWELS
                            and word[-1] not in "wxY"
                            and word[-2] in VOWELS
                            and word[-3] not in VOWELS
                        ) or (
                            len(word) == 2
                            and word[0] in VOWELS
                            and word[1] not in VOWELS
                        )
                    ):
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
                    word, p2 = _replace(word, p2, suffix, *STEP2[suffix])
                break

    # Step 3: more derivational suffixes, in R1 (ative in R2)
    if word.endswith(STEP3_SUFFIXES):
        for suffix in STEP3_SUFFIXES:
            if word.endswith(suffix):
                if len(word) - len(suffix) >= (p2 if suffix == "ative" else p1):
                    word, p2 = _replace(word, p2, suffix, *STEP3[suffix])
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
    elif word.endswith("e") and len(word) - 1 >= p1:
        if len(word) >= 4 and (
            word[-2] in VOWELS
            or word[-2] in "wxY"
            or word[-3] not in VOWELS
            or word[-4] in VOWELS
        ):
            word = word[:-1]

    return word.replace("Y", "y")


def _replace(
    word: str, p2: int, suffix: str, repl: str, r2_fallback: str | None
) -> tuple[str, int]:
    """Swap ``suffix`` for ``repl``; return the new word and R2's start."""
    word = word[:-len(suffix)] + repl
    if r2_fallback is not None and p2 > len(word) - len(repl):
        # R2 began inside the suffix, so it becomes ``r2_fallback``.
        p2 = len(word) - len(r2_fallback)
    return word, p2
