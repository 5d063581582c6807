"""Tests for the bundled Snowball-family stemmers.

The frozen vectors below were produced with a widely used independent
implementation of the same algorithms and pasted in as literals, so these
tests do not depend on any external stemming package at run time.
"""

import hashlib
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artex.stemming import SUPPORTED_LANGUAGES, english, french, region, spanish, stemmer_for

EN_VECTORS = {
    "abilities": "abil",
    "adjustable": "adjust",
    "adoption": "adopt",
    "agreed": "agre",
    "airliner": "airlin",
    "allowance": "allow",
    "argues": "argu",
    "arguing": "argu",
    "argument": "argument",
    "beautifully": "beauti",
    "bias": "bias",
    "caresses": "caress",
    "communities": "communiti",
    "conditional": "condit",
    "consistency": "consist",
    "consolidate": "consolid",
    "conspirators": "conspir",
    "crying": "cri",
    "decisiveness": "decis",
    "defensible": "defens",
    "dependent": "depend",
    "digitizer": "digit",
    "dying": "die",
    "early": "earli",
    "effective": "effect",
    "electricity": "electr",
    "extraction": "extract",
    "falling": "fall",
    "formality": "formal",
    "formative": "format",
    "generate": "generat",
    "generously": "generous",
    "happiness": "happi",
    "hesitancy": "hesit",
    "hopefulness": "hope",
    "hopping": "hop",
    "inference": "infer",
    "knitting": "knit",
    "knives": "knive",
    "lying": "lie",
    "meeting": "meet",
    "motoring": "motor",
    "news": "news",
    "only": "onli",
    "operator": "oper",
    "plastered": "plaster",
    "ponies": "poni",
    "predication": "predic",
    "proceeding": "proceed",
    "radically": "radic",
    "relational": "relat",
    "replacement": "replac",
    "revival": "reviv",
    "sensitivity": "sensit",
    "sentences": "sentenc",
    "singly": "singl",
    "skies": "sky",
    "skis": "ski",
    "stationary": "stationari",
    "string": "string",
    "succeeding": "succeed",
    "summarization": "summar",
    "triplicate": "triplic",
    "united": "unit",
    "universities": "univers",
    "valence": "valenc",
    "vietnamization": "vietnam",
    "written": "written",
}

ES_VECTORS = {
    "actividades": "activ",
    "actrices": "actric",
    "amable": "amabl",
    "amando": "amand",
    "amaría": "amar",
    "artista": "artist",
    "biología": "biolog",
    "calidad": "calid",
    "canciones": "cancion",
    "canción": "cancion",
    "capitalismo": "capital",
    "comprándolo": "compr",
    "computadora": "comput",
    "construyeron": "constru",
    "corazones": "corazon",
    "corriendo": "corr",
    "dificultades": "dificultad",
    "dámelo": "damel",
    "dándoselo": "dandosel",
    "escribiendo": "escrib",
    "esperanza": "esper",
    "estudiante": "estudi",
    "felices": "felic",
    "gatos": "gat",
    "guerras": "guerr",
    "hablando": "habl",
    "hermoso": "hermos",
    "huyendo": "huyend",
    "importancia": "import",
    "jueces": "juec",
    "leyendo": "leyend",
    "lápices": "lapic",
    "médico": "medic",
    "naciones": "nacion",
    "paciencia": "pacienci",
    "pensamiento": "pensamient",
    "posible": "posibl",
    "positivo": "posit",
    "producción": "produccion",
    "raíces": "raic",
    "realmente": "realment",
    "rápidamente": "rapid",
    "solamente": "sol",
    "tecnología": "tecnolog",
    "temiendo": "tem",
    "trabajador": "trabaj",
    "universidades": "univers",
    "viviendo": "viv",
    "árboles": "arbol",
}

FR_VECTORS = {
    "ambitieux": "ambiti",
    "anciennes": "ancien",
    "animaux": "animal",
    "bateaux": "bateau",
    "biologie": "biolog",
    "bouteilles": "bouteil",
    "carrières": "carri",
    "chanteraient": "chant",
    "chevaux": "cheval",
    "châteaux": "château",
    "conditions": "condit",
    "confusion": "confus",
    "conférences": "conférent",
    "constamment": "const",
    "continuellement": "continuel",
    "croyant": "croi",
    "créations": "création",
    "curieuse": "curieux",
    "dernières": "derni",
    "différences": "différent",
    "dispositions": "disposit",
    "données": "don",
    "développements": "développ",
    "enseignements": "enseign",
    "essayons": "essayon",
    "fillettes": "fillet",
    "finissaient": "fin",
    "frontières": "fronti",
    "gouvernements": "gouvern",
    "générations": "géner",
    "généraux": "général",
    "heureusement": "heureux",
    "informations": "inform",
    "italiennes": "italien",
    "journaux": "journal",
    "logiquement": "logiqu",
    "lumières": "lumi",
    "majestueusement": "majestu",
    "malheureusement": "malheur",
    "matières": "mati",
    "merveilleuse": "merveil",
    "mouvements": "mouv",
    "nationalement": "national",
    "nationaux": "national",
    "oiseaux": "oiseau",
    "parisiennes": "parisien",
    "personnes": "person",
    "premières": "premi",
    "principaux": "principal",
    "propositions": "proposit",
    "prudemment": "prudent",
    "précieuse": "précieux",
    "religieuse": "religi",
    "rivières": "rivi",
    "récemment": "récent",
    "révolution": "révolu",
    "solutions": "solut",
    "sérieusement": "sérieux",
    "tableaux": "tableau",
    "évidemment": "évident",
}

ALL_VECTORS = {"en": EN_VECTORS, "es": ES_VECTORS, "fr": FR_VECTORS}


@pytest.mark.parametrize("language", sorted(ALL_VECTORS))
def test_frozen_vectors(language):
    for word, expected in ALL_VECTORS[language].items():
        assert stemmer_for(language)(word) == expected, (language, word)


# Words whose stems depend on R2 staying where it starts, as in Snowball,
# one entry per rule that would move it: a step-2 or step-3 rewrite that
# moved R2 when R2 began inside the suffix would stem realization and
# realizer to realize, not realiz as realize; an e added by step 1b that
# joined R2 would stem rjhized to rjhiz, not rjhize.
EN_KEPT_R2_RULE_VECTORS = {
    "replace_fallback": {"realization": "realiz", "realizer": "realiz"},
    "step1b_added_e": {"rjhized": "rjhize"},
}


@pytest.mark.parametrize("rule", sorted(EN_KEPT_R2_RULE_VECTORS))
def test_english_kept_r2_rule(rule):
    for word, expected in EN_KEPT_R2_RULE_VECTORS[rule].items():
        assert english.stem(word) == expected, (rule, word)


# Words whose stems depend on French step 1 following Snowball, one entry
# per rule that the stemmer once kept beside it: an ic before a removed
# atrice(s) is in R2 only where it starts in R2, so fabricatrice(s) stem to
# fabriqu, as fabrication does; emment becomes ent and steps 2a and 2b still
# run, so finissemment stems to fin, as finissent does.
FR_KEPT_RULE_VECTORS = {
    "atrice_ic": {"fabricatrice": "fabriqu", "fabricatrices": "fabriqu"},
    "emment_rv": {"finissemment": "fin"},
}


@pytest.mark.parametrize("rule", sorted(FR_KEPT_RULE_VECTORS))
def test_french_kept_rule(rule):
    for word, expected in FR_KEPT_RULE_VECTORS[rule].items():
        assert french.stem(word) == expected, (rule, word)


# One word per entry of the English step-2 and step-3 tables and of the
# French STEP1_IN_R2 table, with its stem: each word reaches its entry, so a
# wrong entry fails under its own suffix. ogi and li have a word with and one
# without the letter they need before them; ative one with it in R2 and one
# with it in R1 only; realization, realizer and sensationally stem as do
# the words they are rewritten to (realize, sensational).
EN_STEP2_RULE_VECTORS = {
    "ization": {"realization": "realiz"},
    "ational": {"relational": "relat"},
    "fulness": {"hopefulness": "hope"},
    "ousness": {"callousness": "callous"},
    "iveness": {"effectiveness": "effect"},
    "tional": {"conditional": "condit"},
    "biliti": {"sensibility": "sensibl"},
    "lessli": {"carelessly": "careless"},
    "entli": {"recently": "recent"},
    "ation": {"information": "inform"},
    "alism": {"formalism": "formal"},
    "aliti": {"formality": "formal"},
    "ousli": {"generously": "generous"},
    "iviti": {"sensitivity": "sensit"},
    "fulli": {"hopefully": "hope"},
    "enci": {"urgency": "urgenc"},
    "anci": {"hesitancy": "hesit"},
    "abli": {"reasonably": "reason"},
    "izer": {"realizer": "realiz"},
    "ator": {"operator": "oper"},
    "alli": {"radically": "radic"},
    "bli": {"possibly": "possibl"},
    "ogi": {"theology": "theolog", "pedagogy": "pedagogi"},
    "li": {"warmly": "warm", "happily": "happili"},
}
EN_STEP3_RULE_VECTORS = {
    "ational": {"sensationally": "sensat"},
    "tional": {"conditionally": "condit"},
    "alize": {"formalize": "formal"},
    "icate": {"duplicate": "duplic"},
    "iciti": {"electricity": "electr"},
    "ative": {"demonstrative": "demonstr", "formative": "format"},
    "ical": {"electrical": "electr"},
    "ness": {"kindness": "kind"},
    "ful": {"hopeful": "hope"},
}
FR_STEP1_IN_R2_VECTORS = {
    "ance": {"importance": "import"},
    "iqUe": {"politique": "polit"},
    "isme": {"capitalisme": "capital"},
    "able": {"raisonnable": "raison"},
    "iste": {"capitaliste": "capital"},
    "eux": {"courageux": "courag"},
    "ances": {"importances": "import"},
    "iqUes": {"politiques": "polit"},
    "ismes": {"capitalismes": "capital"},
    "ables": {"raisonnables": "raison"},
    "istes": {"capitalistes": "capital"},
    "logie": {"m\xe9t\xe9orologie": "m\xe9t\xe9orolog"},
    "logies": {"m\xe9t\xe9orologies": "m\xe9t\xe9orolog"},
    "usion": {"d\xe9sillusion": "d\xe9sillu"},
    "ution": {"\xe9volution": "\xe9volu"},
    "usions": {"d\xe9sillusions": "d\xe9sillu"},
    "utions": {"\xe9volutions": "\xe9volu"},
    "ence": {"diff\xe9rence": "diff\xe9rent"},
    "ences": {"diff\xe9rences": "diff\xe9rent"},
}
RULE_TABLES = {
    "en-step2": (english.STEP2, EN_STEP2_RULE_VECTORS, english.stem),
    "en-step3": (english.STEP3, EN_STEP3_RULE_VECTORS, english.stem),
    "fr-step1-in-r2": (french.STEP1_IN_R2, FR_STEP1_IN_R2_VECTORS, french.stem),
}


@pytest.mark.parametrize("table", sorted(RULE_TABLES))
def test_every_rule_table_entry_has_vectors(table):
    rules, vectors, _ = RULE_TABLES[table]
    assert list(vectors) == list(rules)


@pytest.mark.parametrize(
    "table, suffix",
    [(table, suffix) for table, (_, vectors, _) in RULE_TABLES.items() for suffix in vectors],
)
def test_rule_table_entry(table, suffix):
    _, vectors, stem = RULE_TABLES[table]
    for word, expected in vectors[suffix].items():
        assert stem(word) == expected, (table, suffix, word)


def _suffix_tables(module):
    """A stemmer module's suffix tables: its upper-case tuples, and its
    upper-case dicts but the English special words (keyed by suffix)."""
    for name, value in vars(module).items():
        if name.isupper() and name != "SPECIAL_WORDS" and isinstance(value, (tuple, dict)):
            yield name, list(value)


@pytest.mark.parametrize("language", SUPPORTED_LANGUAGES)
def test_no_suffix_follows_a_shorter_suffix_it_ends_with(language):
    # Each step takes the first suffix in table order that a word ends
    # with; that is Snowball's longest match only because of this.
    tables = dict(_suffix_tables(STEMMER_MODULES[language]))
    assert tables
    for name, suffixes in tables.items():
        for i, earlier in enumerate(suffixes):
            for later in suffixes[i + 1:]:
                assert not (len(earlier) < len(later) and later.endswith(earlier)), (
                    name, earlier, later,
                )


def test_supported_languages():
    assert SUPPORTED_LANGUAGES == ("en", "es", "fr")


def test_unknown_language_rejected():
    with pytest.raises(ValueError):
        stemmer_for("de")


@pytest.mark.parametrize("language", sorted(ALL_VECTORS))
def test_case_insensitive(language):
    for word in list(ALL_VECTORS[language])[:10]:
        assert stemmer_for(language)(word.upper()) == stemmer_for(language)(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzáéíóúüçàèêëîïôûù'-", max_size=20))
@settings(max_examples=300)
def test_total_and_deterministic(word):
    # Stemmers must accept any token the tokenizer can emit without raising
    # and must be pure functions of their input.
    for language in SUPPORTED_LANGUAGES:
        fn = stemmer_for(language)
        assert fn(word) == fn(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
@settings(max_examples=300)
def test_ascii_never_lengthens(word):
    for language in SUPPORTED_LANGUAGES:
        assert len(stemmer_for(language)(word)) <= len(word)


def _loop_regions(word: str, vowels: str) -> tuple[str, str]:
    """R1 and R2 as the Spanish and French stemmers once computed them."""
    r1 = ""
    r2 = ""
    for i in range(1, len(word)):
        if word[i] not in vowels and word[i - 1] in vowels:
            r1 = word[i + 1:]
            break
    for i in range(1, len(r1)):
        if r1[i] not in vowels and r1[i - 1] in vowels:
            r2 = r1[i + 1:]
            break
    return r1, r2


STEMMER_MODULES = {"en": english, "es": spanish, "fr": french}
# Every language's vowels, consonants, the French consonant-role markers
# U, I and Y, and an apostrophe.
REGION_ALPHABET = "".join(
    sorted(set(english.VOWELS + spanish.VOWELS + french.VOWELS + "bcdfghjklmnpqrstvwxzUIY'"))
)


@pytest.mark.parametrize("language", SUPPORTED_LANGUAGES)
@given(word=st.text(alphabet=REGION_ALPHABET, max_size=20))
@settings(max_examples=500)
def test_region_matches_the_loop_oracle(language, word):
    module = STEMMER_MODULES[language]
    p1 = region(word, module._VOWEL_THEN_NON_VOWEL)
    p2 = region(word, module._VOWEL_THEN_NON_VOWEL, p1)
    assert (word[p1:], word[p2:]) == _loop_regions(word, module.VOWELS)


def _french_rv_string(word: str) -> str:
    """RV as the French stemmer once computed it."""
    rv = ""
    if len(word) >= 2:
        if word.startswith(("par", "col", "tap")) or (
            word[0] in french.VOWELS and word[1] in french.VOWELS
        ):
            rv = word[3:]
        else:
            for i in range(1, len(word)):
                if word[i] in french.VOWELS:
                    rv = word[i + 1:]
                    break
    return rv


def _spanish_rv_string(word: str) -> str:
    """RV as the Spanish stemmer once computed it."""
    rv = ""
    if len(word) >= 2:
        if word[1] not in spanish.VOWELS:
            for i in range(2, len(word)):
                if word[i] in spanish.VOWELS:
                    rv = word[i + 1:]
                    break
        elif word[0] in spanish.VOWELS and word[1] in spanish.VOWELS:
            for i in range(2, len(word)):
                if word[i] not in spanish.VOWELS:
                    rv = word[i + 1:]
                    break
        else:
            rv = word[3:]
    return rv


RV_ORACLES = {"es": _spanish_rv_string, "fr": _french_rv_string}


@pytest.mark.parametrize("language", sorted(RV_ORACLES))
@given(word=st.text(alphabet=REGION_ALPHABET, max_size=20))
@settings(max_examples=500)
def test_rv_start_matches_the_string_oracle(language, word):
    # RV may start past the end of a short word, so compare the slices.
    assert word[STEMMER_MODULES[language]._rv_start(word):] == RV_ORACLES[language](word)


def test_spanish_step2b_suffixes_never_follow_a_step2a_removal():
    # Step 2a removes a suffix only after a u, and no step 2b suffix ends in
    # u, so running 2b after a 2a removal would remove nothing either.
    assert not any(suffix.endswith("u") for suffix in spanish.STEP2B_SUFFIXES)


def _english_region_starts(word: str) -> tuple[int, int]:
    """R1's and R2's starts in an English word without y: the loop oracle's
    regions, with R1 fixed after the gener, commun and arsen prefixes."""
    prefix = next((p for p in ("gener", "commun", "arsen") if word.startswith(p)), "")
    r1 = word[len(prefix):] if prefix else _loop_regions(word, english.VOWELS)[0]
    # R2 is the R1 of R1.
    r2 = _loop_regions(r1, english.VOWELS)[0]
    return len(word) - len(r1), len(word) - len(r2)


def _longest_suffix(word: str, suffixes) -> str | None:
    return max((suffix for suffix in suffixes if word.endswith(suffix)), key=len, default=None)


def _no_step_changes(word: str, *tables) -> bool:
    """Whether no step of ``tables`` changes ``word``: it is no special word
    and ends in no suffix of theirs, except step 1a's us and ss, which that
    step leaves as they are."""
    return word not in english.SPECIAL_WORDS and all(
        _longest_suffix(word, table) in (None, "us", "ss") for table in tables
    )


# Snowball's English step-2 and step-3 rules, each suffix with its
# replacement ("" deletes it), written out from Snowball's description and
# not taken from english.py, so that the property below checks its tables.
# Step 2 deletes li only after a valid li-ending, and rewrites ogi only
# after l; step 3 deletes ative only in R2.
SNOWBALL_EN_RULES = {
    "step2": {
        "tional": "tion", "enci": "ence", "anci": "ance", "abli": "able",
        "entli": "ent", "izer": "ize", "ization": "ize", "ational": "ate",
        "ation": "ate", "ator": "ate", "alism": "al", "aliti": "al",
        "alli": "al", "fulness": "ful", "ousli": "ous", "ousness": "ous",
        "iveness": "ive", "iviti": "ive", "biliti": "ble", "bli": "ble",
        "ogi": "og", "fulli": "ful", "lessli": "less", "li": "",
    },
    "step3": {
        "tional": "tion", "ational": "ate", "alize": "al", "icate": "ic",
        "iciti": "ic", "ical": "ic", "ful": "", "ness": "", "ative": "",
    },
}
# Each step's suffixes, in the order the steps run.
EN_STEP_SUFFIXES = {
    "step0": english.STEP0_SUFFIXES,
    "step1a": english.STEP1A_SUFFIXES,
    "step1b": english.STEP1B_SUFFIXES,
    **SNOWBALL_EN_RULES,
}
# (step, suffix, replacement) of every step-2 and step-3 rule with a
# non-empty replacement. Step 3's ational and tional fall to the premises: a
# word that ends in them ends in step 2's too, which step 2 rewrites first.
EN_REWRITES = [
    (step, suffix, replacement)
    for step, rules in SNOWBALL_EN_RULES.items()
    for suffix, replacement in rules.items()
    if replacement
]


def _english_conflations(x: str):
    """(rule, word, other) for each rule that must give ``word`` and ``other``
    one stem, wherever its premises hold: x+suffix and x+replacement for a
    step-2 or step-3 rule, x+ed and x+ing for step 1b.

    Both words reach the rule's step unchanged and with the same regions;
    there the word's longest suffix of the step is the rule's, in R1 and
    after the l that ogi asks for, and the other's is the suffix given (none
    for a rewrite). From the step on the two words are alike, so the later
    steps need no premise.
    """
    pairs = [("step1b", "ed", x + "ed", x + "ing", "ing")]
    pairs += [
        (step, suffix, x + suffix, x + replacement, None)
        for step, suffix, replacement in EN_REWRITES
    ]
    steps = list(EN_STEP_SUFFIXES)
    for step, suffix, word, other, other_suffix in pairs:
        earlier = [EN_STEP_SUFFIXES[name] for name in steps[:steps.index(step)]]
        p1, _ = starts = _english_region_starts(word)
        if (
            _no_step_changes(word, *earlier)
            and _no_step_changes(other, *earlier)
            and _english_region_starts(other) == starts
            and _longest_suffix(word, EN_STEP_SUFFIXES[step]) == suffix
            and _longest_suffix(other, EN_STEP_SUFFIXES[step]) == other_suffix
            and (step == "step1b" or len(x) >= p1)
            and (suffix != "ogi" or x.endswith("l"))
        ):
            yield f"{step}-{suffix}", word, other


@given(
    x=st.tuples(
        st.sampled_from(("", "", "", "gener", "commun", "arsen")),
        st.text(alphabet="abcdefghijklmnopqrstuvwxz", min_size=1, max_size=8),
    ).map("".join)
)
@settings(max_examples=500)
def test_english_rules_conflate_the_words_they_rewrite(x):
    # R1 and R2 are fixed once per word, so a word that a rule rewrites into
    # another word with the same regions stems as that other word does.
    # Stems are drawn without y, which the stemmer may mark as a consonant.
    for rule, word, other in _english_conflations(x):
        assert english.stem(word) == english.stem(other), (rule, word, other)


# Snowball's French step-1 suffixes, and the step-1 rules that the property
# below pairs, written out from Snowball's description and not taken from
# french.py; U marks a u in a consonant role. In R2, each suffix of
# SNOWBALL_FR_IN_R2 is replaced by its ending ("" deletes it) and nothing
# more is tested; atrice, ateur, ation and their plurals are deleted, then
# a preceding ic is deleted in R2 and otherwise becomes iqU. In RV, emment
# becomes ent, and steps 2a and 2b then run as if step 1 had removed
# nothing.
SNOWBALL_FR_STEP1_SUFFIXES = (
    "ance", "iqUe", "isme", "able", "iste", "eux", "ances", "iqUes", "ismes",
    "ables", "istes", "atrice", "ateur", "ation", "atrices", "ateurs", "ations",
    "logie", "logies", "usion", "ution", "usions", "utions", "ence", "ences",
    "ement", "ements", "it\xe9", "it\xe9s", "if", "ive", "ifs", "ives", "eaux",
    "aux", "euse", "euses", "issement", "issements", "amment", "emment", "ment",
    "ments",
)
SNOWBALL_FR_IN_R2 = {
    "ance": "", "iqUe": "", "isme": "", "able": "", "iste": "", "eux": "",
    "ances": "", "iqUes": "", "ismes": "", "ables": "", "istes": "",
    "logie": "log", "logies": "log", "usion": "u", "ution": "u",
    "usions": "u", "utions": "u", "ence": "ent", "ences": "ent",
}
# Endings at which a later step may change a word: the suffixes of steps 2a,
# 2b and 4, step 4's final s, and the final Y and ç of step 3.
FR_LATER_ENDINGS = (
    *french.STEP2A_SUFFIXES, *french.STEP2B_SUFFIXES, *french.STEP4_SUFFIXES, "s", "Y", "\xe7",
)


def _french_state(word: str) -> tuple[str, str | None, list[int]]:
    """A French word marked, its longest Snowball step-1 suffix, and its R1,
    R2 and RV starts from the test oracles."""
    marked = french._mark_consonant_vowels(word)
    r1, r2 = _loop_regions(marked, french.VOWELS)
    regions = (r1, r2, _french_rv_string(marked))
    starts = [len(marked) - len(region) for region in regions]
    return marked, _longest_suffix(marked, SNOWBALL_FR_STEP1_SUFFIXES), starts


def _clamped(starts: list[int], length: int) -> list[int]:
    """Region starts as seen by a word of ``length`` letters: a region that
    starts past its end is empty wherever it starts."""
    return [min(start, length) for start in starts]


def _french_conflations(x: str):
    """(rule, word, other) for each French step-1 rule that must give
    ``word`` and ``other`` one stem, wherever its premises hold.

    ``x`` is marked alike in both words, and ``word``'s longest step-1
    suffix is the rule's, in the rule's region. An in-R2 rule rewrites
    ``word`` into ``other``, which no step changes: it ends in no step-1
    suffix and in none of FR_LATER_ENDINGS (step 3 follows the rewrite, and
    steps 2a, 2b and 4 the unchanged word). atrice and ation, and atrices
    and ateurs, reach one rule with the same regions. emment becomes ent:
    ``other`` ends in ent and in no step-1 suffix, with the same regions,
    so both words enter step 2a alike.
    """
    n = len(x)
    for suffix, ending in SNOWBALL_FR_IN_R2.items():
        word, other = x + suffix.lower(), x + ending
        marked, longest, (_, p2, _) = _french_state(word)
        marked_other, other_longest, _ = _french_state(other)
        if (
            longest == suffix
            and p2 <= n
            and marked_other == marked[:n] + ending
            and other_longest is None
            and _longest_suffix(marked_other, FR_LATER_ENDINGS) is None
        ):
            yield f"step1-{suffix}", word, other
    for suffix, other_suffix in (("atrice", "ation"), ("atrices", "ateurs")):
        word, other = x + suffix, x + other_suffix
        marked, longest, starts = _french_state(word)
        marked_other, other_longest, other_starts = _french_state(other)
        if (
            longest == suffix
            and other_longest == other_suffix
            and starts[1] <= n
            and other_starts[1] <= n
            and marked[:n] == marked_other[:n]
            and _clamped(starts, n) == _clamped(other_starts, n)
        ):
            yield f"step1-{suffix}", word, other
    word, other = x + "emment", x + "ent"
    marked, longest, starts = _french_state(word)
    marked_other, other_longest, other_starts = _french_state(other)
    if (
        longest == "emment"
        and starts[2] <= n
        and other_longest is None
        and marked_other == marked[:n] + "ent"
        and _clamped(starts, n + 3) == _clamped(other_starts, n + 3)
    ):
        yield "step1-emment", word, other


@given(
    x=st.tuples(
        st.sampled_from(("", "", "", "par", "col", "tap")),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz\xe9\xe8\xea\xe2\xe7", min_size=1, max_size=8),
        # Endings that a step-1 or step-2 rule reads before the suffix.
        st.sampled_from(("", "", "", "ic", "iss", "ir", "ass", "ai")),
    ).map("".join)
)
@settings(max_examples=500)
def test_french_rules_conflate_the_words_they_rewrite(x):
    # R1, R2 and RV are fixed once per word, so two words that one rule
    # leaves in one state stem alike.
    for rule, word, other in _french_conflations(x):
        assert french.stem(word) == french.stem(other), (rule, word, other)


# Snowball's Spanish step-1 suffixes that share their rule with another, one
# group per rule keyed by its first suffix, written out from Snowball's
# description and not taken from spanish.py. In R2, each group's suffixes
# are deleted and then: anza's, nothing more; adora's, a preceding ic in
# R2; idad's, a preceding abil, ic or iv in R2; iva's, a preceding at in
# R2. logía's, ución's and encia's are replaced by log, u and ente instead.
SNOWBALL_ES_STEP1 = {
    "anza": (
        "anza", "anzas", "ico", "ica", "icos", "icas", "ismo", "ismos", "able",
        "ables", "ible", "ibles", "ista", "istas", "oso", "osa", "osos", "osas",
        "amiento", "amientos", "imiento", "imientos",
    ),
    "adora": (
        "adora", "ador", "aci\xf3n", "adoras", "adores", "aciones", "ante",
        "antes", "ancia", "ancias",
    ),
    "log\xeda": ("log\xeda", "log\xedas"),
    "uci\xf3n": ("uci\xf3n", "uciones"),
    "encia": ("encia", "encias"),
    "idad": ("idad", "idades"),
    "iva": ("iva", "ivo", "ivas", "ivos"),
}
SNOWBALL_ES_STEP1_SUFFIXES = (
    *(suffix for group in SNOWBALL_ES_STEP1.values() for suffix in group), "amente", "mente",
)
# Snowball's Spanish step 0 removes an attached pronoun after a gerund or an
# infinitive (yendo only after u).
SNOWBALL_ES_PRONOUNS = (
    "me", "se", "sela", "selo", "selas", "selos", "la", "le", "lo", "las", "les", "los", "nos",
)
SNOWBALL_ES_BEFORE_PRONOUN = (
    "i\xe9ndo", "\xe1ndo", "\xe1r", "\xe9r", "\xedr", "ando", "iendo", "ar", "er", "ir", "uyendo",
)


def _spanish_conflations(x: str):
    """(rule, word, other) for each pair of suffixes of one Spanish step-1
    group that must give ``word`` and ``other`` one stem, wherever its
    premises hold: step 0 removes nothing from either word, each word's
    longest step-1 suffix is its own, in R2, and both words have the same
    regions, so step 1 leaves them alike."""
    n = len(x)
    for group, suffixes in SNOWBALL_ES_STEP1.items():
        reached = []
        for suffix in suffixes:
            word = x + suffix
            r1, r2 = _loop_regions(word, spanish.VOWELS)
            regions = (r1, r2, _spanish_rv_string(word))
            starts = [len(word) - len(region) for region in regions]
            if (
                _longest_suffix(word, SNOWBALL_ES_STEP1_SUFFIXES) == suffix
                and starts[1] <= n
                and not any(
                    word.endswith(pronoun)
                    and word[:-len(pronoun)].endswith(SNOWBALL_ES_BEFORE_PRONOUN)
                    for pronoun in SNOWBALL_ES_PRONOUNS
                )
            ):
                reached.append((suffix, word, _clamped(starts, n)))
        for i, (suffix, word, starts) in enumerate(reached):
            for other_suffix, other, other_starts in reached[i + 1:]:
                if starts == other_starts:
                    yield f"{group}: {suffix}/{other_suffix}", word, other


@given(
    x=st.tuples(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz\xe1\xe9\xed\xf3\xfa\xf1", min_size=1, max_size=8
        ),
        # Endings that a step-1 rule reads before the suffix.
        st.sampled_from(("", "", "", "ic", "iv", "at", "abil")),
    ).map("".join)
)
@settings(max_examples=500)
def test_spanish_rules_conflate_the_words_they_rewrite(x):
    # R1, R2 and RV are fixed once per word, so two words that one rule
    # leaves in one state stem alike.
    for rule, word, other in _spanish_conflations(x):
        assert spanish.stem(word) == spanish.stem(other), (rule, word, other)


@dataclass(frozen=True)
class SuffixWords:
    """What the seeded words of one language are built from."""

    tables: tuple[tuple[str, ...], ...]
    letters: str
    heads: tuple[str, ...]
    inserts: str
    specials: tuple[str, ...] = ()


SUFFIX_WORDS = {
    # English reaches the special words, the 'gener', 'commun' and 'arsen'
    # prefixes and the apostrophe and y handling.
    "en": SuffixWords(
        tables=(
            english.STEP0_SUFFIXES,
            english.STEP1A_SUFFIXES,
            english.STEP1B_SUFFIXES,
            english.STEP2_SUFFIXES,
            english.STEP3_SUFFIXES,
            english.STEP4_SUFFIXES,
            ("y", "e", "l", "ll", "ly", "li", "at", "bl", "iz", "ee"),
        ),
        letters="aeiouyaeiouybcdfghjklmnpqrstvwxzbcdglmnrst",
        heads=("", "", "", "", "gener", "commun", "arsen", "y", "'", "’", "‘"),
        inserts="'’‘‛y",
        specials=tuple(sorted(english.SPECIAL_WORDS)),
    ),
    # Spanish reaches the attached pronouns after gerunds and infinitives,
    # the step 1 residues (iv, at, os, ic, ad, abil; long heads put them in
    # R2) and the gu/u endings.
    "es": SuffixWords(
        tables=(
            spanish.STEP0_SUFFIXES,
            spanish.STEP1_SUFFIXES,
            spanish.STEP2A_SUFFIXES,
            spanish.STEP2B_SUFFIXES,
            spanish.STEP3_SUFFIXES,
            spanish._GERUND_INFINITIVE,
            ("iv", "at", "ativ", "os", "ic", "ad", "abil", "gu", "u", "uy", "ante", "able", "ible"),
        ),
        letters="aeiouaeiouáéíóúübcdfghjlmnñpqrstvyzbcdlmnrst",
        heads=("", "", "", "", "qu", "gu", "des", "re", "in", "ai", "comunic", "desarrol"),
        inserts="uyü",
    ),
    # French reaches the vowels in a consonant role (qu, u or i between
    # vowels, y beside one), the par/col/tap prefixes of RV, the step 1
    # residues (long heads put them in R2) and the ç and guë endings; the
    # marked U and I of the tables are written lowercase.
    "fr": SuffixWords(
        tables=(
            french.STEP1_SUFFIXES,
            french.STEP2A_SUFFIXES,
            french.STEP2B_SUFFIXES,
            french.STEP4_SUFFIXES,
            ("ic", "iv", "at", "ativ", "abl", "abil", "iqU", "eus", "ell", "eil", "enn", "onn"),
            ("ett", "icit", "s", "Y", "ç", "guë"),
        ),
        letters="aeiouyaeiouyâàëéêèïîôûùbcdfghjlmnpqrstvxzbcdlmnrst",
        heads=("", "", "", "", "par", "col", "tap", "qu", "ai", "y", "construct", "nation"),
        inserts="uiyq",
    ),
}


def _suffix_combination_words(count: int, seed: int, language: str = "en") -> list[str]:
    """Seeded words built to reach every branch of a language's stemmer.

    Each word is a special word (English only) or a short random stem,
    sometimes behind one of the language's heads, followed by up to three
    suffixes drawn from its suffix tables, with one of its insert
    characters sometimes inserted anywhere.
    """
    spec = SUFFIX_WORDS[language]
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        if spec.specials and rng.random() < 0.05:
            word = rng.choice(spec.specials)
        else:
            word = rng.choice(spec.heads) + "".join(
                rng.choice(spec.letters) for _ in range(rng.randint(0, 6))
            )
        for _ in range(rng.randint(0, 3)):
            word += rng.choice(rng.choice(spec.tables))
        if rng.random() < 0.1:
            cut = rng.randint(0, len(word))
            word = word[:cut] + rng.choice(spec.inserts) + word[cut:]
        words.append(word.lower())
    return words


# sha256 of the newline-joined stems of those words: a change to any one of
# the 200,000 stems changes it.
EN_SUFFIX_COMBINATION_DIGEST = (
    "1922cee9c80080ead211ac20f75fdce65d654d8302935e2d5498c0b2543903cf"
)
ES_SUFFIX_COMBINATION_DIGEST = (
    "f0bd8c49f77dfbfd090d051e6c1f85bb58c7be4db7f696fe71fd25a7241d531f"
)
FR_SUFFIX_COMBINATION_DIGEST = (
    "9735c478fda389c38646ab6dac6cf0336d8a2d837d852191235650c30e666011"
)


def test_english_stems_of_suffix_combinations_are_pinned():
    words = _suffix_combination_words(200_000, seed=2012)
    stems = "\n".join(english.stem(word) for word in words)
    assert hashlib.sha256(stems.encode("utf-8")).hexdigest() == EN_SUFFIX_COMBINATION_DIGEST


def test_spanish_stems_of_suffix_combinations_are_pinned():
    words = _suffix_combination_words(200_000, seed=2012, language="es")
    stems = "\n".join(spanish.stem(word) for word in words)
    assert hashlib.sha256(stems.encode("utf-8")).hexdigest() == ES_SUFFIX_COMBINATION_DIGEST


def test_french_stems_of_suffix_combinations_are_pinned():
    words = _suffix_combination_words(200_000, seed=2012, language="fr")
    stems = "\n".join(french.stem(word) for word in words)
    assert hashlib.sha256(stems.encode("utf-8")).hexdigest() == FR_SUFFIX_COMBINATION_DIGEST
