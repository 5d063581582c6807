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


# What the English stemmer's two R2 rules give, one entry per rule (see
# english.py). Snowball's fixed positions, without these rules, would give
# "realiz" for realization and realizer and "rjhize" for rjhized.
EN_KEPT_R2_RULE_VECTORS = {
    "replace_fallback": {"realization": "realize", "realizer": "realize"},
    "step1b_added_e": {"rjhized": "rjhiz"},
}


@pytest.mark.parametrize("rule", sorted(EN_KEPT_R2_RULE_VECTORS))
def test_english_kept_r2_rule(rule):
    for word, expected in EN_KEPT_R2_RULE_VECTORS[rule].items():
        assert english.stem(word) == expected, (rule, word)


# What the French stemmer's two kept rules give, one entry per rule (see
# french.py). Snowball's fixed positions, without these rules, would give
# "fabriqu" for fabricatrice(s) and "fin" for finissemment.
FR_KEPT_RULE_VECTORS = {
    "atrice_ic": {"fabricatrice": "fabr", "fabricatrices": "fabr"},
    "emment_rv": {"finissemment": "finissent"},
}


@pytest.mark.parametrize("rule", sorted(FR_KEPT_RULE_VECTORS))
def test_french_kept_rule(rule):
    for word, expected in FR_KEPT_RULE_VECTORS[rule].items():
        assert french.stem(word) == expected, (rule, word)


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
    "66501edddc495c76905e25e09a3177cd609db1d1ab1ec34057e9b855d731597d"
)
ES_SUFFIX_COMBINATION_DIGEST = (
    "f0bd8c49f77dfbfd090d051e6c1f85bb58c7be4db7f696fe71fd25a7241d531f"
)
FR_SUFFIX_COMBINATION_DIGEST = (
    "57a249ddbcb46bef37cc85967ba576512d813f854c2bf75c2cd7b5274b216b4b"
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
