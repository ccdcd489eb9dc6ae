import random
from pathlib import Path

import pytest

from transalign.errors import ConfigError, LexiconFormatError
from transalign.lexicon import (
    EMPTY_LEXICON,
    StopWordList,
    SynonymLexicon,
    expand_sentence,
    load_stopwords,
    load_synonyms,
)


def write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_load_stopwords_basic(tmp_path):
    sw = load_stopwords(write(tmp_path, "sw.txt", "the\nto\nis\n"))
    assert sw.words == frozenset({"the", "to", "is"})


def test_load_stopwords_dedupes(tmp_path):
    sw = load_stopwords(write(tmp_path, "sw.txt", "to\nto\n"))
    assert sw.words == frozenset({"to"})


def test_load_stopwords_comments_and_normalization(tmp_path):
    sw = load_stopwords(write(tmp_path, "sw.txt", "# header\na\n  THE \n"))
    assert sw.words == frozenset({"a", "the"})
    assert "the" in sw
    assert "b" not in sw


def test_load_synonyms_game_entry(tmp_path):
    lex = load_synonyms(
        write(tmp_path, "syn.tsv", "game\tplay,sport,fun,gaming,action,skittle\n")
    )
    assert lex.synonyms("game") == ("play", "sport", "fun", "gaming", "action", "skittle")


def test_load_synonyms_will_would(tmp_path):
    lex = load_synonyms(write(tmp_path, "syn.tsv", "will\twould\n"))
    assert lex.synonyms("will") == ("would",)
    assert lex.synonyms("absent") == ()


def test_load_synonyms_strips_self_reference(tmp_path):
    lex = load_synonyms(write(tmp_path, "syn.tsv", "x\tx\n"))
    assert lex.synonyms("x") == ()


def test_load_synonyms_missing_tab_reports_line(tmp_path):
    with pytest.raises(LexiconFormatError) as err:
        load_synonyms(write(tmp_path, "syn.tsv", "good\tfine\nbroken line\n"))
    assert "line 2" in str(err.value)


def test_load_synonyms_merges_repeated_headwords(tmp_path):
    lex = load_synonyms(write(tmp_path, "syn.tsv", "a\tb\na\tc,b\n"))
    assert lex.synonyms("a") == ("b", "c")


def test_expand_single_substitution_variants():
    lex = SynonymLexicon(
        {"game": ("play", "sport", "fun", "gaming", "action", "skittle")}
    )
    variants = expand_sentence(("i", "do", "not", "like", "game"), lex, cap=100)
    assert len(variants) == 7
    assert variants[0] == ("i", "do", "not", "like", "game")
    assert ("i", "do", "not", "like", "play") in variants
    for v in variants[1:]:
        diffs = sum(1 for x, y in zip(v, variants[0]) if x != y)
        assert diffs == 1


def test_expand_empty_lexicon_returns_original_only():
    variants = expand_sentence(("a", "b"), EMPTY_LEXICON, cap=10)
    assert variants == [("a", "b")]


def test_expand_cap_truncates_but_keeps_original_first():
    lex = SynonymLexicon({"a": ("x",), "b": ("y",)})
    variants = expand_sentence(("a", "b"), lex, cap=2)
    assert variants == [("a", "b"), ("x", "b")]


def test_expand_cap_must_be_positive():
    with pytest.raises(ConfigError):
        expand_sentence(("a",), EMPTY_LEXICON, cap=0)


def test_expand_bounds_and_determinism():
    rng = random.Random(5)
    vocab = ["go", "school", "day", "like", "play"]
    lex = SynonymLexicon({"go": ("walk", "run"), "play": ("game", "fun", "sport")})
    for _ in range(100):
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 8)))
        cap = rng.randrange(1, 6)
        first = expand_sentence(tokens, lex, cap)
        second = expand_sentence(tokens, lex, cap)
        assert first == second
        assert 1 <= len(first) <= cap
        assert first[0] == tokens


def test_stopword_list_contains():
    sw = StopWordList(frozenset({"the"}))
    assert "the" in sw and "dog" not in sw


def test_shipped_starter_files_load():
    fixtures = Path(__file__).parent / "fixtures"
    stopwords = load_stopwords(fixtures / "stopwords_en.txt")
    assert {"i", "to", "the"} <= set(stopwords.words)
    lexicon = load_synonyms(fixtures / "synonyms_en.tsv")
    assert "play" in lexicon.synonyms("game")
    assert lexicon.synonyms("will") == ("would",)
    assert lexicon.synonyms("would") == ("will",)
