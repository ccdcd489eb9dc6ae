import random
from pathlib import Path

import pytest

from transalign.errors import ConfigError, LexiconFormatError
from transalign.lexicon import (
    EMPTY_LEXICON,
    EMPTY_STOPWORDS,
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
    assert sw == frozenset({"the", "to", "is"})


def test_load_stopwords_dedupes(tmp_path):
    sw = load_stopwords(write(tmp_path, "sw.txt", "to\nto\n"))
    assert sw == frozenset({"to"})


def test_load_stopwords_comments_and_normalization(tmp_path):
    sw = load_stopwords(write(tmp_path, "sw.txt", "# header\na\n  THE \n"))
    assert sw == frozenset({"a", "the"})
    assert "the" in sw
    assert "b" not in sw


@pytest.mark.parametrize("line", ["of the", "the,", "New_York", "--"])
def test_load_stopwords_refuses_a_line_that_is_not_one_token(tmp_path, line):
    # Only a single token can equal a token, so any other line removes nothing.
    path = write(tmp_path, "sw.txt", f"# header\nthe\n{line}\n")
    with pytest.raises(LexiconFormatError) as err:
        load_stopwords(path)
    assert str(err.value).startswith(f"{path}: line 3: ")


def test_load_synonyms_game_entry(tmp_path):
    lex = load_synonyms(
        write(tmp_path, "syn.tsv", "game\tplay,sport,fun,gaming,action,skittle\n")
    )
    assert lex.get("game", ()) == ("play", "sport", "fun", "gaming", "action", "skittle")


def test_load_synonyms_will_would(tmp_path):
    lex = load_synonyms(write(tmp_path, "syn.tsv", "will\twould\n"))
    assert lex.get("will", ()) == ("would",)
    assert lex.get("absent", ()) == ()


def test_load_synonyms_strips_self_reference(tmp_path):
    lex = load_synonyms(write(tmp_path, "syn.tsv", "x\tx\n"))
    assert lex.get("x", ()) == ()


def test_load_synonyms_missing_tab_reports_line(tmp_path):
    with pytest.raises(LexiconFormatError) as err:
        load_synonyms(write(tmp_path, "syn.tsv", "good\tfine\nbroken line\n"))
    assert "line 2" in str(err.value)


def test_load_synonyms_merges_repeated_headwords(tmp_path):
    lex = load_synonyms(write(tmp_path, "syn.tsv", "a\tb\na\tc,b\n"))
    assert lex.get("a", ()) == ("b", "c")


def test_expand_single_substitution_variants():
    lex = {"game": ("play", "sport", "fun", "gaming", "action", "skittle")}
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
    lex = {"a": ("x",), "b": ("y",)}
    variants = expand_sentence(("a", "b"), lex, cap=2)
    assert variants == [("a", "b"), ("x", "b")]


def test_expand_cap_must_be_positive():
    with pytest.raises(ConfigError):
        expand_sentence(("a",), EMPTY_LEXICON, cap=0)


def test_expand_bounds_and_determinism():
    rng = random.Random(5)
    vocab = ["go", "school", "day", "like", "play"]
    lex = {"go": ("walk", "run"), "play": ("game", "fun", "sport")}
    for _ in range(100):
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 8)))
        cap = rng.randrange(1, 6)
        first = expand_sentence(tokens, lex, cap)
        second = expand_sentence(tokens, lex, cap)
        assert first == second
        assert 1 <= len(first) <= cap
        assert first[0] == tokens


def test_stopword_list_contains(tmp_path):
    sw = load_stopwords(write(tmp_path, "sw.txt", "the\n"))
    assert type(sw) is frozenset and type(EMPTY_STOPWORDS) is frozenset
    assert "the" in sw and "dog" not in sw and "the" not in EMPTY_STOPWORDS


def test_shipped_starter_files_load():
    fixtures = Path(__file__).parent / "fixtures"
    stopwords = load_stopwords(fixtures / "stopwords_en.txt")
    assert {"i", "to", "the"} <= stopwords
    lexicon = load_synonyms(fixtures / "synonyms_en.tsv")
    assert "play" in lexicon.get("game", ())
    assert lexicon.get("will", ()) == ("would",)
    assert lexicon.get("would", ()) == ("will",)


def test_bom_prefixed_files_load_like_the_same_files_without_it(tmp_path):
    bom = "\ufeff"
    stop_body, syn_body = "the\na\n", "will\twould\ngame\tplay\n"
    assert load_stopwords(write(tmp_path, "bom.txt", bom + stop_body)) == load_stopwords(
        write(tmp_path, "plain.txt", stop_body)
    ) == frozenset({"the", "a"})
    assert load_synonyms(write(tmp_path, "bom.tsv", bom + syn_body)) == load_synonyms(
        write(tmp_path, "plain.tsv", syn_body)
    ) == {"will": ("would",), "game": ("play",)}


def test_lexicon_line_numbers_count_lf_lines_only(tmp_path):
    # U+2028 is not a line break here: it is whitespace inside line 1.
    path = write(tmp_path, "syn.tsv", "good\tfine\u2028x\ty\nbroken line\n")
    with pytest.raises(LexiconFormatError) as err:
        load_synonyms(path)
    assert str(err.value) == f"{path}: line 2: expected headword<TAB>synonyms"
    assert load_synonyms(write(tmp_path, "ok.tsv", "good\tfine\u2028x\ty\n")) == {
        "good": ("fine x y",)
    }


@pytest.mark.parametrize("load", [load_stopwords, load_synonyms])
@pytest.mark.parametrize(
    "data, problem",
    [
        (b"a\tb\n\xff\tc\n", "invalid UTF-8 on line 2"),
        (b"a\tb\r\nc\rd\te\n", "line 2 contains a line-break character"),
    ],
    ids=["invalid-utf8", "lone-cr"],
)
def test_bad_bytes_and_a_lone_cr_are_format_errors_with_the_line(tmp_path, load, data, problem):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(LexiconFormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {problem}")


def test_an_unreadable_lexicon_file_is_a_format_error(tmp_path):
    for load, what in ((load_stopwords, "stop-word"), (load_synonyms, "synonym")):
        with pytest.raises(LexiconFormatError) as err:
            load(tmp_path)  # a directory
        assert str(err.value).startswith(f"cannot read {what} file {tmp_path}: ")
