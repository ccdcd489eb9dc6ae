import random

import pytest

from transalign.corpus import (
    Corpus,
    Sentence,
    load_corpus,
    normalize,
    save_corpus,
    split_tokens,
    tokenize,
)
from transalign.errors import CorpusFormatError, DataError


def test_normalize_collapses_case_and_whitespace():
    assert normalize("  I   GO  ") == "i go"
    assert normalize("abc") == "abc"
    assert normalize("a\t b\nc") == "a b c"


def test_normalize_composes_unicode():
    # o + combining acute must become the single composed code point
    decomposed = "Ogród"
    result = normalize(decomposed)
    assert result == "ogród"
    assert len(result) == 5


def test_tokenize_keeps_apostrophes_inside_words():
    s = Sentence(0, "i don't go to school every day.")
    assert tokenize(s) == ("i", "don't", "go", "to", "school", "every", "day")


def test_tokenize_drops_punctuation():
    assert tokenize(Sentence(0, "...")) == ()
    assert tokenize(Sentence(0, "it is origami.")) == ("it", "is", "origami")


def test_tokenize_digits_are_tokens():
    assert split_tokens(normalize("room 101, floor 3")) == ("room", "101", "floor", "3")


def test_split_tokens_ignores_bare_apostrophe_runs():
    # apostrophes are run-internal characters, so 'b' survives whole;
    # only runs made of nothing but apostrophes are punctuation
    assert split_tokens("'' a 'b' ''") == ("a", "'b'")


def test_token_count_additive_over_space_join():
    rng = random.Random(1)
    words = ["go", "don't", "school", "101", "a"]
    for _ in range(50):
        left = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 5)))
        right = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 5)))
        joined = normalize(left + " " + right)
        assert len(split_tokens(joined)) == len(split_tokens(normalize(left))) + len(
            split_tokens(normalize(right))
        )


def test_sentence_rejects_line_breaks():
    with pytest.raises(DataError):
        Sentence(0, "two\nlines")


def test_corpus_requires_contiguous_indices():
    with pytest.raises(DataError):
        Corpus("en", (Sentence(0, "a"), Sentence(2, "b")))


def test_load_save_round_trip(tmp_path):
    path = tmp_path / "corpus.txt"
    body = "First line.\nSecond, with punct!\nTrzecia linia ze znakami: ółś.\n"
    path.write_text(body, encoding="utf-8")
    corpus = load_corpus(path, "pl")
    assert len(corpus) == 3
    out = tmp_path / "copy.txt"
    save_corpus(corpus, out)
    assert out.read_bytes() == body.encode("utf-8")


def test_load_accepts_crlf_and_bom(tmp_path):
    path = tmp_path / "win.txt"
    path.write_bytes(b"\xef\xbb\xbfone\r\ntwo\r\n")
    corpus = load_corpus(path, "en")
    assert [s.raw for s in corpus] == ["one", "two"]


def test_load_skips_empty_lines_and_records_them(tmp_path):
    path = tmp_path / "gappy.txt"
    path.write_text("a\n\nb\n\n\nc\n", encoding="utf-8")
    corpus = load_corpus(path, "en")
    assert [s.raw for s in corpus] == ["a", "b", "c"]
    assert corpus.skipped_lines == (2, 4, 5)
    # indices stay contiguous despite the gaps in the file
    assert [s.index for s in corpus] == [0, 1, 2]


def test_load_no_trailing_newline(tmp_path):
    path = tmp_path / "chop.txt"
    path.write_bytes(b"a\nb")
    assert [s.raw for s in load_corpus(path, "en")] == ["a", "b"]


def test_load_rejects_bad_utf8_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"fine\n\xff\xfe broken\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "en")
    assert str(err.value).startswith(f"{path}: ") and "line 2" in str(err.value)


def test_sentence_normalized_autofilled():
    s = Sentence(3, "  Hello   WORLD ")
    assert s.normalized == "hello world"
    assert s.raw == "  Hello   WORLD "
    assert s.index == 3
