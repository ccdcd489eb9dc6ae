import io
import random
import re
import time

import pytest

from oracles import load_lines_oracle, tokenize_oracle
from transalign.corpus import Corpus, load_corpus, normalize, save_corpus, tokenize
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
    s = normalize("i don't go to school every day.")
    assert tokenize(s) == ("i", "don't", "go", "to", "school", "every", "day")


def test_tokenize_drops_punctuation():
    assert tokenize("...") == ()
    assert tokenize("it is origami.") == ("it", "is", "origami")


def test_tokenize_digits_are_tokens():
    assert tokenize(normalize("room 101, floor 3")) == ("room", "101", "floor", "3")


def test_split_tokens_ignores_bare_apostrophe_runs():
    # apostrophes are run-internal characters, so 'b' survives whole;
    # only runs made of nothing but apostrophes are punctuation
    assert tokenize("'' a 'b' ''") == ("a", "'b'")


def test_split_tokens_equals_oracle_on_random_strings():
    rng = random.Random(97)
    alphabet = ["a", "b", "7", "'", "'", "_", " ", "\u00df", "\u00e9", "\u0301"]
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 16)))
        assert tokenize(text) == tokenize_oracle(text), text


def test_split_tokens_is_linear_in_a_long_apostrophe_run():
    # A pattern that retries the run from each of its apostrophes takes
    # tens of seconds here; one pass takes milliseconds.
    text = "'" * 50_000 + " a"
    start = time.perf_counter()
    assert tokenize(text) == ("a",)
    assert time.perf_counter() - start < 2.0


def test_token_count_additive_over_space_join():
    rng = random.Random(1)
    words = ["go", "don't", "school", "101", "a"]
    for _ in range(50):
        left = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 5)))
        right = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 5)))
        joined = normalize(left + " " + right)
        assert len(tokenize(joined)) == len(tokenize(normalize(left))) + len(
            tokenize(normalize(right))
        )


def test_corpus_rejects_line_breaks():
    for line in ("two\nlines", "lone\rcr", "crlf\r\n", "\n"):
        with pytest.raises(DataError) as err:
            Corpus("en", ["fine", line])
        assert str(err.value) == "line index 1 contains a line-break character"
    # Other Unicode line separators stay inside a line, as the loader keeps them.
    assert Corpus("en", iter(["a\u2028b", "c\x85d", ""])).lines == ("a\u2028b", "c\x85d", "")


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
    assert list(corpus) == ["one", "two"]


def test_load_skips_empty_lines_and_records_them(tmp_path):
    path = tmp_path / "gappy.txt"
    path.write_text("a\n\nb\n\n\nc\n", encoding="utf-8")
    corpus = load_corpus(path, "en")
    assert list(corpus) == ["a", "b", "c"]
    assert corpus.skipped_lines == (2, 4, 5)


def test_load_no_trailing_newline(tmp_path):
    path = tmp_path / "chop.txt"
    path.write_bytes(b"a\nb")
    assert list(load_corpus(path, "en")) == ["a", "b"]


def test_load_rejects_bad_utf8_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"fine\n\xff\xfe broken\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "en")
    assert str(err.value).startswith(f"{path}: ") and "line 2" in str(err.value)


def test_load_reports_lone_cr_by_file_and_line(tmp_path):
    path = tmp_path / "cr.txt"
    path.write_bytes(b"\na\rb\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "en")
    assert str(err.value) == f"{path}: line 2 contains a line-break character"
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(io.BytesIO(b"\na\rb\n"), "en")
    assert str(err.value) == "line 2 contains a line-break character"


def test_corpus_normalized_on_first_read():
    corpus = Corpus("en", ["  Hello   WORLD ", "Ogro\u0301d"])
    assert "normalized" not in vars(corpus)
    assert corpus.normalized == ("hello world", "ogr\u00f3d")
    assert corpus.normalized is corpus.normalized
    assert corpus[0] == "  Hello   WORLD "


# Pieces of random corpus files: text, every line ending, and separators
# that are not line endings; then invalid UTF-8, some of it cut off at a
# line end; then what a file may end with.
TEXT_PIECES = [
    b"a", b"Bc", "\u017c\u00f3\u0142w".encode(), b" ", b"\t",
    b"\n", b"\n", b"\n\n\n", b"\r\n", b"\r\n", b"\r", b"\x00", "\u2028".encode(),
]
INVALID_PIECES = [b"\xff", b"\xc5", b"\xc5\n", b"\xe2\x80\r\n", b"\xed\xa0\x80"]
FILE_ENDINGS = [b"", b"\n", b"\r\n", b"\r", b"\n\r"]


def random_corpus_file(rng):
    pieces = [
        rng.choice(INVALID_PIECES if rng.random() < 0.02 else TEXT_PIECES)
        for _ in range(rng.randrange(0, 40))
    ]
    bom = b"\xef\xbb\xbf" if rng.random() < 0.2 else b""
    return bom + b"".join(pieces) + rng.choice(FILE_ENDINGS)


def test_load_corpus_equals_line_by_line_oracle_on_random_files():
    rng = random.Random(113)
    outcomes = {"lines": 0, "utf8": 0, "cr": 0}
    for _ in range(3000):
        data = random_corpus_file(rng)
        lines, skipped, bad_line = load_lines_oracle(data)
        try:
            corpus = load_corpus(io.BytesIO(data), "x")
        except CorpusFormatError as exc:
            message = str(exc)
            assert int(re.search(r"line (\d+)", message).group(1)) == bad_line, (data, message)
            outcomes["utf8" if "UTF-8" in message else "cr"] += 1
        else:
            assert bad_line is None, data
            assert (list(corpus), corpus.skipped_lines) == (lines, skipped), data
            outcomes["lines"] += 1
    assert min(outcomes.values()) > 300, outcomes
