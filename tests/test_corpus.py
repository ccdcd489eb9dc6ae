import os
import random
import re
import stat
import time

import pytest

from oracles import load_lines_oracle, tokenize_oracle, tokenize_pattern_oracle
from transalign import corpusfile
from transalign.corpus import Corpus, load_corpus, normalize, save_corpus, tokenize, write_lines
from transalign.errors import ConfigError, CorpusFormatError, DataError


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


def test_tokenize_equals_the_run_pattern_oracle_on_random_strings():
    # The pattern that matches \w over underscore-free text must give the
    # same tokens as the one that excludes the underscore in its class:
    # apostrophes (ASCII and U+2019), underscores, combining marks, and
    # digits and numerals of other scripts.
    rng = random.Random(2019)
    alphabet = [
        "a", "Z", "'", "'", "_", "_", " ", "-", "\u2019", "\u0301", "\u0308", "\u00e9",
        "\u0663", "\u096d", "\uff13", "\u00b2", "\u216b", "\u3007", "\u0e51", "\u05d0",
    ]
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
        assert tokenize(text) == tokenize_pattern_oracle(text), text


def test_alphanumeric_text_of_several_scripts_tokenizes_as_the_oracle_does():
    # Numerals of other scripts (superscript two, Roman twelve, ideographic
    # zero, Arabic-Indic digits) are word characters. A tab, a no-break
    # space, an ideographic space, an apostrophe, an underscore and
    # punctuation mixed in must end or join runs as the oracle says.
    rng = random.Random(2021)
    alnum = ["a", "Z", "7", "\u00e9", "\u05d0", "\u00b2", "\u216b", "\u3007", "\u0663", "\u0669"]
    others = ["\t", "\u00a0", "\u3000", "'", "_", "-", "."]
    for n in range(4000):
        mixed = others if n % 2 else []  # every other text is alphanumerics and spaces
        text = "".join(rng.choice(alnum + [" ", " "] + mixed) for _ in range(rng.randrange(0, 16)))
        assert tokenize(text) == tokenize_oracle(text), repr(text)
    assert tokenize(" \u00b2 \u216b  \u3007\u0663 ") == ("\u00b2", "\u216b", "\u3007\u0663")
    assert tokenize("a\tb\u00a0c\u3000d") == ("a", "b", "c", "d")
    assert tokenize("") == tokenize(" ") == ()


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


def test_write_lines_follows_links_and_keeps_permission_bits(tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_bytes(b"old\n")
    real.chmod(0o600)
    link.symlink_to(real)
    write_lines(link, iter(["new\n", "lines\n"]))
    assert link.is_symlink() and real.read_bytes() == b"new\nlines\n"
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    with open(tmp_path / "probe.txt", "w"):  # the mode open() gives a new file
        pass
    write_lines(tmp_path / "new.txt", [])
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "probe.txt").stat().st_mode
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "link.txt", "new.txt", "probe.txt", "real.txt"
    ]


def test_write_lines_syncs_the_file_then_renames_then_syncs_the_directory(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def recording_fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
        real_fsync(fd)

    def recording_replace(source, destination):
        events.append(("replace", os.stat(source).st_ino, os.fspath(destination)))
        real_replace(source, destination)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    write_lines(path, ["new\n"])
    inode = path.stat().st_ino
    assert events == [
        ("fsync", False, inode),
        ("replace", inode, str(path)),
        ("fsync", True, tmp_path.stat().st_ino),
    ]
    assert path.read_bytes() == b"new\n"


def test_write_lines_failing_to_sync_the_directory_is_a_config_error(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    real_fsync = os.fsync

    def fsync_files_only(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_files_only)
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(path))}: Input/output error$"):
        write_lines(path, ["new\n"])
    # The rename came first and the directory was closed: the file is whole.
    assert path.read_bytes() == b"new\n" and [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_write_lines_writes_a_pipe_named_by_dev_fd_in_place():
    read_end, write_end = os.pipe()
    try:
        write_lines(f"/dev/fd/{write_end}", ["over\n", "the pipe\n"])
        os.close(write_end)
        write_end = None
        with os.fdopen(read_end, "rb") as reader:
            read_end = None
            assert reader.read() == b"over\nthe pipe\n"
    finally:
        for fd in (read_end, write_end):
            if fd is not None:
                os.close(fd)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_write_lines_refuses_a_read_only_file(tmp_path):
    path = tmp_path / "kept.txt"
    path.write_bytes(b"old\n")
    path.chmod(0o444)
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(path))}: Permission denied$"):
        write_lines(path, ["new\n"])
    assert path.read_bytes() == b"old\n" and [p.name for p in tmp_path.iterdir()] == ["kept.txt"]


def test_save_corpus_to_an_unwritable_path_is_a_config_error(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(path))}: "):
        save_corpus(Corpus("en", ["a"]), path)


def test_load_accepts_crlf_and_bom(tmp_path):
    path = tmp_path / "win.txt"
    path.write_bytes(b"\xef\xbb\xbfone\r\ntwo\r\n")
    corpus = load_corpus(path, "en")
    assert list(corpus) == ["one", "two"]


def test_load_skips_empty_lines(tmp_path):
    path = tmp_path / "gappy.txt"
    path.write_text("a\n\nb\n\n\nc\n", encoding="utf-8")
    corpus = load_corpus(path, "en")
    assert list(corpus) == ["a", "b", "c"]


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


def test_load_corpus_equals_line_by_line_oracle_on_random_files(tmp_path, monkeypatch):
    # The forward reader checks and reads the file a few bytes at a time
    # here, so lines and bad bytes fall across its blocks' ends; it raises
    # load_corpus's errors and reads load_corpus's lines.
    rng = random.Random(113)
    outcomes = {"lines": 0, "utf8": 0, "cr": 0}
    path = tmp_path / "random.txt"
    for _ in range(3000):
        data = random_corpus_file(rng)
        path.write_bytes(data)
        lines, _, bad_line = load_lines_oracle(data)
        monkeypatch.setattr("transalign.corpus.BLOCK", rng.randrange(1, 12))
        try:
            corpus = load_corpus(path, "x")
        except CorpusFormatError as exc:
            message = str(exc)
            with pytest.raises(CorpusFormatError) as forward:
                corpusfile.CorpusFile(path, "x")
            assert str(forward.value) == message
            assert message.startswith(f"{path}: "), (data, message)
            message = message.removeprefix(f"{path}: ")
            assert int(re.search(r"line (\d+)", message).group(1)) == bad_line, (data, message)
            outcomes["utf8" if "UTF-8" in message else "cr"] += 1
        else:
            assert bad_line is None, data
            assert list(corpus) == lines, data
            forward = corpusfile.CorpusFile(path, "x")
            assert len(forward) == len(lines) and list(forward) == lines, data
            assert [forward[i] for i in range(len(lines))] == lines, data
            assert list(forward.normalized) == list(corpus.normalized), data
            outcomes["lines"] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_a_corpus_file_holds_only_the_lines_not_forgotten(tmp_path):
    path = tmp_path / "lines.txt"
    lines = [f"Line {i}" for i in range(50)]
    path.write_text("\n\n".join(lines), encoding="utf-8")
    forward = corpusfile.CorpusFile(path, "x")
    assert forward[3] == "Line 3" and forward.normalized[5] == "line 5"
    assert sorted(forward.normalized.raw) == [0, 1, 2, 3, 4, 5]
    forward.forget(4)
    assert sorted(forward.normalized.raw) == [4, 5] and forward[4] == "Line 4"
    # A forgotten line cannot be read again.
    with pytest.raises(IndexError):
        forward[1]
    with pytest.raises(IndexError):
        forward.normalized[2]
    assert sorted(forward.normalized.raw) == [4, 5]
    assert list(forward) == lines and len(forward) == 50
    with pytest.raises(IndexError):
        forward[50]


def test_a_corpus_file_drops_a_bom_only_at_the_start(tmp_path, monkeypatch):
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeffone\n\ufefftwo\n".encode("utf-8"))
    monkeypatch.setattr("transalign.corpus.BLOCK", 4)
    assert list(corpusfile.CorpusFile(path, "x")) == list(load_corpus(path, "x")) == ["one", "\ufefftwo"]


def test_a_long_line_reads_in_time_linear_in_its_length(tmp_path, monkeypatch):
    # The bytes of a line with no LF yet are kept as pieces and joined
    # once, so a 4 MiB first line read 64 bytes at a time takes well under
    # a second; copying the line so far at every block takes many.
    monkeypatch.setattr("transalign.corpus.BLOCK", 64)
    path = tmp_path / "long.txt"
    long_line = "Ab cd " * ((4 << 20) // 6)
    path.write_text(long_line + "\n\nshort\n", encoding="utf-8")
    start = time.perf_counter()
    lines = list(load_corpus(path, "x"))
    assert time.perf_counter() - start < 2.0
    assert lines == [long_line, "short"]
    start = time.perf_counter()
    forward = corpusfile.CorpusFile(path, "x")
    read = [forward[0], forward[1]]
    assert time.perf_counter() - start < 2.0
    assert read == lines and len(forward) == 2
