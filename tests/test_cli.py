import errno
import gc
import hashlib
import importlib
import json
import logging
import math
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from transalign.cli import main, parse_chain_spec
from transalign.errors import ConfigError, CorpusFormatError

from test_translate import endpoint, mock_server  # noqa: F401 - mock_server is a fixture

LOOKAHEAD_TRANS = ["I go to school every day.", "I don't go to school every day."]
LOOKAHEAD_TARGET = [
    "I like going to school every day.",
    "I do not go to school every day.",
    "We will go tomorrow.",
]


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def distinct_lines(n):
    return [f"w{i} k{i * 7 % 101} q{i * 13 % 89} end{i}" for i in range(n)]


def test_parse_chain_spec():
    chain = parse_chain_spec("token_overlap:0.99,matching_blocks_ratio:0.85")
    assert [(c.kind, c.threshold) for c in chain] == [
        ("token_overlap", 0.99),
        ("matching_blocks_ratio", 0.85),
    ]
    with pytest.raises(ConfigError):
        parse_chain_spec("token_overlap")
    with pytest.raises(ConfigError):
        parse_chain_spec("token_overlap:high")
    with pytest.raises(ConfigError):
        parse_chain_spec(",")


def test_translate_file_provider(tmp_path, capsys):
    source = write(tmp_path, "src.txt", ["a", "b", "c"])
    pre = write(tmp_path, "pre.txt", ["x", "y", "z"])
    out = tmp_path / "out.txt"
    code = main(
        ["translate", "--source", source, "--provider", "file",
         "--provider-path", pre, "--out", str(out)]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "x\ny\nz\n"


def test_translate_missing_source_names_path(tmp_path, capsys):
    pre = write(tmp_path, "pre.txt", ["x"])
    code = main(
        ["translate", "--source", str(tmp_path / "absent.txt"), "--provider", "file",
         "--provider-path", pre, "--out", str(tmp_path / "out.txt")]
    )
    assert code == 1
    assert "absent.txt" in capsys.readouterr().err


def test_translate_file_provider_keeps_repeated_source_lines(tmp_path, capsys):
    # Line 3 repeats line 1's source text but keeps its own translation.
    source = write(tmp_path, "src.txt", ["dziekuje", "ala ma kota", "dziekuje"])
    pre = write(tmp_path, "pre.txt", ["thanks", "ala has a cat", "thank you very much"])
    out = tmp_path / "out.txt"
    argv = ["translate", "--source", source, "--provider", "file", "--provider-path", pre,
            "--stats", "--out", str(out)]
    assert main(argv) == 0
    assert last_json(capsys) == {"lines": 3, "provider_calls": 0, "cache_hits": 0}
    assert out.read_text(encoding="utf-8") == "thanks\nala has a cat\nthank you very much\n"


def test_translate_file_provider_changed_file_wins_over_cache(tmp_path, capsys):
    source = write(tmp_path, "src.txt", ["jeden", "dwa"])
    pre = write(tmp_path, "pre.txt", ["one", "two"])
    cache = tmp_path / "cache"
    out = tmp_path / "out.txt"
    argv = ["translate", "--source", source, "--provider", "file", "--provider-path", pre,
            "--cache", str(cache), "--out", str(out)]
    assert main(argv) == 0
    write(tmp_path, "pre.txt", ["uno", "two"])
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == "uno\ntwo\n"
    assert not cache.exists()  # the file provider neither reads nor writes a cache


def test_translate_file_provider_uses_the_corpus_line_rules(tmp_path, capsys):
    # The BOM and CRLF ending go, a form feed stays inside its line, and the
    # empty line is skipped.
    source = write(tmp_path, "src.txt", ["a", "b"])
    pre = tmp_path / "pre.txt"
    pre.write_bytes(b"\xef\xbb\xbfone\x0ctwo\r\n\nthree\n")
    out = tmp_path / "out.txt"
    argv = ["translate", "--source", source, "--provider", "file", "--provider-path", str(pre),
            "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == "one\x0ctwo\nthree\n"


@pytest.mark.parametrize("command", ["translate", "align"])
def test_file_provider_length_mismatch_names_the_file_and_both_counts(tmp_path, capsys, command):
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    pre = write(tmp_path, "pre.txt", distinct_lines(2))
    assert main(with_file_provider(cli_argv(command, path, tmp_path), pre)) == 2
    err = capsys.readouterr().err
    assert err == f"error: translation file {pre} has 2 lines but the source corpus has 3\n"


def with_trans(argv, path):
    """``argv`` with ``path`` as its ``--trans`` file."""
    at = argv.index("--trans")
    return argv[: at + 1] + [path] + argv[at + 2 :]


@pytest.mark.parametrize("command", ["align", "tune"])
def test_trans_length_mismatch_names_the_file_and_both_counts(tmp_path, capsys, command):
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    pre = write(tmp_path, "pre.txt", distinct_lines(2))
    assert main(with_trans(cli_argv(command, path, tmp_path), pre)) == 2
    err = capsys.readouterr().err
    assert err == f"error: translation file {pre} has 2 lines but the source corpus has 3\n"
    if command == "align":  # the file provider says the same of the same file
        assert main(with_file_provider(cli_argv(command, path, tmp_path), pre)) == 2
        assert capsys.readouterr().err == err


def test_tune_reports_a_bad_resolution_before_a_short_translation(tmp_path, capsys):
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    pre = write(tmp_path, "pre.txt", distinct_lines(2))
    argv = with_trans(cli_argv("tune", path, tmp_path), pre) + ["--resolution", "0"]
    assert main(argv) == 1
    assert "resolution" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [({"provider": "file", "provider_path": "pre.txt"}, "file provider needs a path"),
     ({"provider": "http", "endpoint": "http://127.0.0.1:9/{text}"}, "invalid provider endpoint")],
)
def test_config_reads_provider_path_and_endpoint_only_in_provider_settings(
    tmp_path, capsys, monkeypatch, config, message
):
    source = write(tmp_path, "src.txt", ["jeden"])
    write(tmp_path, "pre.txt", ["one"])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # where "pre.txt" would be found
    argv = ["translate", "--config", str(config_path), "--source", source,
            "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_translate_cached_rerun_zero_provider_calls(tmp_path, capsys, mock_server):
    source = write(tmp_path, "src.txt", ["jeden", "dwa"])
    cache = str(tmp_path / "cache")
    argv = ["translate", "--source", source, "--provider", "http",
            "--endpoint", endpoint(mock_server, "/echo"), "--cache", cache, "--stats",
            "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 0
    first = last_json(capsys)
    assert first["provider_calls"] == 2
    assert main(argv) == 0
    second = last_json(capsys)
    assert second == {"lines": 2, "provider_calls": 0, "cache_hits": 2}
    assert len(mock_server.state["requests"]) == 2


def test_translate_cache_not_utf8_exits_two(tmp_path, capsys, mock_server):
    source = write(tmp_path, "src.txt", ["jeden"])
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "src-tgt.tsv").write_bytes(b"\xffjeden\tone\n")
    argv = ["translate", "--source", source, "--provider", "http",
            "--endpoint", endpoint(mock_server, "/echo"),
            "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "src-tgt.tsv" in err and "Traceback" not in err


def test_translate_unwritable_cache_exits_one(tmp_path, capsys, mock_server):
    source = write(tmp_path, "src.txt", ["jeden"])
    cache = str(tmp_path / "src.txt" / "sub")  # a regular file is in the way
    argv = ["translate", "--source", source, "--provider", "http",
            "--endpoint", endpoint(mock_server, "/echo"),
            "--cache", cache, "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {cache}") and "Traceback" not in err


def test_translate_unreadable_cache_exits_one(tmp_path, capsys, mock_server):
    source = write(tmp_path, "src.txt", ["jeden"])
    pair_file = tmp_path / "cache" / "src-tgt.tsv"
    pair_file.mkdir(parents=True)  # a directory where the pair's file goes
    argv = ["translate", "--source", source, "--provider", "http",
            "--endpoint", endpoint(mock_server, "/echo"),
            "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {pair_file}") and "Traceback" not in err


def align_argv(tmp_path, source, target, trans, subdir="run", extra=()):
    out = tmp_path / subdir
    out.mkdir(exist_ok=True)
    return [
        "align", "--source", source, "--target", target, "--trans", trans,
        "--out-source", str(out / "s.txt"), "--out-target", str(out / "t.txt"),
        "--report", str(out / "r.jsonl"), *extra,
    ], out


def with_file_provider(argv, path):
    """``argv`` reading its translation from ``path`` through the file
    provider, in place of its ``--trans`` option if it has one."""
    at = argv.index("--trans") if "--trans" in argv else len(argv)
    return argv[:at] + ["--provider", "file", "--provider-path", path] + argv[at + 2 :]


def test_align_identity_summary(tmp_path, capsys):
    lines = distinct_lines(6)
    source = write(tmp_path, "src.txt", lines)
    target = write(tmp_path, "tgt.txt", lines)
    argv, out = align_argv(
        tmp_path, source, target, source,
        extra=["--chain", "matching_blocks_ratio:1.0", "--window", "0"],
    )
    assert main(argv) == 0
    summary = last_json(capsys)
    assert summary["A"] == summary["L"] == 6
    assert summary["T"] == summary["D"] == 0
    assert (out / "t.txt").read_text(encoding="utf-8").splitlines() == lines


def test_align_lookahead_fixture_report_shows_deferral(tmp_path, capsys):
    source = write(tmp_path, "src.txt", ["zrodlo raz", "zrodlo dwa"])
    target = write(tmp_path, "tgt.txt", LOOKAHEAD_TARGET)
    trans = write(tmp_path, "trans.txt", LOOKAHEAD_TRANS)
    argv, out = align_argv(
        tmp_path, source, target, trans,
        extra=["--chain", "matching_blocks_ratio:0.6", "--window", "0"],
    )
    assert main(argv) == 0
    records = [
        json.loads(line)
        for line in (out / "r.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert records[0]["text"] == "I like going to school every day."
    assert records[1]["text"] == "I do not go to school every day."


def test_align_disproportion_summary(tmp_path, capsys):
    lines = distinct_lines(7)
    source = write(tmp_path, "src.txt", lines)
    target = write(tmp_path, "tgt.txt", [lines[0], lines[2], lines[3], lines[5], lines[6]])
    argv, _ = align_argv(
        tmp_path, source, target, source,
        extra=["--chain", "matching_blocks_ratio:1.0", "--window", "0"],
    )
    assert main(argv) == 0
    summary = last_json(capsys)
    assert summary["D"] == 2
    assert summary["L"] == 7


def test_align_auto_translates_without_trans_file(tmp_path, capsys):
    lines = distinct_lines(4)
    source = write(tmp_path, "src.txt", ["s1", "s2", "s3", "s4"])
    target = write(tmp_path, "tgt.txt", lines)
    pre = write(tmp_path, "pre.txt", lines)
    out = tmp_path / "auto"
    out.mkdir()
    code = main(
        ["align", "--source", source, "--target", target,
         "--provider", "file", "--provider-path", pre,
         "--chain", "matching_blocks_ratio:1.0", "--window", "0",
         "--out-source", str(out / "s.txt"), "--out-target", str(out / "t.txt"),
         "--report", str(out / "r.jsonl")]
    )
    assert code == 0
    assert last_json(capsys)["A"] == 4


def test_align_file_provider_writes_what_trans_writes(tmp_path, capsys):
    source = write(tmp_path, "src.txt", ["dziekuje", "ala ma kota", "dziekuje"])
    target = write(tmp_path, "tgt.txt", ["thank you very much", "ala has a cat", "thanks"])
    pre = write(tmp_path, "pre.txt", ["thanks", "ala has a cat", "thank you very much"])
    argv, by_trans = align_argv(tmp_path, source, target, pre, "trans")
    assert main(argv) == 0
    assert last_json(capsys)["A"] == 3
    argv, by_provider = align_argv(tmp_path, source, target, pre, "provider")
    assert main(with_file_provider(argv, pre)) == 0
    assert last_json(capsys) == {"A": 3, "T": 0, "D": 0, "L": 3, "unmatched_targets": 0}
    for name in ("s.txt", "t.txt", "r.jsonl"):
        assert (by_provider / name).read_bytes() == (by_trans / name).read_bytes(), name


def test_align_is_byte_deterministic(tmp_path, capsys):
    lines = distinct_lines(20)
    shuffled = lines[5:] + lines[:5]
    source = write(tmp_path, "src.txt", lines)
    target = write(tmp_path, "tgt.txt", shuffled)
    blobs = []
    for subdir in ("one", "two"):
        argv, out = align_argv(
            tmp_path, source, target, source, subdir=subdir,
            extra=["--chain", "matching_blocks_ratio:1.0", "--window", "0"],
        )
        assert main(argv) == 0
        blobs.append(
            tuple((out / n).read_bytes() for n in ("s.txt", "t.txt", "r.jsonl"))
        )
    assert blobs[0] == blobs[1]
    outputs = capsys.readouterr().out.strip().splitlines()
    assert outputs[0] == outputs[1]


FIXTURES = Path(__file__).resolve().parent / "fixtures"
ALIGNED_FIXTURE_SOURCE = "9b58d614b5759f96154d265ece77876600475416a42957eb194ef8402f992d2e"
EVALUATE_FIXTURE_STDOUT = "693501336123d5c1f8f56231d5f68c6c61047cdde9e4f16680244e4a5cf4d6db"


@pytest.mark.parametrize(
    "extra, report_sha256, target_sha256",
    [
        ([], "0037ef14ac8e70cff2fb0fb530cb3bb8f63e822c69e97cc7b592f02c3260b048",
         "b3ceedea72732afac4714704491e40dbdce80d9c258b32887cbb47abe3f7811d"),
        (["--chain", "token_overlap:0.99,matching_blocks_ratio:0.85,synonym_ratio:0.8"],
         "9604b15763713df5c44e043d8022ed2df00a0b226cf15e5e5194391fd460dc3a",
         "f95bfe86c2c5110a926db9445aac1f6600b3f473d7c1b6cd8813c0eb67ff0aa9"),
    ],
    ids=["default-chain", "with-synonym-tier"],
)
def test_fixture_align_bytes_are_pinned(tmp_path, capsys, extra, report_sha256, target_sha256):
    # The 1005-line fixture aligned against itself as translation: any
    # change to a score, a tie, the lookahead or the report format shows
    # up as a different digest, on every Python version CI runs.
    source = str(FIXTURES / "parallel_1005.src")
    argv, out = align_argv(
        tmp_path, source, str(FIXTURES / "parallel_1005.tgt"), source,
        extra=["--stopwords", str(FIXTURES / "stopwords_en.txt"),
               "--synonyms", str(FIXTURES / "synonyms_en.tsv"), *extra],
    )
    assert main(argv) == 0
    digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("r.jsonl", "s.txt", "t.txt")]
    assert digests == [report_sha256, ALIGNED_FIXTURE_SOURCE, target_sha256]


def library_outputs(tmp_path, source, target, trans, extra=()):
    """The bytes ``align()`` and ``write_alignment`` write for the corpora
    ``load_corpus`` reads, with the settings ``extra`` gives the CLI."""
    from transalign import AlignmentConfig, align, load_stopwords, load_synonyms, write_alignment
    from transalign.corpus import load_corpus

    options = dict(zip(extra[::2], extra[1::2]))
    config = AlignmentConfig(
        parse_chain_spec(options.get("--chain", "token_overlap:0.99,matching_blocks_ratio:0.85")),
        window=int(options.get("--window", 20)),
        stopwords=load_stopwords(options["--stopwords"]) if "--stopwords" in options else frozenset(),
        lexicon=load_synonyms(options["--synonyms"]) if "--synonyms" in options else {},
    )
    corpora = [load_corpus(path, "x") for path in (source, target, trans)]
    out = tmp_path / "library"
    out.mkdir(exist_ok=True)
    paths = [out / name for name in ("s.txt", "t.txt", "r.jsonl")]
    write_alignment(align(*corpora, config), corpora[0], *paths)
    return [path.read_bytes() for path in paths]


def cli_outputs(argv, out):
    assert main(argv) == 0
    return [(out / name).read_bytes() for name in ("s.txt", "t.txt", "r.jsonl")]


LEXICON_OPTIONS = (
    "--stopwords", str(FIXTURES / "stopwords_en.txt"), "--synonyms", str(FIXTURES / "synonyms_en.tsv"),
    "--chain", "token_overlap:0.99,matching_blocks_ratio:0.85,synonym_ratio:0.85",
)


@pytest.mark.parametrize("extra", [(), LEXICON_OPTIONS], ids=["default-chain", "lexicon"])
def test_fixture_files_align_as_the_loaded_corpora_do(tmp_path, capsys, extra):
    # CI's two chains on the fixture: the command reads its files forward,
    # through --trans and through the file provider alike, and writes the
    # bytes of align() over the loaded corpora.
    source, target = str(FIXTURES / "parallel_1005.src"), str(FIXTURES / "parallel_1005.tgt")
    expected = library_outputs(tmp_path, source, target, source, extra)
    argv, out = align_argv(tmp_path, source, target, source, extra=extra)
    assert cli_outputs(argv, out) == expected
    argv, out = align_argv(tmp_path, source, target, source, "provider", extra=extra)
    assert cli_outputs(with_file_provider(argv, source), out) == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files through /proc/self/fd")
def test_align_closes_its_corpus_files_when_it_returns(tmp_path, capsys):
    # A corpus read from its file holds no reference cycle, so dropping it
    # closes its file at once, without the cycle collector.
    source, target = FIXTURES / "parallel_1005.src", FIXTURES / "parallel_1005.tgt"
    trans = tmp_path / "trans.txt"
    trans.write_bytes(source.read_bytes())
    argv, _ = align_argv(tmp_path, str(source), str(target), str(trans))
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        opened = set()
        for fd in os.listdir("/proc/self/fd"):
            try:
                opened.add(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:  # the descriptor that listed the directory
                pass
    finally:
        gc.enable()
    assert not opened & {os.path.realpath(path) for path in (source, target, trans)}


def test_oracle_corpora_align_from_files_as_loaded(tmp_path, capsys):
    from test_align import differential_corpora

    for seed in range(4):
        trans, target = differential_corpora(seed)  # no empty lines
        paths = {}
        for name, lines in (("src", [f"zrodlo {i}" for i in range(len(trans))]),
                            ("tgt", target), ("trans", trans)):
            paths[name] = write(tmp_path, f"{name}{seed}.txt", lines)
        for extra in (("--window", "3"), ("--window", "0", "--chain", "token_overlap:0.5")):
            expected = library_outputs(tmp_path, paths["src"], paths["tgt"], paths["trans"], extra)
            argv, out = align_argv(tmp_path, paths["src"], paths["tgt"], paths["trans"], extra=extra)
            assert cli_outputs(argv, out) == expected, (seed, extra)


def read_nonempty(path):
    return [line for line in Path(path).read_text(encoding="utf-8").split("\n") if line]


def test_crlf_bom_and_empty_lines_align_from_files_as_loaded(tmp_path, capsys):
    lines = distinct_lines(30)
    paths = []
    for name, data in (
        ("src.txt", "\ufeff" + "\r\n".join(lines) + "\r\n"),
        ("tgt.txt", "\n\n".join(lines[5:] + lines[:5]) + "\n\n"),
        ("trans.txt", "\ufeff\n" + "\r\n\r\n".join(lines) + "\r"),  # no final LF
    ):
        (tmp_path / name).write_bytes(data.encode("utf-8"))
        paths.append(str(tmp_path / name))
    extra = ("--window", "6")
    expected = library_outputs(tmp_path, *paths, extra)
    argv, out = align_argv(tmp_path, *paths, extra=extra)
    assert cli_outputs(argv, out) == expected
    assert expected[0].decode("utf-8").splitlines() == lines


@pytest.mark.parametrize("bad", [b"fine\nbad \xff byte\n", b"fine\n\nlone\rcr\n", b"\xc5"])
@pytest.mark.parametrize("which", ["source", "target", "trans"])
def test_align_reports_a_bad_corpus_file_before_writing(tmp_path, capsys, which, bad):
    from transalign.corpus import load_corpus

    lines = distinct_lines(3)
    paths = {name: write(tmp_path, f"{name}.txt", lines) for name in ("source", "target", "trans")}
    Path(paths[which]).write_bytes(bad)
    with pytest.raises(CorpusFormatError) as expected:
        load_corpus(paths[which], "x")
    argv, out = align_argv(tmp_path, paths["source"], paths["target"], paths["trans"])
    (out / "t.txt").write_bytes(b"old target\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert sorted(path.name for path in out.iterdir()) == ["t.txt"]
    assert (out / "t.txt").read_bytes() == b"old target\n"


@pytest.mark.parametrize("which, kept", [("target", 100), ("source", 100), ("source", 400)])
def test_align_reports_a_file_changed_after_its_check(tmp_path, capsys, monkeypatch, which, kept):
    from transalign import corpusfile

    lines = distinct_lines(300)
    paths = {name: write(tmp_path, f"{name}.txt", lines) for name in ("source", "target", "trans")}
    checked = corpusfile.CorpusFile.__init__

    def check_then_change(self, path, language):
        checked(self, path, language)
        if path == paths[which]:
            write(tmp_path, f"{which}.txt", distinct_lines(400)[:kept])

    monkeypatch.setattr(corpusfile.CorpusFile, "__init__", check_then_change)
    argv, _ = align_argv(tmp_path, paths["source"], paths["target"], paths["trans"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {paths[which]}: the file changed while it was read (it had 300 lines)\n"


def fixture_align_argv(tmp_path, subdir="run"):
    """``align_argv`` for the 1005-line fixture, its source as translation."""
    source = str(FIXTURES / "parallel_1005.src")
    return align_argv(tmp_path, source, str(FIXTURES / "parallel_1005.tgt"), source, subdir)


def fresh_fixture_outputs(tmp_path):
    """The directory of a fixture run into new paths."""
    argv, out = fixture_align_argv(tmp_path, "fresh")
    assert main(argv) == 0
    return out


OUTPUTS = ("s.txt", "t.txt", "r.jsonl")  # in the order align writes them


def old_outputs(out):
    """Give ``out``'s three outputs bytes of an earlier run; return them."""
    for name in OUTPUTS:
        (out / name).write_bytes(f"old {name}\n".encode())
    return {name: (out / name).read_bytes() for name in OUTPUTS}


def test_align_interrupted_in_the_report_keeps_the_old_report(tmp_path, monkeypatch):
    argv, out = fixture_align_argv(tmp_path)
    old = old_outputs(out)
    align_module = importlib.import_module("transalign.align")
    quote, calls = align_module.quote, []

    def interrupting(text):
        calls.append(text)
        if len(calls) == 1000:
            raise KeyboardInterrupt
        return quote(text)

    monkeypatch.setattr(align_module, "quote", interrupting)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert (out / "r.jsonl").read_bytes() == old["r.jsonl"]
    assert sorted(path.name for path in out.iterdir()) == sorted(OUTPUTS)


def test_align_failing_to_replace_its_second_output_exits_one(tmp_path, capsys, monkeypatch):
    fresh = fresh_fixture_outputs(tmp_path)
    argv, out = fixture_align_argv(tmp_path)
    old = old_outputs(out)
    replace, calls = os.replace, []

    def failing_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_second)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / 't.txt'}: ")
    assert (out / "s.txt").read_bytes() == (fresh / "s.txt").read_bytes()
    assert [(out / name).read_bytes() for name in OUTPUTS[1:]] == [old[name] for name in OUTPUTS[1:]]
    assert sorted(path.name for path in out.iterdir()) == sorted(OUTPUTS)


def test_align_out_source_may_name_the_source(tmp_path, capsys):
    # The source is read from its old file while the new one is written.
    fresh = fresh_fixture_outputs(tmp_path)
    source = tmp_path / "src.txt"
    source.write_bytes((FIXTURES / "parallel_1005.src").read_bytes())
    argv, out = align_argv(tmp_path, str(source), str(FIXTURES / "parallel_1005.tgt"), str(source))
    argv[argv.index("--out-source") + 1] = str(source)
    assert main(argv) == 0
    assert (out / "r.jsonl").read_bytes() == (fresh / "r.jsonl").read_bytes()
    assert source.read_bytes() == (fresh / "s.txt").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fresh", "run", "src.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_align_writes_a_fifo_report_in_place(tmp_path):
    fresh = fresh_fixture_outputs(tmp_path)
    argv, out = fixture_align_argv(tmp_path)
    fifo = out / "r.jsonl"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(argv) == 0
    finally:
        try:  # a reader still waiting for a writer gets an empty FIFO
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join(timeout=60)
    assert not reader.is_alive() and received == [(fresh / "r.jsonl").read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(path.name for path in out.iterdir()) == sorted(OUTPUTS)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_align_writes_its_report_to_dev_stdout_on_a_pipe(tmp_path):
    # /dev/stdout links to "pipe:[N]", which no path resolves to; the
    # report must go into the pipe, not into a temp file beside the link.
    fresh = fresh_fixture_outputs(tmp_path)
    argv, out = fixture_align_argv(tmp_path)
    argv[argv.index("--report") + 1] = "/dev/stdout"
    repo = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "transalign.cli", *argv],
        env={**os.environ, "PYTHONPATH": pythonpath}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = (fresh / "r.jsonl").read_bytes()
    assert proc.stdout.startswith(report)
    assert json.loads(proc.stdout[len(report):])["L"] == 1005
    assert sorted(path.name for path in out.iterdir()) == ["s.txt", "t.txt"]


def perturbed(line, rng):
    """An MT-like hypothesis for ``line``: a deleted word, substituted
    words and a moved block of one to three words, each by chance."""
    words = line.split()
    if len(words) > 3 and rng.random() < 0.3:
        del words[rng.randrange(len(words))]
    for k in range(len(words)):
        if rng.random() < 0.1:
            words[k] = rng.choice(["the", "a", "report", "zzz"])
    if len(words) > 4 and rng.random() < 0.4:
        size = rng.randint(1, 3)
        start = rng.randrange(len(words) - size + 1)
        block, rest = words[start : start + size], words[:start] + words[start + size :]
        dest = rng.randrange(len(rest) + 1)
        words = rest[:dest] + block + rest[dest:]
    return " ".join(words)


def test_fixture_evaluate_bytes_are_pinned(tmp_path, capsys):
    # BLEU, TER and CER of a seeded perturbation of the fixture against the
    # fixture itself: a TER that takes a worse shift, or any change to a
    # metric or to the report, shows up as a different digest.
    reference = FIXTURES / "parallel_1005.tgt"
    rng = random.Random(1005)
    lines = reference.read_text(encoding="utf-8").splitlines()
    hyp = write(tmp_path, "hyp.txt", [perturbed(line, rng) for line in lines])
    assert main(["evaluate", "--hyp", hyp, "--ref", str(reference)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == EVALUATE_FIXTURE_STDOUT


@pytest.mark.parametrize(
    "chain, stdout_sha256, out_sha256",
    [
        ("matching_blocks_ratio:0.85",
         "c7bc217393c36455d4f4fbe75d677d0d7541928b56a46be74f10bae5463fe11c",
         "e97212f3a57ddc52f6afbcb0a6056c2f10d9e6569872fa51ce4fac6cd92e1762"),
        ("token_overlap:0.99,matching_blocks_ratio:0.85,synonym_ratio:0.8",
         "bde1bf9681f36aae9784385f45582e91e980b6a6603690e1385d68019a495474",
         "e262da862617598d0b496f193f732db6c9a3275b3456201b9840f78e097587a0"),
    ],
    ids=["one-tier", "three-tier"],
)
def test_fixture_tune_bytes_are_pinned(tmp_path, capsys, chain, stdout_sha256, out_sha256):
    # A seeded dev set cut from the fixture: 150 source lines, their
    # perturbed copies as translation, the target lines at the same
    # indices (so some partners are missing) and the source as gold. Any
    # change to a probe, a score, the evaluation count or the report shows
    # up as a different digest.
    rng = random.Random(1016)
    lines = {name: (FIXTURES / f"parallel_1005.{name}").read_text(encoding="utf-8").splitlines()
             for name in ("src", "tgt")}
    picked = sorted(rng.sample(range(len(lines["tgt"])), 150))
    cut = {name: [column[i] for i in picked] for name, column in lines.items()}
    source = write(tmp_path, "src.txt", cut["src"])
    trans = write(tmp_path, "trans.txt", [perturbed(line, rng) for line in cut["src"]])
    out = tmp_path / "tuned.json"
    argv = ["tune", "--source", source, "--target", write(tmp_path, "tgt.txt", cut["tgt"]),
            "--trans", trans, "--gold", source, "--chain", chain, "--resolution", "0.0625",
            "--stopwords", str(FIXTURES / "stopwords_en.txt"),
            "--synonyms", str(FIXTURES / "synonyms_en.tsv"), "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    digests = [hashlib.sha256(data).hexdigest() for data in (stdout, out.read_bytes())]
    assert digests == [stdout_sha256, out_sha256]


def test_align_rejects_bad_threshold_before_reading_files(tmp_path, capsys):
    argv, _ = align_argv(
        tmp_path,
        str(tmp_path / "missing-src.txt"),
        str(tmp_path / "missing-tgt.txt"),
        str(tmp_path / "missing-trans.txt"),
        extra=["--chain", "matching_blocks_ratio:1.5"],
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "threshold" in err


def test_align_trans_length_mismatch_is_data_error(tmp_path, capsys):
    lines = distinct_lines(3)
    source = write(tmp_path, "src.txt", lines)
    target = write(tmp_path, "tgt.txt", lines)
    trans = write(tmp_path, "trans.txt", lines[:2])
    argv, _ = align_argv(tmp_path, source, target, trans)
    assert main(argv) == 2


def test_score_command_round_trip(tmp_path, capsys):
    lines = distinct_lines(10)
    source = write(tmp_path, "src.txt", lines)
    target = write(tmp_path, "tgt.txt", lines)
    argv, out = align_argv(
        tmp_path, source, target, source,
        extra=["--chain", "matching_blocks_ratio:1.0", "--window", "0"],
    )
    assert main(argv) == 0
    gold = write(tmp_path, "gold.txt", lines)
    assert main(["score", "--report", str(out / "r.jsonl"), "--gold", gold]) == 0
    card = last_json(capsys)
    assert card == {"A": 10, "M": 0, "T": 0, "D": 0, "L": 10, "S": 100}


def test_score_gold_shorter_is_data_error(tmp_path, capsys):
    lines = distinct_lines(4)
    source = write(tmp_path, "src.txt", lines)
    target = write(tmp_path, "tgt.txt", lines)
    argv, out = align_argv(
        tmp_path, source, target, source,
        extra=["--chain", "matching_blocks_ratio:1.0"],
    )
    assert main(argv) == 0
    gold = write(tmp_path, "gold.txt", lines[:2])
    assert main(["score", "--report", str(out / "r.jsonl"), "--gold", gold]) == 2


def test_score_skips_blank_gold_lines_like_the_source(tmp_path, capsys):
    # A blank line is not a sentence in any corpus, so gold line i is the
    # i-th non-empty line, the one that answers source line i.
    lines = distinct_lines(4)
    with_blank = lines[:2] + [""] + lines[2:]
    source = write(tmp_path, "src.txt", with_blank)
    argv, out = align_argv(
        tmp_path, source, source, source,
        extra=["--chain", "matching_blocks_ratio:1.0", "--window", "0"],
    )
    assert main(argv) == 0
    gold = write(tmp_path, "gold.txt", with_blank)
    assert main(["score", "--report", str(out / "r.jsonl"), "--gold", gold]) == 0
    assert last_json(capsys) == {"A": 4, "M": 0, "T": 0, "D": 0, "L": 4, "S": 100}


def test_evaluate_identity(tmp_path, capsys):
    lines = ["the cat sat on the mat", "and then it slept all day"]
    hyp = write(tmp_path, "hyp.txt", lines)
    ref = write(tmp_path, "ref.txt", lines)
    assert main(["evaluate", "--hyp", hyp, "--ref", ref]) == 0
    report = last_json(capsys)
    assert report["bleu"] == 1.0
    assert report["ter"] == 0.0
    assert report["cer"] == 0.0


def test_evaluate_bigram_fixture_and_bp_forms(tmp_path, capsys):
    hyp = write(tmp_path, "hyp.txt", ["a b c d"])
    ref = write(tmp_path, "ref.txt", ["a b c d e"])
    assert main(["evaluate", "--hyp", hyp, "--ref", ref, "--max-order", "2"]) == 0
    assert last_json(capsys)["bleu"] == pytest.approx(math.exp(-0.25), abs=1e-12)
    assert main(
        ["evaluate", "--hyp", hyp, "--ref", ref, "--max-order", "2",
         "--bp-form", "paper"]
    ) == 0
    assert last_json(capsys)["bleu"] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_evaluate_line_count_mismatch_is_data_error(tmp_path):
    hyp = write(tmp_path, "hyp.txt", ["a"])
    ref = write(tmp_path, "ref.txt", ["a", "b"])
    assert main(["evaluate", "--hyp", hyp, "--ref", ref]) == 2


def test_evaluate_empty_files_error(tmp_path):
    hyp = write(tmp_path, "hyp.txt", [])
    ref = write(tmp_path, "ref.txt", [])
    assert main(["evaluate", "--hyp", hyp, "--ref", ref]) == 2


def test_provider_failure_exit_code(tmp_path):
    source = write(tmp_path, "src.txt", ["jeden"])
    code = main(
        ["translate", "--source", source, "--provider", "http",
         "--endpoint", "http://127.0.0.1:9/echo?q={text}&src={src}&tgt={tgt}",
         "--out", str(tmp_path / "out.txt")]
    )
    assert code == 3


def test_an_empty_translation_exits_three_and_writes_nothing(tmp_path, capsys, mock_server):
    # Saved and read back, an empty translation would leave one line fewer
    # than the source; aligned, an output target one line fewer than the
    # output source.
    source = write(tmp_path, "src.txt", ["one", "is empty", "three"])
    provider = ["--provider", "http", "--endpoint", endpoint(mock_server, "/empty")]
    out = tmp_path / "out.txt"
    assert main(["translate", "--source", source, *provider, "--out", str(out)]) == 3
    argv, run = align_argv(tmp_path, source, source, source)
    at = argv.index("--trans")
    assert main(argv[:at] + provider + argv[at + 2 :]) == 3
    err = capsys.readouterr().err
    assert err.count("error: translation failed at line index 1: ") == 2, err
    assert not out.exists() and list(run.iterdir()) == []


def test_usage_errors_exit_one(capsys):
    assert main(["align"]) == 1  # missing required flags
    assert main(["nonsense"]) == 1
    assert main(["evaluate", "--hyp", "a", "--ref", "b", "--bp-form", "wat"]) == 1
    assert main(["align", "--source", "a", "--target", "b", "--out-source", "c",
                 "--out-target", "d", "--report", "e", "--cap", "0"]) == 1
    assert main(["tune", "--source", "a", "--target", "b", "--trans", "c",
                 "--gold", "d", "--lookahead", "-1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("order", ["0", "-2"])
def test_evaluate_max_order_below_one_exits_one(tmp_path, capsys, order):
    path = write(tmp_path, "lines.txt", ["a b c"])
    assert main(["evaluate", "--hyp", path, "--ref", path, "--max-order", order]) == 1
    err = capsys.readouterr().err
    assert "max_order" in err and "Traceback" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_config_file_flags_win(tmp_path, capsys):
    source = write(tmp_path, "src.txt", ["zrodlo raz", "zrodlo dwa"])
    target = write(tmp_path, "tgt.txt", LOOKAHEAD_TARGET)
    trans = write(tmp_path, "trans.txt", LOOKAHEAD_TRANS)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"chain": "matching_blocks_ratio:1.0", "window": 0}),
        encoding="utf-8",
    )
    argv, _ = align_argv(
        tmp_path, source, target, trans, subdir="strict",
        extra=["--config", str(config)],
    )
    assert main(argv) == 0
    assert last_json(capsys)["A"] == 0  # nothing clears an exact-match bar

    argv, _ = align_argv(
        tmp_path, source, target, trans, subdir="loose",
        extra=["--config", str(config), "--chain", "matching_blocks_ratio:0.6"],
    )
    assert main(argv) == 0
    assert last_json(capsys)["A"] == 2  # flag overrode the config chain


def test_config_chain_as_json_list(tmp_path, capsys):
    lines = distinct_lines(3)
    source = write(tmp_path, "src.txt", lines)
    target = write(tmp_path, "tgt.txt", lines)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"chain": [{"kind": "matching_blocks_ratio", "threshold": 1.0}],
             "window": 0}
        ),
        encoding="utf-8",
    )
    argv, _ = align_argv(tmp_path, source, target, source, extra=["--config", str(config)])
    assert main(argv) == 0
    assert last_json(capsys)["A"] == 3


def test_config_invalid_json_exit_one(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{broken", encoding="utf-8")
    source = write(tmp_path, "src.txt", ["a"])
    argv, _ = align_argv(tmp_path, source, source, source, extra=["--config", str(config)])
    assert main(argv) == 1
    config.write_text("[]", encoding="utf-8")
    assert main(argv) == 1
    config.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def cli_argv(command, path, tmp_path):
    """Valid argv for ``command`` with every input file set to ``path``."""
    if command == "align":
        return align_argv(tmp_path, path, path, path)[0]
    return {
        "tune": ["tune", "--source", path, "--target", path, "--trans", path, "--gold", path],
        "evaluate": ["evaluate", "--hyp", path, "--ref", path],
        "translate": ["translate", "--source", path, "--out", str(tmp_path / "out.txt")],
    }[command]


@pytest.mark.parametrize("resolution", ["nan", "0", "-0.5"])
def test_tune_resolution_not_above_zero_exits_one(tmp_path, capsys, resolution):
    # NaN fails every comparison, so only "not resolution > 0" rejects it;
    # let through, it ends the search after one probe.
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    argv = cli_argv("tune", path, tmp_path) + ["--resolution", resolution]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "resolution" in err and "Traceback" not in err


def http_config(**settings):
    endpoint = "http://127.0.0.1:9/{text}"
    return {"provider": "http", "provider_settings": {"endpoint": endpoint, **settings}}


@pytest.mark.parametrize(
    "command, config",
    [
        ("align", {"window": "wide"}),
        ("align", {"window": -1}),
        ("align", {"window": True}),
        ("align", {"window": 2.9}),
        ("align", {"lookahead_depth": None}),
        ("align", {"cap": "x"}),
        ("align", {"cap": 0}),
        ("align", {"stopwords": 5}),
        ("tune", {"window": "wide"}),
        ("tune", {"synonyms": ["a.tsv"]}),
        ("evaluate", {"bp_form": "bogus"}),
        ("translate", http_config(timeout="x")),
        ("translate", http_config(retries=1.5)),
        ("translate", {"provider": "http", "provider_settings": ["not", "an", "object"]}),
        ("translate", {**http_config(), "cache_dir": 5}),
        ("translate", {**http_config(), "source_language": 5}),
        ("align", {"target_language": ""}),
        ("tune", {"source_language": ["en"]}),
        ("translate", http_config(endpoint=5)),
        ("translate", http_config(response_path=5)),
        ("translate", {"provider": {"type": "http", "endpoint": "http://127.0.0.1:9/{text}"}}),
        ("translate", http_config(endpoint="http://127.0.0.1:9/{txt}")),
        ("translate", http_config(endpoint="http://127.0.0.1:9/{0}")),
        ("translate", http_config(endpoint="http://127.0.0.1:9/{text")),
        ("align", {"chain": [{"kind": "token_overlap", "threshold": True}]}),
        ("align", {"chain": [{"kind": "token_overlap", "threshold": False}]}),
        ("align", {"chain": [{"kind": "token_overlap", "threshold": "0.5"}]}),
        ("align", {"chain": []}),
    ],
)
def test_invalid_config_values_exit_one(tmp_path, capsys, command, config):
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(cli_argv(command, path, tmp_path) + ["--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


RECORD = {"source_index": 0, "outcome": "translated", "text": "x"}
TRAILER = {"A": 0, "T": 1, "D": 0, "L": 1, "unmatched_targets": []}
ALIGNED = {**RECORD, "outcome": "aligned", "target_index": 0, "score": 1.0,
           "comparator": "token_overlap"}
ALIGNED_TRAILER = {**TRAILER, "A": 1, "T": 0}


def jsonl(*objects):
    return "".join(json.dumps(obj) + "\n" for obj in objects).encode("utf-8")


@pytest.mark.parametrize(
    "report, gold",
    [
        (jsonl({"outcome": "translated", "text": "x"}, TRAILER), b"x\n"),
        (jsonl({**RECORD, "source_index": "0"}, TRAILER), b"x\n"),
        (jsonl(RECORD, TRAILER).replace(b'"x"', b'"\xff"'), b"x\n"),
        (jsonl(RECORD, TRAILER), b"\xff\n"),
        (jsonl({**RECORD, "outcome": "aligned", "text": 5}, TRAILER), b"x\n"),
        (jsonl(RECORD, {**TRAILER, "unmatched_targets": 5}), b"x\n"),
        (jsonl(ALIGNED, {**ALIGNED, "target_index": 1}, {**TRAILER, "A": 2, "T": 0}), b"x\n"),
        (jsonl(RECORD, {**TRAILER, "L": 2}), b"x\nx\n"),
        (jsonl(RECORD, RECORD, {**TRAILER, "T": 2, "L": 2}), b"x\nx\n"),
        (jsonl({**RECORD, "source_index": 1}, TRAILER), b"x\nx\n"),
        (jsonl(RECORD, {**TRAILER, "A": 1, "T": 0}), b"x\n"),
        (jsonl(RECORD, {**TRAILER, "D": 1}), b"x\n"),
        (b"[" * 200_000 + b"]" * 200_000 + b"\n", b"x\n"),
        (jsonl({**RECORD, "outcome": ["translated"]}, TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "target_index": "x", "score": "high", "comparator": 7},
               {**ALIGNED_TRAILER, "unmatched_targets": [-5, -5]}), b"x\n"),
        (jsonl({**ALIGNED, "target_index": "x"}, ALIGNED_TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "target_index": -1}, ALIGNED_TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "target_index": None}, ALIGNED_TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "score": "high"}, ALIGNED_TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "score": 1.5}, ALIGNED_TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "score": float("nan")}, ALIGNED_TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "score": True}, ALIGNED_TRAILER), b"x\n"),
        (jsonl({**ALIGNED, "comparator": 7}, ALIGNED_TRAILER), b"x\n"),
        (jsonl(RECORD, {**TRAILER, "unmatched_targets": [-5]}), b"x\n"),
        (jsonl(RECORD, {**TRAILER, "unmatched_targets": [3, 3]}), b"x\n"),
        (jsonl(ALIGNED, {**ALIGNED_TRAILER, "unmatched_targets": [0]}), b"x\n"),
        (jsonl(ALIGNED, {**ALIGNED, "source_index": 1}, {**ALIGNED_TRAILER, "A": 2, "L": 2}),
         b"x\nx\n"),
    ],
    ids=["no-source-index", "string-source-index", "report-not-utf8", "gold-not-utf8",
         "number-text", "number-unmatched-targets", "more-records-than-L",
         "fewer-records-than-L", "duplicate-source-index", "source-index-out-of-range",
         "counts-disagree", "fill-count-disagrees", "deeply-nested-json",
         "unknown-outcome", "aligned-fields-and-unmatched-all-wrong", "string-target-index",
         "negative-target-index", "null-target-index", "string-score", "score-above-one",
         "nan-score", "bool-score", "number-comparator", "negative-unmatched-target",
         "repeated-unmatched-target", "target-aligned-and-unmatched",
         "target-aligned-twice"],
)
def test_bad_report_or_gold_exit_two(tmp_path, capsys, report, gold):
    (tmp_path / "r.jsonl").write_bytes(report)
    (tmp_path / "gold.txt").write_bytes(gold)
    argv = ["score", "--report", str(tmp_path / "r.jsonl"), "--gold", str(tmp_path / "gold.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("score", [0, 1, 0.5])
def test_aligned_record_with_any_score_in_range_scores(tmp_path, capsys, score):
    (tmp_path / "r.jsonl").write_bytes(jsonl({**ALIGNED, "score": score}, ALIGNED_TRAILER))
    (tmp_path / "gold.txt").write_bytes(b"x\n")
    argv = ["score", "--report", str(tmp_path / "r.jsonl"), "--gold", str(tmp_path / "gold.txt")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["A"] == 1


@pytest.mark.parametrize("flag, code", [("--stopwords", 2), ("--synonyms", 2), ("--config", 1)])
def test_option_file_not_utf8_names_the_file(tmp_path, capsys, flag, code):
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"word\t\xff\n")
    assert main(cli_argv("align", path, tmp_path) + [flag, str(bad)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err


def test_stopword_line_of_two_tokens_exits_two(tmp_path, capsys):
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    stopwords = write(tmp_path, "sw.txt", ["the", "of the"])
    assert main(cli_argv("align", path, tmp_path) + ["--stopwords", stopwords]) == 2
    assert capsys.readouterr().err.startswith(f"error: {stopwords}: line 2: ")


@pytest.mark.parametrize(
    "command, out_flag", [("align", "--out-source"), ("tune", "--out"), ("translate", "--out")]
)
def test_unwritable_output_exits_one(tmp_path, capsys, command, out_flag):
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    unwritable = str(tmp_path / "missing" / "out.txt")
    argv = cli_argv(command, path, tmp_path)
    if command == "translate":
        argv += ["--provider", "file", "--provider-path", path]
    if out_flag in argv:
        argv[argv.index(out_flag) + 1] = unwritable
    else:
        argv += [out_flag, unwritable]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {unwritable}") and "Traceback" not in err


def test_tune_command_step_fixture(tmp_path, capsys, caplog):
    letters = "abcdefghijklmnopqrst"
    trans, target = [], []
    for i in range(5):
        block, filler = letters[4 * i : 4 * i + 2], letters[4 * i + 2 : 4 * i + 4]
        trans.append(block * 2)
        target.append(block + filler)
    source = write(tmp_path, "src.txt", [f"zrodlo {i}" for i in range(5)])
    target_path = write(tmp_path, "tgt.txt", target)
    trans_path = write(tmp_path, "trans.txt", trans)
    gold = write(tmp_path, "gold.txt", target)
    out = tmp_path / "tuned.json"
    with caplog.at_level(logging.WARNING):
        code = main(
            ["tune", "--source", source, "--target", target_path,
             "--trans", trans_path, "--gold", gold,
             "--chain", "matching_blocks_ratio:0.9", "--window", "0",
             "--out", str(out)]
        )
    assert code == 0
    payload = last_json(capsys)
    assert payload["achieved_score"] == 100
    assert payload["thresholds"][0] <= 0.5
    assert payload["config_fragment"]["chain"][0]["kind"] == "matching_blocks_ratio"
    assert json.loads(out.read_text(encoding="utf-8")) == payload
    # 5 dev lines is far below the recommended range
    assert any("lines" in record.message for record in caplog.records)


def tracer_argv(command, tmp_path):
    """A small valid argv for ``command`` and the span of the ``cli``
    function the tracer wraps for it."""
    repo = Path(__file__).resolve().parents[1]
    trans = write(tmp_path, "trans.txt", LOOKAHEAD_TRANS)
    target = write(tmp_path, "tgt.txt", LOOKAHEAD_TARGET)
    if command == "align":
        synonyms = str(repo / "tests" / "fixtures" / "synonyms_en.tsv")
        argv, _ = align_argv(
            tmp_path, trans, target, trans,
            extra=["--chain", "synonym_ratio:0.6", "--synonyms", synonyms, "--window", "0"],
        )
        return argv, "align.align"
    if command == "tune":
        gold = write(tmp_path, "gold.txt", LOOKAHEAD_TARGET[:2])
        argv = ["tune", "--source", trans, "--target", target, "--trans", trans, "--gold", gold,
                "--chain", "matching_blocks_ratio:0.9", "--window", "0"]
        return argv, "tuning.tune_chain"
    return ["evaluate", "--hyp", trans, "--ref", trans], "metrics.evaluate_corpus"


@pytest.mark.parametrize("command", ["align", "tune", "evaluate"])
def test_benchmark_tracer_finds_every_hook(tmp_path, command):
    # perfbench/tracer.py wraps functions by their module attribute, those
    # of cli before the command runs, and counts select_candidate's pool
    # as its second positional argument: a renamed hook shows up in the
    # trace's "missing" list, a moved pool as a failed run, and a command
    # that does not call its cli function through the module as a missing
    # span.
    repo = Path(__file__).resolve().parents[1]
    argv, span = tracer_argv(command, tmp_path)
    trace_path = tmp_path / "trace.json"
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "tracer.py"), str(trace_path), "0", "--", *argv],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["exit_code"] == 0
    assert trace["missing"] == []
    assert span in [name for name, *_ in trace["spans"]]
    if command == "align":
        assert trace["counters"]["align.select_candidate.candidates"] > 0


LOADED_ON_USE = (
    "urllib.request", "urllib.error", "http.client", "ssl", "email", "concurrent.futures",
    "tempfile", "difflib",
    "transalign.align", "transalign.similarity", "transalign.lexicon", "transalign.tuning",
    "transalign.translate",
)


def test_cli_import_leaves_the_http_client_unloaded():
    # The HTTP client and the thread pool load only when a provider is
    # called, difflib only when the block kernel runs, and tempfile never
    # loads from the package; a fresh interpreter shows what
    # importing the CLI loads. -S keeps site's .pth files from importing
    # these modules before the check starts.
    repo = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; before = set(sys.modules); import transalign.cli; "
        "print(*(m for m in sys.argv[1:] if m in sys.modules and m not in before))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *LOADED_ON_USE],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def fresh_interpreter(code, *args):
    """Run ``code`` under ``python -S`` with this checkout's package and
    return its stdout."""
    repo = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_each_import_and_command_loads_only_what_it_runs(tmp_path):
    # Only tune and score run code that logs, so no list here has logging.
    loaded = "print(*sorted(m for m in sys.modules if m.startswith('transalign') or m == 'logging'))"
    out = fresh_interpreter(f"import sys, transalign.corpus, transalign.lexicon; {loaded}")
    assert out.split() == ["transalign", "transalign.corpus", "transalign.errors", "transalign.lexicon"]

    path = write(tmp_path, "lines.txt", distinct_lines(3))
    out = fresh_interpreter(
        "import sys, transalign.cli; "
        f"assert transalign.cli.main(['evaluate', '--hyp', {path!r}, '--ref', {path!r}]) == 0; "
        + loaded
    )
    assert out.splitlines()[-1].split() == [
        "transalign", "transalign.cli", "transalign.corpus", "transalign.errors",
        "transalign.metrics",
    ]

    # The file provider reads its file as --trans does, so it loads the same
    # modules: no transalign.translate. Both read through the forward
    # reader, transalign.corpusfile. The default chain has a character
    # tier, which loads the character masks; the token tier alone does not.
    argv, _ = align_argv(tmp_path, path, path, path)
    token_only = align_argv(tmp_path, path, path, path, extra=("--chain", "token_overlap:0.5"))[0]
    for argv, masks in ((argv, True), (with_file_provider(argv, path), True), (token_only, False)):
        out = fresh_interpreter(
            f"import sys, transalign.cli; assert transalign.cli.main({argv!r}) == 0; " + loaded
        )
        assert out.splitlines()[-1].split() == [
            "transalign", "transalign.align", *["transalign.charmask"] * masks, "transalign.cli",
            "transalign.corpus", "transalign.corpusfile", "transalign.errors", "transalign.lexicon",
            "transalign.similarity",
        ], argv


def test_tune_and_score_print_their_warnings(tmp_path):
    # Outside pytest's log capture the warnings reach stderr in the CLI's
    # "LEVEL logger: message" format.
    def stderr_of(argv):  # with stdout after it, which fresh_interpreter returns
        out = fresh_interpreter(
            "import sys, transalign.cli; sys.stderr = sys.stdout; "
            f"assert transalign.cli.main({argv!r}) == 0"
        )
        return out.splitlines()

    path = write(tmp_path, "lines.txt", distinct_lines(3))
    lines = stderr_of(cli_argv("tune", path, tmp_path))
    assert any(
        line.startswith("WARNING transalign.tuning: dev set has 3 lines;") for line in lines
    ), lines

    # Every line aligned to the wrong target: A = 0, M = 3, so S = -20.
    report = write(tmp_path, "report.jsonl", [
        *(json.dumps({"source_index": i, "outcome": "aligned", "target_index": (i + 1) % 3,
                      "score": 1.0, "comparator": "token_overlap", "text": f"wrong {i}"})
          for i in range(3)),
        json.dumps({"A": 3, "T": 0, "D": 0, "L": 3, "unmatched_targets": []}),
    ])
    lines = stderr_of(["score", "--report", report, "--gold", path])
    assert json.loads(lines[-1])["S"] == -20
    assert "WARNING transalign.metrics: alignment score -20 outside the nominal 1..100 range" in lines


def test_no_import_or_command_loads_dataclasses_or_inspect(tmp_path):
    check = "loaded = {'dataclasses', 'inspect'} & set(sys.modules); assert not loaded, loaded"
    fresh_interpreter(f"import sys, transalign.corpus, transalign.lexicon; {check}")

    path = write(tmp_path, "lines.txt", distinct_lines(3))
    align, out = align_argv(tmp_path, path, path, path)
    score = ["score", "--report", str(out / "r.jsonl"), "--gold", path]
    for argv in (align, cli_argv("tune", path, tmp_path), cli_argv("evaluate", path, tmp_path), score):
        fresh_interpreter(
            f"import sys, transalign.cli; assert transalign.cli.main({argv!r}) == 0; {check}"
        )


def test_corpus_and_lexicon_load_neither_typing_nor_pathlib():
    # The set-up probe's imports: under python -S nothing else loads these.
    fresh_interpreter(
        "import sys, transalign.corpus, transalign.lexicon; "
        "loaded = {'typing', 'pathlib'} & set(sys.modules); assert not loaded, loaded"
    )


@pytest.mark.parametrize("first", ["import", "tuning", "cli-align"])
def test_package_align_stays_the_function(tmp_path, first):
    # Importing the transalign.align submodule binds it on the package as
    # "align"; the package keeps the function whatever runs first.
    path = write(tmp_path, "lines.txt", distinct_lines(3))
    argv, _ = align_argv(tmp_path, path, path, path)
    code = {
        "import": "import transalign.align",
        "tuning": "import transalign.tuning",
        "cli-align": f"import transalign.cli; assert transalign.cli.main({argv!r}) == 0",
    }[first]
    out = fresh_interpreter(
        f"{code}\nimport transalign.align as module\nfrom transalign import align\n"
        "print(type(align).__name__, type(module).__name__, align is module)"
    )
    assert out.splitlines()[-1] == "function function True"


def test_every_exported_name_is_its_submodules_object():
    import transalign

    assert len(transalign.__all__) == 64 and transalign.__all__[-1] == "__version__"
    for name in transalign.__all__[:-1]:
        value = getattr(transalign, name)
        module = sys.modules[f"transalign.{transalign._EXPORTS[name]}"]
        assert value is getattr(module, name), name
    assert set(transalign.__all__) <= set(dir(transalign))
