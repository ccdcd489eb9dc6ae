import json
import os
import random
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import transalign.similarity as sim
from oracles import (
    align_oracle,
    char_count_bound,
    check_pool_hits,
    pick_oracle,
    report_lines_oracle,
)
from transalign.align import (
    ALIGNED,
    FILLED,
    TRANSLATED,
    AlignmentConfig,
    AlignmentDecision,
    AlignmentResult,
    align,
    lookahead_resolve,
    read_report,
    select_candidate,
    write_alignment,
)
from transalign.corpus import Corpus, load_corpus, tokenize
from transalign.corpusfile import CorpusFile
from transalign.errors import ConfigError, DataError
from transalign.lexicon import expand_sentence
from transalign.similarity import (
    ChainContext,
    ChainDecision,
    Comparator,
    ComparatorChain,
    PairScores,
)


FIXTURES = Path(__file__).parent / "fixtures"


def corpus(*lines, language="x"):
    return Corpus(language, lines)


def column(*lines):
    return corpus(*lines).normalized


def chain_of(threshold=0.99, kind="matching_blocks_ratio"):
    return ComparatorChain((Comparator(kind, threshold),))


def config_of(threshold=0.99, window=0, lookahead=1, **kw):
    return AlignmentConfig(
        chain=chain_of(threshold), window=window, lookahead_depth=lookahead, **kw
    )


def distinct_lines(n):
    # pairwise dissimilar sentences so exact-threshold matching is unambiguous
    return [f"w{i} k{i * 7 % 101} q{i * 13 % 89} end{i}" for i in range(n)]


def test_identity_corpus_aligns_every_line(tmp_path):
    lines = distinct_lines(8)
    src = corpus(*lines, language="src")
    tgt = corpus(*lines, language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    assert result.counts() == {"A": 8, "T": 0, "D": 0, "L": 8}
    assert [d.target_index for d in result.decisions] == list(range(8))
    out_s, out_t, _ = report_bytes(result, src, tmp_path)
    assert out_s == out_t == "".join(line + "\n" for line in lines).encode("utf-8")
    assert result.unmatched_target_indices == ()


LOOKAHEAD_TRANS = ["I go to school every day.", "I don't go to school every day."]
LOOKAHEAD_TARGET = [
    "I like going to school every day.",
    "I do not go to school every day.",
    "We will go tomorrow.",
]


def test_align_never_normalizes_the_source():
    # Source lines are only counted; write_alignment copies them.
    lines = distinct_lines(6)
    src = corpus(*lines, language="src")
    trans = corpus(*lines, language="y")
    tgt = corpus(*reversed(lines), language="tgt")
    result = align(src, tgt, trans, config_of(threshold=1.0))
    assert result.counts()["A"] == 6
    assert "normalized" not in vars(src)
    assert "normalized" in vars(trans) and "normalized" in vars(tgt)


def lookahead_fixture(lookahead=1):
    src = corpus("zrodlo pierwsze", "zrodlo drugie", language="src")
    trans = corpus(*LOOKAHEAD_TRANS, language="en")
    tgt = corpus(*LOOKAHEAD_TARGET, language="en")
    cfg = config_of(threshold=0.6, window=0, lookahead=lookahead)
    return align(src, tgt, trans, cfg)


def test_lookahead_defers_contested_candidate():
    result = lookahead_fixture(lookahead=1)
    first, second = result.decisions
    assert first.outcome == second.outcome == ALIGNED
    assert first.text == "I like going to school every day."
    assert second.text == "I do not go to school every day."


def test_lookahead_disabled_takes_greedy_best():
    # without lookahead the first line grabs the contested sentence
    result = lookahead_fixture(lookahead=0)
    assert result.decisions[0].text == "I do not go to school every day."


def test_lookahead_rejecting_later_line_cannot_defer():
    # line 1's Dice score (0.947) beats line 0's accepted ratio (0.943), but
    # line 1's chain rejects the target, so it must not take it from line 0
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.99), Comparator("matching_blocks_ratio", 0.9))
    )
    src = corpus("zrodlo jeden", "zrodlo dwa", language="src")
    trans = corpus(
        "the cat sat on a mat near the door",
        "door the near mat the on sat cat the dog",
        language="en",
    )
    tgt = corpus("the cat sat on the mat near the door", language="en")
    for lookahead in (0, 1):
        config = AlignmentConfig(chain=chain, window=0, lookahead_depth=lookahead)
        first, second = align(src, tgt, trans, config).decisions
        assert first.outcome == ALIGNED and first.target_index == 0
        assert first.score == pytest.approx(0.943, abs=5e-4)
        assert second.outcome != ALIGNED


def test_lookahead_requires_strictly_higher_score():
    trans = corpus("same line", "same line", language="en")
    scores = PairScores(trans.normalized, column("same line"))
    score = scores.decide(0, 0, chain_of(0.5)).score
    keep = lookahead_resolve(0, 0, score, chain_of(0.5), depth=1, scores=scores)
    assert keep  # equal later score must not steal the candidate


def test_lookahead_depth_zero_always_keeps():
    trans = corpus("weak match", "weak match exact", language="en")
    scores = PairScores(trans.normalized, column("weak match exact"))
    score = scores.decide(0, 0, chain_of(0.5)).score
    assert lookahead_resolve(0, 0, score, chain_of(0.5), depth=0, scores=scores)


def test_select_candidate_tie_breaks_by_distance_then_index():
    trans = corpus("alpha beta", language="en")
    lines = ["alpha beta" if j in (4, 6, 9) else "gamma" for j in range(10)]
    scores = PairScores(trans.normalized, column(*lines))
    picked, decision = select_candidate(0, [9, 4], 5.0, chain_of(0.9), scores)
    assert picked == 4
    assert decision.score == 1.0

    picked, _ = select_candidate(0, [6, 4], 5.0, chain_of(0.9), scores)
    assert picked == 4  # equal distance, smaller index wins


def two_tier_chain():
    return ComparatorChain(
        (Comparator("token_overlap", 0.5), Comparator("matching_blocks_ratio", 0.5))
    )


def test_select_candidate_compares_raw_scores_across_tiers():
    # Target 0 passes token Dice with 2*2/6; target 1 shares no token but
    # passes the block ratio with 2*9/20, so it wins on the higher number.
    scores = PairScores(column("the cat sat"), column("the cat ran", "thecatsat"))
    picked, decision = select_candidate(0, [0, 1], 0.0, two_tier_chain(), scores)
    assert picked == 1
    assert decision.comparator.kind == "matching_blocks_ratio"
    assert decision.score == 0.9
    assert scores.decide(0, 0, two_tier_chain()).score == pytest.approx(2 / 3)


def test_lookahead_contest_crosses_tiers():
    # Line 0 holds the target by token Dice, 2/3; line 1 shares no token
    # with it but beats that with a block ratio of 0.9.
    scores = PairScores(column("the cat sat", "thecatran"), column("the cat ran"))
    chain = two_tier_chain()
    held = scores.decide(0, 0, chain)
    contest = scores.decide(1, 0, chain)
    assert held.comparator.kind == "token_overlap" and held.score == pytest.approx(2 / 3)
    assert contest.comparator.kind == "matching_blocks_ratio" and contest.score == 0.9
    assert not lookahead_resolve(0, 0, held.score, chain, depth=1, scores=scores)


def test_select_candidate_empty_pool():
    scores = PairScores(column("a"), column())
    assert select_candidate(0, [], 0.0, chain_of(), scores) is None


def test_disproportion_fills_attributed_in_source_order():
    lines = distinct_lines(5)
    src = corpus(*lines, language="src")
    tgt = corpus(lines[0], lines[2], lines[4], language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    assert result.counts() == {"A": 3, "T": 0, "D": 2, "L": 5}
    fills = [d for d in result.decisions if d.outcome == FILLED]
    assert [d.source_index for d in fills] == [1, 3]
    # the fill text is the line's own translation
    assert fills[0].text == lines[1]


def test_fills_beyond_quota_count_as_translated():
    lines = distinct_lines(4)
    src = corpus(*lines, language="src")
    # equal lengths, but two targets are garbage: quota is 0, so both
    # unmatched lines are plain Translated
    tgt = corpus(lines[0], "zzz yyy xxx", "qqq ppp ooo", lines[3], language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    assert result.counts() == {"A": 2, "T": 2, "D": 0, "L": 4}
    outcomes = [d.outcome for d in result.decisions]
    assert outcomes == [ALIGNED, TRANSLATED, TRANSLATED, ALIGNED]
    assert set(result.unmatched_target_indices) == {1, 2}


def test_first_gap_unmatched_lines_fill_and_the_rest_translate():
    # 5 source lines, 4 targets: the gap is 1 and three lines go unmatched,
    # so the first of them is a fill and the other two are Translated
    lines = distinct_lines(5)
    src = corpus(*lines, language="src")
    tgt = corpus(lines[0], "zzz yyy xxx", "qqq ppp ooo", lines[4], language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    outcomes = [d.outcome for d in result.decisions]
    assert outcomes == [ALIGNED, FILLED, TRANSLATED, TRANSLATED, ALIGNED]
    assert result.counts() == {"A": 2, "T": 2, "D": 1, "L": 5}
    assert [d.text for d in result.decisions[1:4]] == lines[1:4]


def test_target_longer_than_source_fills_up_to_the_gap():
    # 3 source lines, 4 targets: the gap is 1, so of the two unmatched
    # source lines only the first is a fill
    lines = distinct_lines(3)
    src = corpus(*lines, language="src")
    tgt = corpus(lines[0], "zzz yyy xxx", "qqq ppp ooo", "rrr sss ttt", language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    outcomes = [d.outcome for d in result.decisions]
    assert outcomes == [ALIGNED, FILLED, TRANSLATED]
    assert result.counts() == {"A": 1, "T": 1, "D": 1, "L": 3}
    assert result.unmatched_target_indices == (1, 2, 3)


def test_trans_length_mismatch_rejected():
    src = corpus("a", "b")
    with pytest.raises(DataError):
        align(src, corpus("a"), corpus("a"), config_of())


def test_empty_source_is_empty_result(tmp_path):
    result = align(corpus(), corpus("orphan"), corpus(), config_of())
    assert result.counts()["L"] == 0
    assert result.decisions == ()
    assert report_bytes(result, corpus(), tmp_path)[:2] == (b"", b"")
    assert result.unmatched_target_indices == (0,)


def test_window_zero_scans_everything():
    lines = distinct_lines(30)
    src = corpus(*lines[:1], language="src")
    # the only match sits far beyond any small window
    tgt = corpus(*(["xx yy zz"] * 29 + [lines[0]]), language="tgt")
    narrow = align(src, tgt, src, config_of(threshold=1.0, window=5))
    assert narrow.decisions[0].outcome != ALIGNED
    full = align(src, tgt, src, config_of(threshold=1.0, window=0))
    assert full.decisions[0].outcome == ALIGNED
    assert full.decisions[0].target_index == 29
    # and the last of many source lines still reaches the first target
    src = corpus(*lines, language="src")
    tgt = corpus(lines[29], *(["xx yy zz"] * 9), language="tgt")
    full = align(src, tgt, src, config_of(threshold=1.0, window=0))
    assert full.decisions[29].outcome == ALIGNED
    assert full.decisions[29].target_index == 0


def test_config_rejects_negative_values():
    with pytest.raises(ConfigError):
        AlignmentConfig(chain=chain_of(), window=-1)
    with pytest.raises(ConfigError):
        AlignmentConfig(chain=chain_of(), lookahead_depth=-2)


@pytest.mark.parametrize(
    "settings",
    [{"cap": 0}, {"window": True}, {"window": 2.9}, {"lookahead_depth": None}],
)
def test_config_rejects_bools_non_integers_and_a_zero_cap(settings):
    with pytest.raises(ConfigError):
        AlignmentConfig(chain=chain_of(), **settings)


def test_zero_line_loss_over_random_corpora(tmp_path):
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randrange(1, 60)
        lines = distinct_lines(n)
        src = corpus(*lines, language="src")
        kept = [line for line in lines if rng.random() > 0.15]
        rng.shuffle(kept)
        tgt = Corpus("tgt", kept or ["placeholder"])
        cfg = config_of(
            threshold=1.0,
            window=rng.choice([0, 5, 20]),
            lookahead=rng.randrange(0, 3),
        )
        result = align(src, tgt, src, cfg)
        counts = result.counts()
        assert counts["L"] == n
        out_s, out_t, _ = report_bytes(result, src, tmp_path)
        assert len(out_t.decode("utf-8").splitlines()) == n
        assert out_s.decode("utf-8").splitlines() == lines
        aligned_targets = [
            d.target_index for d in result.decisions if d.outcome == ALIGNED
        ]
        assert len(aligned_targets) == len(set(aligned_targets))
        assert counts["A"] + counts["T"] + counts["D"] == n


def test_permutation_recovery_within_window():
    rng = random.Random(31)
    lines = distinct_lines(100)
    shuffled = list(lines)
    # shuffle within blocks of 10 so nothing moves further than the window
    for start in range(0, 100, 10):
        block = shuffled[start : start + 10]
        rng.shuffle(block)
        shuffled[start : start + 10] = block
    src = corpus(*lines, language="src")
    tgt = Corpus("tgt", shuffled)
    result = align(src, tgt, src, config_of(threshold=1.0, window=20))
    assert result.counts()["A"] == 100
    for decision, line in zip(result.decisions, lines):
        assert decision.text == line


def test_alignment_is_deterministic(tmp_path):
    rng = random.Random(7)
    lines = distinct_lines(40)
    shuffled = list(lines)
    rng.shuffle(shuffled)
    src = corpus(*lines, language="src")
    tgt = Corpus("tgt", shuffled[:35])

    outputs = []
    for run in range(2):
        result = align(src, tgt, src, config_of(threshold=1.0, window=0))
        paths = [tmp_path / f"{run}-{name}" for name in ("s.txt", "t.txt", "r.jsonl")]
        write_alignment(result, src, *paths)
        outputs.append(tuple(p.read_bytes() for p in paths))
    assert outputs[0] == outputs[1]


def test_report_schema_and_round_trip(tmp_path):
    lines = distinct_lines(5)
    src = corpus(*lines, language="src")
    tgt = corpus(lines[0], lines[2], lines[4], language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    out_s, out_t, report = (tmp_path / n for n in ("s.txt", "t.txt", "r.jsonl"))
    write_alignment(result, src, out_s, out_t, report)

    assert out_s.read_text(encoding="utf-8").splitlines() == lines
    raw = report.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in raw]
    trailer = records[-1]
    assert trailer == {"A": 3, "T": 0, "D": 2, "L": 5, "unmatched_targets": []}
    body = records[:-1]
    assert [r["source_index"] for r in body] == list(range(5))
    for r in body:
        assert r["outcome"] in (ALIGNED, TRANSLATED, FILLED)
        assert "text" in r
        if r["outcome"] == ALIGNED:
            assert {"target_index", "score", "comparator"} <= r.keys()
        else:
            assert "target_index" not in r

    loaded = read_report(report)
    assert loaded.counts() == result.counts()
    assert [d.outcome for d in loaded.decisions] == [
        d.outcome for d in result.decisions
    ]
    assert [d.text for d in loaded.decisions] == [d.text for d in result.decisions]


def test_write_empty_result(tmp_path):
    result = align(corpus(), corpus(), corpus(), config_of())
    out_s, out_t, report = (tmp_path / n for n in ("s.txt", "t.txt", "r.jsonl"))
    write_alignment(result, corpus(), out_s, out_t, report)
    assert out_s.read_bytes() == b""
    assert out_t.read_bytes() == b""
    trailer = json.loads(report.read_text(encoding="utf-8").splitlines()[-1])
    assert trailer["A"] == trailer["T"] == trailer["D"] == trailer["L"] == 0


KILLED_WRITER = """
import os, signal, sys
from transalign.align import TRANSLATED, AlignmentDecision, AlignmentResult, write_alignment

class Source:  # kills its process before its last line
    def __len__(self):
        return 20000

    def __iter__(self):
        for i in range(19999):
            yield f"line {i} " * 5
        os.kill(os.getpid(), signal.SIGKILL)

decisions = tuple(AlignmentDecision(i, TRANSLATED, "x") for i in range(20000))
write_alignment(AlignmentResult(decisions, ()), Source(), *sys.argv[1:])
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL")
def test_a_writer_killed_mid_file_leaves_the_old_files(tmp_path):
    # Killed while it streams its first output, the child leaves every
    # output as it was; its temp file may stay, as nothing can remove it.
    outputs = [tmp_path / name for name in ("s.txt", "t.txt", "r.jsonl")]
    for path in outputs:
        path.write_bytes(b"old\n")
    repo = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WRITER, *map(str, outputs)],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, timeout=60,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert [path.read_bytes() for path in outputs] == [b"old\n"] * 3
    left = {path.name for path in tmp_path.iterdir()} - {path.name for path in outputs}
    assert all(name.startswith("s.txt.") and name.endswith(".tmp") for name in left), left


def test_read_report_reads_by_the_corpus_line_rules(tmp_path):
    src = corpus("a b", "c d", language="src")
    result = align(src, src, src, config_of(threshold=1.0))
    report = report_bytes(result, src, tmp_path)[2]
    (tmp_path / "bom").write_bytes(b"\xef\xbb\xbf" + report.replace(b"\n", b"\r\n"))
    assert read_report(tmp_path / "bom") == result
    with pytest.raises(DataError, match=f"^cannot read report file {re.escape(str(tmp_path))}: "):
        read_report(tmp_path)  # a directory


def test_fixture_report_round_trip_rewrites_every_file(tmp_path):
    # A result read back from its report writes the same three files.
    src = load_corpus(FIXTURES / "parallel_1005.src", "src")
    tgt = load_corpus(FIXTURES / "parallel_1005.tgt", "tgt")
    result = align(src, tgt, src, AlignmentConfig(chain=chain_of(0.85), window=20))
    (tmp_path / "first").mkdir()
    (tmp_path / "again").mkdir()
    written = report_bytes(result, src, tmp_path / "first")
    loaded = read_report(tmp_path / "first" / "r")
    assert loaded == result
    assert report_bytes(loaded, src, tmp_path / "again") == written
    assert len(written[1].decode("utf-8").splitlines()) == 1005


def test_report_lines_equal_the_encoder_oracle_and_read_back(tmp_path):
    # Texts with quotes, backslashes, control characters, line and
    # paragraph separators and characters beyond the BMP, and scores whose
    # shortest repr is long or subnormal.
    texts = [
        'say "hi"',
        "back\\slash \\u0041",
        "nul\x00 bell\x07 esc\x1b del\x7f nel\x85 tab\t",
        "line\u2028sep\u2029para",
        "\U0001f600 \U00010348 \ud7ff\ue000 \ufeff",
        "zażółć 中文 \u00e9",
        "",
    ]
    scores = [0.0, 1.0, 1 / 3, 0.1 + 0.2, 5e-324, 1, 0.85]
    rng = random.Random(21)
    decisions = []
    for i in range(42):
        text = texts[i % len(texts)]
        if i % 3 == 0:
            score, kind = scores[i // 3 % len(scores)], ("token_overlap", "synonym_ratio")[i % 2]
            decisions.append(AlignmentDecision(i, ALIGNED, text, 100 - i, score, kind))
        else:
            decisions.append(AlignmentDecision(i, (TRANSLATED, FILLED)[rng.randrange(2)], text))
    result = AlignmentResult(tuple(decisions), (7, 0, 3))
    source = Corpus("src", [f"{text} {i}" for i, text in enumerate(texts * 6)])
    written = report_bytes(result, source, tmp_path)
    expected = "".join(report_lines_oracle(result.decisions, result.unmatched_target_indices))
    assert written[2] == expected.encode("utf-8")
    assert read_report(tmp_path / "r") == result


def test_report_fields_of_other_types_are_written_as_the_encoder_writes_them(tmp_path):
    # A library caller's result may hold a non-finite score, an int score,
    # a bool index or str subclasses; each record is then the encoder's.
    class Text(str):
        pass

    decisions = (
        AlignmentDecision(0, ALIGNED, "a", 1, float("nan"), "token_overlap"),
        AlignmentDecision(1, ALIGNED, "b", 2, float("-inf"), "token_overlap"),
        AlignmentDecision(True, TRANSLATED, "c"),
        AlignmentDecision(3, ALIGNED, Text('d "\u00e9"'), 4, 0.5, Text("x")),
        AlignmentDecision(4, ALIGNED, "e", False, 1, "x"),
        AlignmentDecision(5, Text(FILLED), "f"),
    )
    result = AlignmentResult(decisions, (0,))
    written = report_bytes(result, Corpus("src", "abcdef"), tmp_path)
    expected = "".join(report_lines_oracle(result.decisions, result.unmatched_target_indices))
    assert written[2] == expected.encode("utf-8")


def test_write_alignment_refuses_a_source_of_another_length(tmp_path):
    result = align(corpus("a b"), corpus("a b"), corpus("a b"), config_of())
    with pytest.raises(DataError):
        report_bytes(result, corpus("a b", "c d"), tmp_path)


def test_counts_refuse_an_unknown_outcome():
    result = AlignmentResult((AlignmentDecision(0, "lost", "x"),))
    with pytest.raises(DataError, match="lost"):
        result.counts()


def test_align_rejects_a_table_over_other_inputs():
    src = corpus("a b", language="src")
    tgt = corpus("a b", language="tgt")
    config = config_of()
    with pytest.raises(ConfigError):
        align(src, tgt, src, config, PairScores(src.normalized, column("a b"), config.context()))
    with pytest.raises(ConfigError):
        align(src, tgt, src, config, PairScores(src.normalized, tgt.normalized, ChainContext(cap=3)))


def drift_corpora(seed):
    """Source, translation and target corpora plus stop words and lexicon:
    shuffled targets, a few dropped lines, translations with synonym swaps
    and dropped words."""
    letters = "abcdefgh"
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice(letters) for _ in range(rng.randrange(2, 5)))

    vocab = [word() for _ in range(30)]
    stop = vocab[:4]
    base = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(3, 8))) for _ in range(40)]
    entries = {}
    trans_lines = []
    for line in base:
        tokens = line.split()
        if rng.random() < 0.4:
            position = rng.randrange(len(tokens))
            alternative = word()
            entries.setdefault(alternative, (tokens[position],))
            tokens[position] = alternative
        if rng.random() < 0.3:
            del tokens[rng.randrange(len(tokens))]
        trans_lines.append(" ".join(tokens) or "x")
    kept = [line for line in base if rng.random() > 0.1]
    src = Corpus("src", [f"zrodlo {i}" for i in range(40)])
    trans = Corpus("y", trans_lines)
    tgt = Corpus("tgt", window_shuffled(kept, rng))
    extras = dict(stopwords=frozenset(stop), lexicon=entries)
    return src, trans, tgt, extras


def three_tier_chain(t1, t2, t3):
    return ComparatorChain(
        (
            Comparator("token_overlap", t1),
            Comparator("matching_blocks_ratio", t2),
            Comparator("synonym_ratio", t3),
        )
    )


def report_bytes(result, source, tmp_path):
    paths = [tmp_path / name for name in ("s", "t", "r")]
    write_alignment(result, source, *paths)
    return tuple(path.read_bytes() for path in paths)


def test_warm_pair_table_gives_identical_reports(tmp_path):
    # A table filled by runs at other thresholds must not change any
    # decision: the report bytes equal those of a run on a fresh table.
    for seed in range(2):
        src, trans, tgt, extras = drift_corpora(seed)
        for window in (0, 3, 20):
            for lookahead in (0, 1, 2):
                def config(c):
                    return AlignmentConfig(
                        chain=c, window=window, lookahead_depth=lookahead, **extras
                    )

                target_config = config(three_tier_chain(0.99, 0.8, 0.85))
                warm = PairScores(trans.normalized, tgt.normalized, target_config.context())
                for other in (three_tier_chain(0.6, 0.95, 0.99), three_tier_chain(1.0, 0.7, 0.7)):
                    align(src, tgt, trans, config(other), warm)
                reports = []
                for scores in (None, warm):
                    result = align(src, tgt, trans, target_config, scores)
                    reports.append(report_bytes(result, src, tmp_path))
                assert reports[0] == reports[1], (seed, window, lookahead)


def test_bound_pruning_changes_no_report(tmp_path, monkeypatch):
    # The same runs with every cut before the block kernel turned off give
    # the same bytes: a character count and an LCS longer than any text
    # clear the count bound and the LCS bound, the only two there are.
    chains = [
        three_tier_chain(0.99, 0.8, 0.85),
        three_tier_chain(1.0, 0.0, 1.0),
        three_tier_chain(0.5, 1.0, 0.6),
    ]
    kernel_calls = Counter()
    real_ratio = sim.ratio

    def counting_ratio(a, b):
        kernel_calls[run] += 1
        return real_ratio(a, b)

    monkeypatch.setattr(sim, "ratio", counting_ratio)
    for seed in range(2):
        src, trans, tgt, extras = drift_corpora(seed)
        for window in (0, 3, 20):
            for lookahead in (0, 1, 2):
                for chain in chains:
                    config = AlignmentConfig(
                        chain=chain, window=window, lookahead_depth=lookahead, **extras
                    )
                    run = "pruned"
                    pruned = report_bytes(align(src, tgt, trans, config), src, tmp_path)
                    run = "unpruned"
                    with monkeypatch.context() as patch:
                        patch.setattr(sim, "common_chars", lambda *args: 10**9)
                        patch.setattr(sim, "lcs_length", lambda *args: 10**9)
                        unpruned = report_bytes(align(src, tgt, trans, config), src, tmp_path)
                    assert pruned == unpruned, (seed, window, lookahead, chain)
    assert kernel_calls["unpruned"] > 2 * kernel_calls["pruned"] > 0


def test_ratio_tiers_equal_the_kernel_on_every_drift_pair():
    # The reference runs the kernel on every text of every pair. A fresh
    # table per threshold keeps every cut in play. ``length_cut`` counts the
    # pairs a length bound min(|a|, |b|) would cut: the character count is
    # at most that, so the count bound cuts each of them too.
    length_cut = left_out = 0
    for seed in range(2):
        _, trans, tgt, extras = drift_corpora(seed)
        context = ChainContext(**extras)
        for kind in ("matching_blocks_ratio", "synonym_ratio"):
            exact = {}
            for i, a in enumerate(trans.normalized):
                texts = [a]
                if kind == "synonym_ratio":
                    variants = expand_sentence(tokenize(a), context.lexicon, context.cap)
                    texts += [" ".join(variant) for variant in variants]
                for j, b in enumerate(tgt.normalized):
                    exact[i, j] = max(sim.ratio(text, b) for text in texts)
            scores = PairScores(trans.normalized, tgt.normalized, context)
            assert {key: scores.score(*key, kind) for key in exact} == exact
            for threshold in (0.3, 0.6, 0.85, 1.0):
                comparator = Comparator(kind, threshold)
                chain = ComparatorChain((comparator,))
                scores = PairScores(trans.normalized, tgt.normalized, context)
                for i, a in enumerate(trans.normalized):
                    pool = range(len(tgt))
                    found = [(j, exact[i, j], comparator) for j in pool if exact[i, j] >= threshold]
                    hits = scores.accepted(i, pool, chain)
                    left_out += check_pool_hits(hits, found, comparator)
                    expected = i * len(tgt) / len(trans)
                    pick = pick_oracle(found, expected)
                    chosen = select_candidate(i, list(pool), expected, chain, scores)
                    assert chosen == (pick and (pick[0], ChainDecision(True, *pick[1:]))), (
                        seed, kind, threshold, i,
                    )
                    n = len(a)
                    length_cut += sum(
                        2 * min(n, len(b)) < threshold * (n + len(b)) for b in tgt.normalized
                    )
    assert length_cut > 100 and left_out > 100, (length_cut, left_out)


def test_fixture_ratio_runs_only_where_the_bound_reaches_the_threshold(monkeypatch):
    checked = []
    real_ratio = sim.ratio

    def checking_ratio(a, b):
        checked.append(char_count_bound(a, b) >= 0.85)
        return real_ratio(a, b)

    monkeypatch.setattr(sim, "ratio", checking_ratio)
    src = load_corpus(FIXTURES / "parallel_1005.src", "src")
    tgt = load_corpus(FIXTURES / "parallel_1005.tgt", "tgt")
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.99), Comparator("matching_blocks_ratio", 0.85))
    )
    result = align(src, tgt, src, AlignmentConfig(chain=chain, window=20))
    assert result.counts()["L"] == 1005
    assert checked and all(checked)


def window_shuffled(lines, rng, width=10):
    out = []
    for start in range(0, len(lines), width):
        block = list(lines[start : start + width])
        rng.shuffle(block)
        out.extend(block)
    return out


def differential_corpora(seed):
    """Translation and target lines over a 2-4 letter alphabet: targets
    that copy, replace or drop translation lines, duplicates, lines that
    are empty or tokenless after normalizing, stray capitals and spaces,
    and unequal corpus lengths."""
    rng = random.Random(seed)
    letters = "abcd"[: 2 + seed % 3]

    def line():
        if rng.random() < 0.1:
            return rng.choice([" ", "\t", "!!", " ' "])
        words = [
            "".join(rng.choices(letters, k=rng.randint(1, 3))) for _ in range(rng.randint(1, 4))
        ]
        text = ("  " if rng.random() < 0.2 else " ").join(words)
        return text.upper() if rng.random() < 0.1 else text

    trans = [line() for _ in range(rng.randint(12, 30))]
    extra = (0.15, 1.5)[seed % 4 == 3]  # lines added per translation line
    target = []
    for text in trans:
        draw = rng.random()
        if draw > 0.15:
            target.append(text if draw < 0.7 else line())
        while rng.random() < extra / (1 + extra):
            target.append(rng.choice(trans) if rng.random() < 0.5 else line())
    return trans, target


def test_align_equals_the_oracle_on_random_corpora():
    # The oracle rescans every unconsumed target and recomputes every score
    # from scratch; the aligner slides a window over a pair-score table.
    configs = 0
    for seed in range(8):
        trans, target = differential_corpora(seed)
        stopwords = frozenset({"a"} if seed % 2 else ())
        token, ratio_threshold = (0.5, 0.67, 0.8)[seed % 3], (0.5, 0.7)[seed % 2]
        source = corpus(*(f"zrodlo {i}" for i in range(len(trans))), language="src")
        for tiers in (
            (("token_overlap", token),),
            (("token_overlap", token), ("matching_blocks_ratio", ratio_threshold)),
        ):
            chain = ComparatorChain(tuple(Comparator(*tier) for tier in tiers))
            for window in (0, 1, 3, 20):
                for depth in (0, 1, 2):
                    config = AlignmentConfig(chain, window, depth, stopwords=stopwords)
                    result = align(source, Corpus("tgt", target), Corpus("y", trans), config)
                    decisions, unmatched = align_oracle(
                        len(trans), target, trans, tiers, window, depth, stopwords
                    )
                    got = [
                        (d.outcome, d.target_index, d.score, d.comparator)
                        for d in result.decisions
                    ]
                    assert got == decisions, (seed, tiers, window, depth)
                    assert list(result.unmatched_target_indices) == unmatched
                    configs += 1
    assert configs == 8 * 2 * 4 * 3


def table_entries(scores):
    """Per-line entries the table holds: (translation side, target side),
    the largest column of each."""
    return tuple(max(map(len, columns)) for columns in scores._columns)


def test_align_holds_only_the_window_of_its_own_table(monkeypatch, tmp_path):
    # While line i is decided, the table holds translation lines i..i+depth
    # and targets from the smallest one the window can still offer up to the
    # last that entered it: at most 2 * window + 2 when the corpora have
    # equal lengths. That holds for every column, the character masks and
    # synonym variants of the three-tier chain included, and for the lines
    # that corpora read from their files hold.
    depth = 1

    class SpyScores(PairScores):
        def accepted(self, i, pool, chain):
            found = super().accepted(i, pool, chain)
            peaks.append(table_entries(self))
            masks.append((len(self._trans_chars), len(self._variants), len(self._target_chars)))
            assert set(trans.normalized.raw) <= set(range(i - depth, i + depth + 1))
            held.append((len(trans.normalized.raw), len(target.normalized.raw)))
            return found

    rng = random.Random(2000)
    words = ["ab", "cd", "ef", "gh", "ij", "kl"]
    lines = [" ".join(rng.choices(words, k=4)) for _ in range(2000)]
    for window in (20, 3):
        peaks, masks, held = [], [], []
        files = {
            "tgt": window_shuffled(lines, rng, width=min(window, 10)),
            "y": [line.replace("ab", "ba") for line in lines],
        }
        for name, corpus_lines in files.items():
            (tmp_path / name).write_text("".join(line + "\n" for line in corpus_lines), encoding="utf-8")
        target, trans = (CorpusFile(tmp_path / name, name) for name in files)
        chain = three_tier_chain(0.99, 0.8, 0.8)
        config = AlignmentConfig(chain, window, depth, lexicon={"ba": ("ab", "b a"), "cd": ("dc",)})
        monkeypatch.setattr(sys.modules["transalign.align"], "PairScores", SpyScores)
        result = align(CorpusFile(tmp_path / "y", "y"), target, trans, config)
        assert result.counts()["A"] > 1000
        trans_peak, target_peak = map(max, zip(*peaks))
        assert trans_peak <= depth + 1
        assert window < target_peak <= 2 * window + 2
        trans_masks, variants, target_masks = map(max, zip(*masks))
        assert 0 < trans_masks <= depth + 1 and 0 < variants <= depth + 1
        assert window < target_masks <= 2 * window + 2
        trans_held, target_held = map(max, zip(*held))
        assert 0 < trans_held <= depth + 1
        assert window < target_held <= 2 * window + 2, window
        monkeypatch.undo()
        assert result == align(*(Corpus(n, files[n]) for n in ("y", "tgt", "y")), config)


def test_a_table_passed_in_keeps_every_entry(monkeypatch):
    src, trans, tgt, extras = drift_corpora(3)
    config = AlignmentConfig(three_tier_chain(0.99, 0.6, 0.6), window=3, **extras)
    scores = PairScores(trans.normalized, tgt.normalized, config.context())
    lcs_calls = Counter()
    real_lcs = sim.lcs_length

    def counting_lcs(*args):
        lcs_calls[run] += 1
        return real_lcs(*args)

    monkeypatch.setattr(sim, "lcs_length", counting_lcs)
    run = "first"
    first = align(src, tgt, trans, config, scores)
    held = [list(map(len, columns)) for columns in scores._columns]
    assert held[0][0] == len(trans)
    run = "second"
    assert align(src, tgt, trans, config, scores) == first
    assert lcs_calls["first"] > 0 and lcs_calls["second"] == 0
    assert [list(map(len, columns)) for columns in scores._columns] == held


def test_forgotten_entries_are_rebuilt_with_equal_scores():
    _, trans, tgt, extras = drift_corpora(4)
    context = ChainContext(**extras)
    kinds = ("token_overlap", "matching_blocks_ratio", "synonym_ratio")
    pairs = [(i, j) for i in range(len(trans)) for j in range(len(tgt))]
    scores = PairScores(trans.normalized, tgt.normalized, context)
    before = {(i, j, kind): scores.score(i, j, kind) for i, j in pairs for kind in kinds}
    scores.forget(10, 5)
    scores.forget(3, 2)  # below the last bounds: drops nothing
    assert all(i not in column for column in scores._columns[0] for i in range(10))
    assert all(j not in column for column in scores._columns[1] for j in range(5))
    assert all(10 in column for column in scores._columns[0])
    scores.forget(len(trans), len(tgt))
    assert table_entries(scores) == (0, 0)
    assert {(i, j, kind): scores.score(i, j, kind) for i, j in pairs for kind in kinds} == before
