import json
import random

import pytest

from transalign.align import (
    ALIGNED,
    FILLED,
    TRANSLATED,
    AlignmentConfig,
    align,
    lookahead_resolve,
    read_report,
    select_candidate,
    write_alignment,
)
from transalign.corpus import Corpus, Sentence
from transalign.errors import ConfigError, DataError
from transalign.lexicon import StopWordList, SynonymLexicon
from transalign.similarity import ChainContext, Comparator, ComparatorChain, PairScores


def corpus(*lines, language="x"):
    return Corpus.from_lines(lines, language)


def chain_of(threshold=0.99, kind="matching_blocks_ratio"):
    return ComparatorChain((Comparator(kind, threshold),))


def config_of(threshold=0.99, window=0, lookahead=1, **kw):
    return AlignmentConfig(
        chain=chain_of(threshold), window=window, lookahead_depth=lookahead, **kw
    )


def distinct_lines(n):
    # pairwise dissimilar sentences so exact-threshold matching is unambiguous
    return [f"w{i} k{i * 7 % 101} q{i * 13 % 89} end{i}" for i in range(n)]


def test_identity_corpus_aligns_every_line():
    lines = distinct_lines(8)
    src = corpus(*lines, language="src")
    tgt = corpus(*lines, language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    assert result.aligned_count == result.total == 8
    assert result.translated_count == result.disproportion_count == 0
    assert [d.target_index for d in result.decisions] == list(range(8))
    assert result.output_pairs == tuple((line, line) for line in lines)
    assert result.unmatched_target_indices == ()


LOOKAHEAD_TRANS = ["I go to school every day.", "I don't go to school every day."]
LOOKAHEAD_TARGET = [
    "I like going to school every day.",
    "I do not go to school every day.",
    "We will go tomorrow.",
]


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
    candidate = Sentence(0, "same line")
    keep = lookahead_resolve(
        0, candidate, trans, chain_of(0.5), depth=1, context=ChainContext()
    )
    assert keep  # equal later score must not steal the candidate


def test_lookahead_depth_zero_always_keeps():
    trans = corpus("weak match", "weak match exact", language="en")
    candidate = Sentence(0, "weak match exact")
    assert lookahead_resolve(
        0, candidate, trans, chain_of(0.5), depth=0, context=ChainContext()
    )


def test_select_candidate_tie_breaks_by_distance_then_index():
    trans_line = Sentence(0, "alpha beta")
    pool = [Sentence(i, "alpha beta") for i in (9, 4)]
    picked, decision = select_candidate(
        trans_line, pool, 5.0, chain_of(0.9), ChainContext()
    )
    assert picked.index == 4
    assert decision.score == 1.0

    pool = [Sentence(6, "alpha beta"), Sentence(4, "alpha beta")]
    picked, _ = select_candidate(trans_line, pool, 5.0, chain_of(0.9), ChainContext())
    assert picked.index == 4  # equal distance, smaller index wins


def test_select_candidate_empty_pool():
    assert select_candidate(Sentence(0, "a"), [], 0.0, chain_of(), ChainContext()) is None


def test_disproportion_fills_attributed_in_source_order():
    lines = distinct_lines(5)
    src = corpus(*lines, language="src")
    tgt = corpus(lines[0], lines[2], lines[4], language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    assert result.aligned_count == 3
    assert result.disproportion_count == 2
    assert result.translated_count == 0
    assert result.total == 5
    fills = [d for d in result.decisions if d.outcome == FILLED]
    assert [d.source_index for d in fills] == [1, 3]
    assert all(d.disproportion for d in fills)
    # the fill text is the line's own translation
    assert fills[0].text == lines[1]


def test_fills_beyond_quota_count_as_translated():
    lines = distinct_lines(4)
    src = corpus(*lines, language="src")
    # equal lengths, but two targets are garbage: quota is 0, so both
    # unmatched lines are plain Translated
    tgt = corpus(lines[0], "zzz yyy xxx", "qqq ppp ooo", lines[3], language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    assert result.aligned_count == 2
    assert result.translated_count == 2
    assert result.disproportion_count == 0
    outcomes = [d.outcome for d in result.decisions]
    assert outcomes == [ALIGNED, TRANSLATED, TRANSLATED, ALIGNED]
    assert set(result.unmatched_target_indices) == {1, 2}


def test_trans_length_mismatch_rejected():
    src = corpus("a", "b")
    with pytest.raises(DataError):
        align(src, corpus("a"), corpus("a"), config_of())


def test_empty_source_is_empty_result():
    result = align(corpus(), corpus("orphan"), corpus(), config_of())
    assert result.total == 0
    assert result.decisions == ()
    assert result.output_pairs == ()
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


def test_config_rejects_negative_values():
    with pytest.raises(DataError):
        AlignmentConfig(chain=chain_of(), window=-1)
    with pytest.raises(DataError):
        AlignmentConfig(chain=chain_of(), lookahead_depth=-2)


def test_zero_line_loss_over_random_corpora():
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randrange(1, 60)
        lines = distinct_lines(n)
        src = corpus(*lines, language="src")
        kept = [line for line in lines if rng.random() > 0.15]
        rng.shuffle(kept)
        tgt = Corpus.from_lines(kept or ["placeholder"], "tgt")
        cfg = config_of(
            threshold=1.0,
            window=rng.choice([0, 5, 20]),
            lookahead=rng.randrange(0, 3),
        )
        result = align(src, tgt, src, cfg)
        assert result.total == n
        assert len(result.output_pairs) == n
        assert [pair[0] for pair in result.output_pairs] == lines
        aligned_targets = [
            d.target_index for d in result.decisions if d.outcome == ALIGNED
        ]
        assert len(aligned_targets) == len(set(aligned_targets))
        counted = (
            result.aligned_count
            + result.translated_count
            + result.disproportion_count
        )
        assert counted == n


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
    tgt = Corpus.from_lines(shuffled, "tgt")
    result = align(src, tgt, src, config_of(threshold=1.0, window=20))
    assert result.aligned_count == 100
    for decision, line in zip(result.decisions, lines):
        assert decision.text == line


def test_alignment_is_deterministic(tmp_path):
    rng = random.Random(7)
    lines = distinct_lines(40)
    shuffled = list(lines)
    rng.shuffle(shuffled)
    src = corpus(*lines, language="src")
    tgt = Corpus.from_lines(shuffled[:35], "tgt")

    outputs = []
    for run in range(2):
        result = align(src, tgt, src, config_of(threshold=1.0, window=0))
        paths = [tmp_path / f"{run}-{name}" for name in ("s.txt", "t.txt", "r.jsonl")]
        write_alignment(result, *paths)
        outputs.append(tuple(p.read_bytes() for p in paths))
    assert outputs[0] == outputs[1]


def test_report_schema_and_round_trip(tmp_path):
    lines = distinct_lines(5)
    src = corpus(*lines, language="src")
    tgt = corpus(lines[0], lines[2], lines[4], language="tgt")
    result = align(src, tgt, src, config_of(threshold=1.0))
    out_s, out_t, report = (tmp_path / n for n in ("s.txt", "t.txt", "r.jsonl"))
    write_alignment(result, out_s, out_t, report)

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
    assert loaded.aligned_count == result.aligned_count
    assert loaded.translated_count == result.translated_count
    assert loaded.disproportion_count == result.disproportion_count
    assert loaded.total == result.total
    assert [d.outcome for d in loaded.decisions] == [
        d.outcome for d in result.decisions
    ]
    assert [d.text for d in loaded.decisions] == [d.text for d in result.decisions]


def test_write_empty_result(tmp_path):
    result = align(corpus(), corpus(), corpus(), config_of())
    out_s, out_t, report = (tmp_path / n for n in ("s.txt", "t.txt", "r.jsonl"))
    write_alignment(result, out_s, out_t, report)
    assert out_s.read_bytes() == b""
    assert out_t.read_bytes() == b""
    trailer = json.loads(report.read_text(encoding="utf-8").splitlines()[-1])
    assert trailer["A"] == trailer["T"] == trailer["D"] == trailer["L"] == 0


def test_align_rejects_a_table_over_other_inputs():
    src = corpus("a b", language="src")
    tgt = corpus("a b", language="tgt")
    config = config_of()
    with pytest.raises(ConfigError):
        align(src, tgt, src, config, PairScores(src, corpus("a b"), config.context()))
    with pytest.raises(ConfigError):
        align(src, tgt, src, config, PairScores(src, tgt, ChainContext(cap=3)))


def test_warm_pair_table_gives_identical_reports(tmp_path):
    # A table filled by runs at other thresholds must not change any
    # decision: the report bytes equal those of a run on a fresh table.
    letters = "abcdefgh"
    for seed in range(2):
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
        src = Corpus.from_lines([f"zrodlo {i}" for i in range(40)], "src")
        trans = Corpus.from_lines(trans_lines, "y")
        tgt = Corpus.from_lines(window_shuffled(kept, rng), "tgt")
        extras = dict(stopwords=StopWordList(frozenset(stop)), lexicon=SynonymLexicon(entries))

        def chain(t1, t2, t3):
            return ComparatorChain(
                (
                    Comparator("token_overlap", t1),
                    Comparator("matching_blocks_ratio", t2),
                    Comparator("synonym_ratio", t3),
                )
            )

        for window in (0, 3, 20):
            for lookahead in (0, 1, 2):
                def config(c):
                    return AlignmentConfig(
                        chain=c, window=window, lookahead_depth=lookahead, **extras
                    )

                target_config = config(chain(0.99, 0.8, 0.85))
                warm = PairScores(trans, tgt, target_config.context())
                for other in (chain(0.6, 0.95, 0.99), chain(1.0, 0.7, 0.7)):
                    align(src, tgt, trans, config(other), warm)
                reports = []
                for scores in (None, warm):
                    result = align(src, tgt, trans, target_config, scores)
                    paths = [tmp_path / name for name in ("s", "t", "r")]
                    write_alignment(result, *paths)
                    reports.append(tuple(path.read_bytes() for path in paths))
                assert reports[0] == reports[1], (seed, window, lookahead)


def window_shuffled(lines, rng, width=10):
    out = []
    for start in range(0, len(lines), width):
        block = list(lines[start : start + width])
        rng.shuffle(block)
        out.extend(block)
    return out
