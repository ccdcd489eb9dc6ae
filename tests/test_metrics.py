import logging
import math
import random

import pytest

from oracles import (
    bleu_direct,
    levenshtein_matrix,
    ngram_stats_oracle,
    ngram_stats_sum,
    score_oracle,
    ter_greedy_oracle,
    ter_oracle_edits,
)
from transalign import metrics
from transalign.align import AlignmentDecision, AlignmentResult
from transalign.corpus import Corpus
from transalign.errors import ConfigError, DataError, GoldMismatchError
from transalign.metrics import (
    BP_PAPER,
    NgramStats,
    alignment_score,
    bleu,
    bleu_stats,
    brevity_penalty,
    cer,
    edit_distance,
    evaluate_against_gold,
    evaluate_corpus,
    precisions,
    ter,
    ter_edits,
)


def test_alignment_score_worked_fixtures():
    assert alignment_score(100, 0, 0, 0, 100) == 100
    assert alignment_score(90, 5, 5, 0, 100) == 91
    assert alignment_score(0, 0, 50, 0, 50) == 40
    assert alignment_score(9, 1, 0, 0, 10) == 88
    assert alignment_score(8, 0, 0, 2, 10) == 100


def test_alignment_score_matches_rational_oracle():
    rng = random.Random(13)
    for _ in range(10_000):
        total = rng.randrange(1, 2000)
        a = rng.randrange(0, total + 1)
        m = rng.randrange(0, total + 1)
        t = rng.randrange(0, total + 1)
        d = rng.randrange(0, total + 1)
        assert alignment_score(a, m, t, d, total) == score_oracle(a, m, t, d, total)


def test_alignment_score_rejects_bad_inputs():
    with pytest.raises(DataError):
        alignment_score(1, 0, 0, 0, 0)
    with pytest.raises(DataError):
        alignment_score(-1, 0, 0, 0, 10)


def test_alignment_score_out_of_range_warns_unclamped(caplog):
    with caplog.at_level(logging.WARNING):
        value = alignment_score(0, 10, 0, 0, 10)
    assert value == -20  # all misaligned goes below the nominal floor
    assert any("outside" in r.message for r in caplog.records)


def test_alignment_score_strictly_drops_when_a_becomes_m():
    base = alignment_score(50, 0, 10, 5, 80)
    worse = alignment_score(49, 1, 10, 5, 80)
    assert worse < base


def decision(i, outcome, text):
    return AlignmentDecision(i, outcome, text)


def result_from(decisions):
    return AlignmentResult(tuple(decisions))


def test_gold_perfect_run_scores_100():
    gold = [f"line {i}" for i in range(10)]
    res = result_from([decision(i, "aligned", gold[i]) for i in range(10)])
    card = evaluate_against_gold(res, gold)
    assert card.aligned == card.total == 10
    assert card.score == 100
    assert card.as_json_dict() == {"A": 10, "M": 0, "T": 0, "D": 0, "L": 10, "S": 100}


def test_gold_one_wrong_target_gives_88():
    gold = [f"line {i}" for i in range(10)]
    decisions = [decision(i, "aligned", gold[i]) for i in range(9)]
    decisions.append(decision(9, "aligned", "line 3"))  # real line, wrong slot
    card = evaluate_against_gold(result_from(decisions), gold)
    assert (card.aligned, card.misaligned) == (9, 1)
    assert card.score == 88


def test_gold_two_disproportion_fills_give_100():
    gold = [f"line {i}" for i in range(10)]
    decisions = [decision(i, "aligned", gold[i]) for i in range(8)]
    decisions += [
        decision(8, "filled", "trans 8"),
        decision(9, "filled", "trans 9"),
    ]
    card = evaluate_against_gold(result_from(decisions), gold)
    assert (card.aligned, card.disproportion) == (8, 2)
    assert card.score == 100


def test_gold_translated_lines_take_partial_credit():
    gold = ["a", "b"]
    decisions = [decision(0, "translated", "whatever"), decision(1, "translated", "x")]
    card = evaluate_against_gold(result_from(decisions), gold)
    assert card.translated == 2
    assert card.score == 40


def test_gold_comparison_is_normalized():
    res = result_from([decision(0, "aligned", "  The   CAT  ")])
    card = evaluate_against_gold(res, ["the cat"])
    assert card.aligned == 1


def test_gold_shorter_than_result_raises():
    res = result_from([decision(0, "aligned", "a"), decision(1, "aligned", "b")])
    with pytest.raises(GoldMismatchError):
        evaluate_against_gold(res, ["a"])


def test_gold_scoring_refuses_an_unknown_outcome():
    res = result_from([decision(0, "aligned", "a"), decision(1, "lost", "b")])
    with pytest.raises(DataError, match="lost"):
        evaluate_against_gold(res, ["a", "b"])


# -- BLEU --------------------------------------------------------------------


def test_bleu_identity_corpus_is_exactly_one():
    stats = [
        bleu_stats(tokens, tokens, max_order=4)
        for tokens in (["a", "b", "c"], ["d"], ["e", "f", "g", "h", "i"])
    ]
    assert bleu(NgramStats(*ngram_stats_sum(stats, 4))) == 1.0


def test_bleu_bigram_brevity_fixture():
    stats = bleu_stats(["a", "b", "c", "d"], ["a", "b", "c", "d", "e"], max_order=2)
    assert stats.matches == (4, 3)
    assert stats.totals == (4, 3)
    assert (stats.hyp_len, stats.ref_len) == (4, 5)
    assert bleu(stats) == pytest.approx(math.exp(-0.25), abs=1e-12)


def test_bleu_zero_precision_is_zero():
    stats = bleu_stats(["x", "y"], ["a", "b"], max_order=2)
    assert bleu(stats) == 0.0
    stats = bleu_stats(["a", "x"], ["a", "b"], max_order=2)
    assert bleu(stats) == 0.0  # bigram precision is 0/1


def test_bleu_stats_additive_over_random_splits():
    rng = random.Random(19)
    vocab = "abcdefg"
    for _ in range(100):
        pairs = []
        for _ in range(rng.randrange(2, 8)):
            hyp = [rng.choice(vocab) for _ in range(rng.randrange(1, 9))]
            ref = [rng.choice(vocab) for _ in range(rng.randrange(1, 9))]
            pairs.append((hyp, ref))
        stats = [bleu_stats(hyp, ref, max_order=3) for hyp, ref in pairs]
        whole = NgramStats(*ngram_stats_sum(stats, 3))
        cut = rng.randrange(1, len(pairs))
        left = ngram_stats_sum(stats[:cut], 3)
        right = ngram_stats_sum(stats[cut:], 3)
        assert ngram_stats_sum([left, right], 3) == whole
        assert bleu(whole) == pytest.approx(
            bleu_direct(pairs, max_order=3), abs=1e-12
        )


def test_bleu_invariant_under_pair_reordering():
    rng = random.Random(23)
    pairs = [
        ([rng.choice("abcd") for _ in range(rng.randrange(1, 7))],
         [rng.choice("abcd") for _ in range(rng.randrange(1, 7))])
        for _ in range(12)
    ]
    def total(ps):
        stats = [bleu_stats(hyp, ref, max_order=2) for hyp, ref in ps]
        return bleu(NgramStats(*ngram_stats_sum(stats, 2)))
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert total(pairs) == total(shuffled)


def test_bleu_empty_hypothesis_corpus_errors():
    with pytest.raises(DataError):
        bleu(NgramStats(*ngram_stats_sum([], 4)))


def test_bleu_without_orders_errors():
    with pytest.raises(DataError):
        bleu(NgramStats((), (), 1, 1))


def test_precisions_per_order():
    stats = bleu_stats(["a", "b", "c", "d"], ["a", "b", "c", "d", "e"], max_order=2)
    assert precisions(stats) == [1.0, 1.0]


def test_bleu_clipping_caps_repeated_ngrams():
    # "a a a" vs "a": only one unigram match may count
    stats = bleu_stats(["a", "a", "a"], ["a"], max_order=1)
    assert stats.matches == (1,)
    assert stats.totals == (3,)


@pytest.mark.parametrize("max_order", range(1, 7))
def test_bleu_stats_matches_counter_oracle(max_order):
    # three words and up to 8 tokens: n-grams repeat on both sides, so
    # clipping decides the matches, and many hypotheses are shorter than
    # the order
    rng = random.Random(29 + max_order)
    for _ in range(200):
        hyp = [rng.choice("abc") for _ in range(rng.randrange(0, 9))]
        ref = [rng.choice("abc") for _ in range(rng.randrange(0, 9))]
        stats = bleu_stats(hyp, ref, max_order)
        assert (stats.matches, stats.totals) == ngram_stats_oracle(hyp, ref, max_order), (hyp, ref)
        assert (stats.hyp_len, stats.ref_len) == (len(hyp), len(ref))


# -- brevity penalty ----------------------------------------------------------


def test_brevity_penalty_forms():
    assert brevity_penalty(10, 5) == 1.0
    assert brevity_penalty(7, 7) == 1.0
    assert brevity_penalty(5, 10) == pytest.approx(math.exp(-1.0), abs=1e-15)
    # the literal typeset reading divides the whole (1 - r) by c
    assert brevity_penalty(4, 5, form=BP_PAPER) == pytest.approx(
        math.exp(-1.0), abs=1e-15
    )
    assert brevity_penalty(10, 5, form=BP_PAPER) == 1.0


def test_brevity_penalty_errors():
    with pytest.raises(DataError):
        brevity_penalty(0, 5)
    with pytest.raises(DataError):
        brevity_penalty(3, 5, form="nonsense")


def test_unknown_brevity_form_is_refused_for_a_longer_hypothesis():
    # No penalty applies to a hypothesis longer than its reference, but an
    # unknown form is still an error, not a silent 1.0.
    with pytest.raises(DataError):
        brevity_penalty(5, 3, form="bogus")
    stats = bleu_stats("a b c d e".split(), "a b c".split(), max_order=2)
    assert bleu(stats) == pytest.approx(0.5477, abs=1e-4)
    with pytest.raises(DataError):
        bleu(stats, "bogus")


# -- edit distance / TER / CER ------------------------------------------------


def test_edit_distance_matches_matrix_oracle():
    rng = random.Random(37)
    for _ in range(500):
        a = [rng.choice("abcd") for _ in range(rng.randrange(0, 12))]
        b = [rng.choice("abcd") for _ in range(rng.randrange(0, 12))]
        d = edit_distance(a, b)
        assert d == levenshtein_matrix(a, b)
        assert d == edit_distance(b, a)


def test_edit_distance_matches_matrix_oracle_across_machine_words():
    rng = random.Random(41)
    for _ in range(60):
        alphabet = "abcdefgh"[: rng.randrange(2, 9)]
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 160)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(65, 160)))
        assert edit_distance(a, b) == levenshtein_matrix(a, b)
        assert edit_distance(b, a) == levenshtein_matrix(a, b)
    long = "x" * 70 + "y" * 70
    assert edit_distance("", "") == 0
    assert edit_distance("", long) == edit_distance(long, "") == 140
    assert edit_distance(long, long) == 0
    assert edit_distance([], ["a", "b"]) == 2


def test_edit_distance_str_against_list_compares_items():
    assert edit_distance("abc", ["a", "b", "c"]) == 0
    assert edit_distance(["a", "x", "c"], "abcd") == 2
    assert edit_distance("kitten", list("sitting")) == 3


@pytest.mark.parametrize("max_shift_size", [1, 2, 10])
def test_ter_edits_matches_greedy_oracle(max_shift_size):
    # small alphabets make many equally good shifts, so the first-best
    # tie-break and the scan order are what this pins down
    rng = random.Random(53 + max_shift_size)
    for _ in range(150):
        alphabet = "abcde"[: rng.randrange(2, 6)]
        hyp = [rng.choice(alphabet) for _ in range(rng.randrange(0, 15))]
        ref = [rng.choice(alphabet) for _ in range(rng.randrange(0, 15))]
        assert ter_edits(hyp, ref, max_shift_size) == ter_greedy_oracle(
            hyp, ref, max_shift_size
        ), (hyp, ref)


def mt_like_pair(rng):
    """A reference and a hypothesis made from it by one deletion, one or
    two substitutions and one block move, so their bag distance is close
    to their edit distance."""
    words = "abcdefgh"[: rng.randrange(3, 9)]
    ref = [rng.choice(words) for _ in range(rng.randrange(4, 15))]
    hyp = list(ref)
    del hyp[rng.randrange(len(hyp))]
    for _ in range(rng.randrange(1, 3)):
        hyp[rng.randrange(len(hyp))] = rng.choice(words + "xy")
    size = rng.randrange(1, 4)
    start = rng.randrange(len(hyp) - size + 1)
    block = hyp[start : start + size]
    del hyp[start : start + size]
    dest = rng.randrange(len(hyp) + 1)
    hyp[dest:dest] = block
    return hyp, ref


@pytest.mark.parametrize("max_shift_size", [1, 2, 10])
def test_ter_edits_matches_greedy_oracle_on_mt_like_pairs(max_shift_size):
    rng = random.Random(61 + max_shift_size)
    for _ in range(80):
        hyp, ref = mt_like_pair(rng)
        assert ter_edits(hyp, ref, max_shift_size) == ter_greedy_oracle(
            hyp, ref, max_shift_size
        ), (hyp, ref)


@pytest.mark.parametrize("max_shift_size", [1, 2, 3, 10])
def test_ter_edits_matches_greedy_oracle_on_longer_pairs(max_shift_size):
    # up to 16 tokens from 2 to 8 words: a block often moves past more
    # tokens than max_shift_size, so its twin shift is never scanned, and
    # repeated tokens make distinct shifts give equal sequences
    rng = random.Random(71 + max_shift_size)
    for _ in range(40):
        alphabet = "abcdefgh"[: rng.randrange(2, 9)]
        hyp = [rng.choice(alphabet) for _ in range(rng.randrange(0, 17))]
        ref = [rng.choice(alphabet) for _ in range(rng.randrange(0, 17))]
        assert ter_edits(hyp, ref, max_shift_size) == ter_greedy_oracle(
            hyp, ref, max_shift_size
        ), (hyp, ref)


def evaluate_mt_pair(rng, index):
    """A pair shaped as the benchmark's evaluate-mt lines: 4 to 9 words,
    one dropped (from more than four), one or two substituted and one
    2-word block moved elsewhere."""
    words = [f"w{k}" for k in range(30)]
    ref = [rng.choice(words) for _ in range(rng.randrange(4, 10))]
    hyp = list(ref)
    if len(hyp) > 4:
        del hyp[rng.randrange(len(hyp))]
    for _ in range(1 + index % 2):
        hyp[rng.randrange(len(hyp))] = rng.choice(words)
    start = rng.randrange(len(hyp) - 1)
    block, rest = hyp[start : start + 2], hyp[:start] + hyp[start + 2 :]
    dest = rng.choice([d for d in range(len(rest) + 1) if d != start])
    return rest[:dest] + block + rest[dest:], ref


def test_ter_edits_matches_greedy_oracle_on_evaluate_mt_pairs():
    rng = random.Random(67)
    for index in range(150):
        hyp, ref = evaluate_mt_pair(rng, index)
        assert ter_edits(hyp, ref) == ter_greedy_oracle(hyp, ref), (hyp, ref)


@pytest.mark.parametrize(
    "hyp, ref, runs",
    [
        ("a x c y e", "a b c d e", 0),
        ("a b", "b a c", 0),
        ("b a x d", "a b c d", 2),
        ("d a b x", "a b c d", 2),
    ],
)
def test_ter_edits_stops_at_the_bag_distance(monkeypatch, hyp, ref, runs):
    # The bag distance is 2, 1, 1 and 1. The first two pairs are at it and
    # one edit above it, so no shift round runs. A round runs the kernel
    # over the hypothesis, then over the rest of each block it moves; in
    # the last two the first block, "b" or "d", reaches it (at its first
    # and at its last destination) and ends the round before the next one.
    seen = []
    kernel = metrics._kernel_states
    monkeypatch.setattr(metrics, "_kernel_states", lambda *args: seen.append(args) or kernel(*args))
    assert ter_edits(hyp.split(), ref.split()) == 2
    assert len(seen) == runs


def test_ter_identity_is_zero():
    assert ter(["a", "b", "c"], ["a", "b", "c"]) == 0.0


def test_ter_single_substitution():
    assert ter(["a", "x", "c", "d", "e"], ["a", "b", "c", "d", "e"]) == pytest.approx(0.2)


def test_ter_single_shift_fixture():
    assert ter_edits(["b", "a", "c", "d"], ["a", "b", "c", "d"]) == 1
    assert ter(["b", "a", "c", "d"], ["a", "b", "c", "d"]) == 0.25


def test_ter_empty_reference_errors():
    with pytest.raises(DataError):
        ter(["a"], [])


def test_ter_greedy_never_exceeds_shift_free_rate():
    rng = random.Random(43)
    for _ in range(1000):
        hyp = [rng.choice("abcdef") for _ in range(rng.randrange(1, 12))]
        ref = [rng.choice("abcdef") for _ in range(rng.randrange(1, 12))]
        assert ter_edits(hyp, ref) <= edit_distance(hyp, ref)


def test_ter_greedy_at_least_bounded_oracle():
    rng = random.Random(47)
    for _ in range(150):
        hyp = [rng.choice("abcd") for _ in range(rng.randrange(1, 7))]
        ref = [rng.choice("abcd") for _ in range(rng.randrange(1, 7))]
        greedy = ter_edits(hyp, ref)
        assert ter_oracle_edits(hyp, ref, max_shifts=2) <= greedy


def test_cer_fixtures():
    assert cer("abc", "abc") == 0.0
    assert cer("abc", "abd") == pytest.approx(1 / 3)
    assert cer("", "abc") == 1.0
    with pytest.raises(DataError):
        cer("abc", "")


# -- corpus-level evaluation ---------------------------------------------------


def test_evaluate_corpus_identity():
    lines = ["the cat sat on the mat", "it sat there again today", "done"]
    hyp = Corpus("hyp", lines)
    report = evaluate_corpus(hyp, Corpus("ref", lines))
    assert report["bleu"] == 1.0
    assert report["ter"] == 0.0
    assert report["cer"] == 0.0
    assert set(report) == {"bleu", "ter", "cer", "c", "r", "per_order_precisions"}


def test_evaluate_corpus_without_any_4grams_scores_zero():
    # corpus-level convention: an order with no hypothesis n-grams at all
    # counts as zero precision, like the unsmoothed reference scorers
    lines = ["the cat sat", "again"]
    report = evaluate_corpus(
        Corpus("hyp", lines), Corpus("ref", lines)
    )
    assert report["bleu"] == 0.0
    assert report["per_order_precisions"][3] == 0.0


def test_orders_above_every_hypothesis_are_not_counted(monkeypatch):
    # A sentence of n tokens has no n-gram above order n, so a huge
    # max_order counts no more n-grams than max_order 6 does here, and its
    # report is max_order 6's with zero precisions appended.
    lines = ["the cat sat on the mat", "a dog", "then it slept", "one more line here"]
    hyp, ref = Corpus("hyp", lines), Corpus("ref", lines[::-1])
    small = evaluate_corpus(hyp, ref, max_order=6)
    calls = []
    real = metrics._ngram_counts
    monkeypatch.setattr(
        metrics, "_ngram_counts", lambda tokens, order: calls.append(order) or real(tokens, order)
    )
    report = evaluate_corpus(hyp, ref, max_order=10_000)
    assert len(calls) == 2 * sum(len(line.split()) for line in lines)
    assert report["per_order_precisions"] == small["per_order_precisions"] + [0.0] * 9_994
    assert report == {**small, "bleu": 0.0, "per_order_precisions": report["per_order_precisions"]}
    assert bleu_stats(["a", "b"], ["a", "b"], 5) == NgramStats((2, 1, 0, 0, 0), (2, 1, 0, 0, 0), 2, 2)


def test_evaluate_corpus_bigram_fixture():
    hyp = Corpus("hyp", ["a b c d"])
    ref = Corpus("ref", ["a b c d e"])
    report = evaluate_corpus(hyp, ref, max_order=2)
    assert report["bleu"] == pytest.approx(math.exp(-0.25), abs=1e-12)
    assert (report["c"], report["r"]) == (4, 5)
    assert report["per_order_precisions"] == [1.0, 1.0]


def test_evaluate_corpus_line_count_mismatch():
    with pytest.raises(DataError):
        evaluate_corpus(
            Corpus("hyp", ["a"]), Corpus("ref", ["a", "b"])
        )


@pytest.mark.parametrize("hyp_line", ["a b c d e f", "a b c"])
def test_evaluate_corpus_rejects_unknown_bp_form(hyp_line):
    # a longer hypothesis never reaches the penalty, a shorter one does
    hyp = Corpus("hyp", [hyp_line])
    ref = Corpus("ref", ["a b c d e"])
    with pytest.raises(ConfigError):
        evaluate_corpus(hyp, ref, bp_form="bogus")


@pytest.mark.parametrize("max_order", [0, -2, 2.5, True, "4"])
def test_evaluate_corpus_rejects_bad_max_order(max_order):
    hyp = Corpus("hyp", ["a b c"])
    with pytest.raises(ConfigError):
        evaluate_corpus(hyp, Corpus("ref", ["a b c"]), max_order=max_order)


def test_evaluate_corpus_paper_bp_flag():
    # both n-gram precisions are 1 here, so BLEU equals the brevity
    # penalty alone: e^(1 - 5/4) standard vs e^((1-5)/4) literal form
    hyp = Corpus("hyp", ["a b c d"])
    ref = Corpus("ref", ["a b c d e"])
    report = evaluate_corpus(hyp, ref, max_order=2, bp_form=BP_PAPER)
    assert report["bleu"] == pytest.approx(math.exp(-1.0), abs=1e-12)
    standard = evaluate_corpus(hyp, ref, max_order=2)
    assert standard["bleu"] == pytest.approx(math.exp(-0.25), abs=1e-12)
