import random

import pytest

import transalign.similarity as sim
from oracles import brute_matching_blocks, brute_ratio, dice_overlap_oracle
from transalign.corpus import Sentence, TokenizedSentence
from transalign.errors import ConfigError
from transalign.lexicon import EMPTY_LEXICON, StopWordList, SynonymLexicon
from transalign.similarity import (
    ChainContext,
    char_index,
    Comparator,
    ComparatorChain,
    evaluate_chain,
    matching_blocks,
    ratio,
    synonym_ratio,
    token_overlap,
)


def blocks(a, b):
    return [(blk.a_start, blk.b_start, blk.length) for blk in matching_blocks(a, b)]


def test_matching_blocks_abxcd():
    # "ab" and "cd" are matched, the lone "x" is not
    assert blocks("abxcd", "abcd") == [(0, 0, 2), (3, 2, 2)]


def test_matching_blocks_identity_and_disjoint():
    assert blocks("abc", "abc") == [(0, 0, 3)]
    assert blocks("abc", "xyz") == []


def test_matching_blocks_tie_breaks_smallest_a_then_b():
    # both "ab" occurrences are candidates; the earliest in a, then b wins
    assert blocks("abab", "ab")[0] == (0, 0, 2)
    assert blocks("ab", "abab")[0] == (0, 0, 2)


def test_matching_blocks_monotone_and_disjoint_in_both():
    rng = random.Random(3)
    for _ in range(300):
        a = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 12)))
        b = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 12)))
        got = blocks(a, b)
        for (i1, j1, s1), (i2, j2, s2) in zip(got, got[1:]):
            assert i1 + s1 <= i2
            assert j1 + s1 <= j2


def test_matching_blocks_equals_oracle_on_random_pairs():
    rng = random.Random(17)
    for _ in range(500):
        a = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        b = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        assert blocks(a, b) == brute_matching_blocks(a, b), (a, b)


def test_reused_target_index_equals_oracle():
    # one target's index serves many sources, as in a pair-score table
    rng = random.Random(23)
    for k in range(40):
        b = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9) if k else 0))
        index = char_index(b)
        for m in range(15):
            a = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9) if m else 0))
            assert blocks_with(a, b, index) == brute_matching_blocks(a, b), (a, b)
            assert ratio(a, b, index) == float(brute_ratio(a, b)), (a, b)


def blocks_with(a, b, index):
    return [(blk.a_start, blk.b_start, blk.length) for blk in matching_blocks(a, b, index)]


def test_ratio_paper_fixture():
    assert ratio("abxcd", "abcd") == pytest.approx(8 / 9, abs=1e-15)


def test_ratio_identity_disjoint_empty():
    assert ratio("abc", "abc") == 1.0
    assert ratio("abc", "xyz") == 0.0
    assert ratio("", "") == 1.0
    assert ratio("", "a") == 0.0


def test_ratio_matches_oracle_on_random_pairs():
    rng = random.Random(29)
    for _ in range(400):
        a = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        b = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        assert ratio(a, b) == pytest.approx(float(brute_ratio(a, b)), abs=1e-12)


def test_ratio_is_order_sensitive_like_the_greedy_decomposition():
    # The greedy longest-block recursion is not symmetric: matching 'b'
    # first in ("bacb", "ab") blocks the second common character that the
    # ("ab", "bacb") direction can still take. The oracle agrees, so this
    # is the measure's real shape, not an implementation accident. Callers
    # always pass (translation, candidate) in a fixed order.
    assert ratio("ab", "bacb") == pytest.approx(2 / 3, abs=1e-15)
    assert ratio("bacb", "ab") == pytest.approx(1 / 3, abs=1e-15)
    assert float(brute_ratio("ab", "bacb")) == pytest.approx(2 / 3, abs=1e-15)
    assert float(brute_ratio("bacb", "ab")) == pytest.approx(1 / 3, abs=1e-15)


def test_ratio_partial_word_credit():
    # "boy" vs "boys" should keep most of its score, unlike token equality
    assert ratio("boy", "boys") == pytest.approx(6 / 7, abs=1e-15)


def toks(*tokens):
    return TokenizedSentence(tuple(tokens))


def test_token_overlap_hand_fixture():
    sw = StopWordList(frozenset({"i", "to"}))
    value = token_overlap(toks("i", "go", "to", "school"), toks("i", "like", "school"), sw)
    assert value == pytest.approx(0.5, abs=1e-15)


def test_token_overlap_identity_and_all_stopwords():
    sw = StopWordList(frozenset({"the", "a", "an"}))
    assert token_overlap(toks("the", "a"), toks("an", "the"), sw) == 1.0
    assert token_overlap(toks("x", "y"), toks("x", "y"), sw) == 1.0


def test_token_overlap_multiset_counting():
    # repeated word matches once per occurrence
    value = token_overlap(toks("go", "go"), toks("go",))
    assert value == pytest.approx(2 / 3, abs=1e-15)


def test_token_overlap_symmetric_permutation_invariant_oracle():
    rng = random.Random(41)
    vocab = ["go", "school", "day", "the", "like"]
    sw = StopWordList(frozenset({"the"}))
    for _ in range(300):
        a = [rng.choice(vocab) for _ in range(rng.randrange(0, 7))]
        b = [rng.choice(vocab) for _ in range(rng.randrange(0, 7))]
        value = token_overlap(toks(*a), toks(*b), sw)
        assert value == token_overlap(toks(*b), toks(*a), sw)
        shuffled = list(a)
        rng.shuffle(shuffled)
        assert token_overlap(toks(*shuffled), toks(*b), sw) == value
        assert value == pytest.approx(float(dice_overlap_oracle(a, b, {"the"})), abs=1e-12)


WILL_WOULD = SynonymLexicon({"will": ("would",), "would": ("will",)})
GAME = SynonymLexicon({"game": ("play", "sport", "fun", "gaming", "action", "skittle")})


def test_synonym_ratio_will_would_reaches_one():
    a = Sentence(0, "i would call you tomorrow")
    b = Sentence(0, "i will call you tomorrow")
    assert synonym_ratio(a, b, WILL_WOULD) == 1.0


def test_synonym_ratio_game_sport_reaches_one():
    a = Sentence(0, "i do not like game")
    b = Sentence(0, "i do not like sport")
    assert synonym_ratio(a, b, GAME) == 1.0


def test_synonym_ratio_empty_lexicon_is_plain_ratio():
    a = Sentence(0, "i go there")
    b = Sentence(0, "i went there")
    assert synonym_ratio(a, b, EMPTY_LEXICON) == ratio(a.normalized, b.normalized)


def test_synonym_ratio_never_below_plain_ratio():
    rng = random.Random(53)
    vocab = ["i", "will", "would", "go", "game", "play", "school"]
    for _ in range(200):
        a = Sentence(0, " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 7))))
        b = Sentence(0, " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 7))))
        assert synonym_ratio(a, b, WILL_WOULD) >= ratio(a.normalized, b.normalized)


def test_comparator_validation():
    with pytest.raises(ConfigError):
        Comparator("nonsense", 0.5)
    with pytest.raises(ConfigError):
        Comparator("token_overlap", 1.5)
    with pytest.raises(ConfigError):
        ComparatorChain(())


def test_chain_sorts_by_cost_class():
    chain = ComparatorChain(
        (
            Comparator("synonym_ratio", 0.9),
            Comparator("token_overlap", 0.99),
            Comparator("matching_blocks_ratio", 0.85),
        )
    )
    assert [c.kind for c in chain] == [
        "token_overlap",
        "matching_blocks_ratio",
        "synonym_ratio",
    ]


def test_with_threshold_replaces_one_position():
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.9), Comparator("synonym_ratio", 0.8))
    )
    updated = chain.with_threshold(1, 0.5)
    assert [c.threshold for c in updated] == [0.9, 0.5]
    assert [c.threshold for c in chain] == [0.9, 0.8]


def test_evaluate_chain_accepts_identity_at_first_tier():
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.9), Comparator("matching_blocks_ratio", 0.9))
    )
    a = Sentence(0, "we are here")
    decision = evaluate_chain(a, Sentence(0, "we are here"), chain, ChainContext())
    assert decision.accepted
    assert decision.score == 1.0
    assert decision.comparator.kind == "token_overlap"


def test_evaluate_chain_escalates_to_synonym_tier():
    chain = ComparatorChain(
        (Comparator("matching_blocks_ratio", 0.99), Comparator("synonym_ratio", 0.9))
    )
    a = Sentence(0, "i would call you tomorrow")
    b = Sentence(0, "i will call you tomorrow")
    assert ratio(a.normalized, b.normalized) < 0.99
    decision = evaluate_chain(a, b, chain, ChainContext(lexicon=WILL_WOULD))
    assert decision.accepted
    assert decision.comparator.kind == "synonym_ratio"
    assert decision.score == 1.0


def test_evaluate_chain_rejection_reports_best_score():
    chain = ComparatorChain(
        (Comparator("token_overlap", 1.0), Comparator("matching_blocks_ratio", 1.0))
    )
    a = Sentence(0, "aaa bbb")
    b = Sentence(0, "aaa ccc")
    decision = evaluate_chain(a, b, chain, ChainContext())
    assert not decision.accepted
    expected = max(
        token_overlap(toks("aaa", "bbb"), toks("aaa", "ccc")),
        ratio("aaa bbb", "aaa ccc"),
    )
    assert decision.score == expected


def test_evaluate_chain_disjoint_rejects_at_zero():
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.1), Comparator("matching_blocks_ratio", 0.1))
    )
    decision = evaluate_chain(
        Sentence(0, "aaa"), Sentence(0, "zzz"), chain, ChainContext()
    )
    assert not decision.accepted
    assert decision.score == 0.0


def test_evaluate_chain_stops_at_first_acceptance(monkeypatch):
    calls = []

    real_overlap = sim.token_overlap
    real_ratio = sim.ratio

    def counting_overlap(a, b, stopwords=None):
        calls.append("token_overlap")
        return real_overlap(a, b, stopwords or sim.EMPTY_STOPWORDS)

    def counting_ratio(a, b):
        calls.append("matching_blocks_ratio")
        return real_ratio(a, b)

    monkeypatch.setattr(sim, "token_overlap", counting_overlap)
    monkeypatch.setattr(sim, "ratio", counting_ratio)
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.5), Comparator("matching_blocks_ratio", 0.5))
    )
    decision = evaluate_chain(
        Sentence(0, "same text"), Sentence(0, "same text"), chain, ChainContext()
    )
    assert decision.accepted
    assert calls == ["token_overlap"]


def test_chain_decision_accept_implies_threshold():
    rng = random.Random(61)
    vocab = ["go", "school", "i", "day", "game"]
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.6), Comparator("matching_blocks_ratio", 0.7))
    )
    for _ in range(200):
        a = Sentence(0, " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6))))
        b = Sentence(0, " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6))))
        decision = evaluate_chain(a, b, chain, ChainContext())
        if decision.accepted:
            assert decision.score >= decision.comparator.threshold
        assert 0.0 <= decision.score <= 1.0
