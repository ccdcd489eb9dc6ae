import random

import pytest

import transalign.similarity as sim
from oracles import brute_matching_blocks, brute_ratio, dice_overlap_oracle, lcs_oracle
from transalign.align import select_candidate
from transalign.corpus import Corpus, normalize, tokenize
from transalign.errors import ConfigError
from transalign.lexicon import EMPTY_LEXICON, StopWordList, SynonymLexicon, expand_sentence
from transalign.similarity import (
    ChainContext,
    ChainDecision,
    Comparator,
    ComparatorChain,
    PairScores,
    evaluate_chain,
    lcs_length,
    matching_blocks,
    position_masks,
    ratio,
    ratio_bound,
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


def test_kernel_equals_oracle_on_long_lines():
    # From 200 characters of b on, difflib's autojunk would treat frequent
    # characters as junk; the kernel keeps it off, so long lines still get
    # the plain decomposition.
    rng = random.Random(31)
    for _ in range(4):
        a = "".join(rng.choice("ab c") for _ in range(230))
        edited = list(a)
        for position in rng.sample(range(len(a)), 4):
            edited[position] = rng.choice("ab c".replace(a[position], ""))
        b = "".join(edited)
        assert blocks(a, b) == brute_matching_blocks(a, b)
        assert ratio(a, b) == float(brute_ratio(a, b))


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
    return tuple(tokens)


def test_token_overlap_hand_fixture():
    sw = StopWordList(frozenset({"i", "to"}))
    a, b = toks("i", "go", "to", "school"), toks("i", "like", "school")
    value = token_overlap(a, b, sw)
    assert value == float(dice_overlap_oracle(a, b, {"i", "to"})) == 0.5


def test_token_overlap_identity_and_all_stopwords():
    sw = StopWordList(frozenset({"the", "a", "an"}))
    assert token_overlap(toks("the", "a"), toks("an", "the"), sw) == 1.0
    assert token_overlap(toks("x", "y"), toks("x", "y"), sw) == 1.0


def test_token_overlap_multiset_counting():
    # repeated word matches once per occurrence
    value = token_overlap(toks("go", "go"), toks("go",))
    assert value == float(dice_overlap_oracle(("go", "go"), ("go",)))


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
        assert value == float(dice_overlap_oracle(a, b, {"the"}))


WILL_WOULD = SynonymLexicon({"will": ("would",), "would": ("will",)})
GAME = SynonymLexicon({"game": ("play", "sport", "fun", "gaming", "action", "skittle")})


def test_synonym_ratio_will_would_reaches_one():
    a = "i would call you tomorrow"
    b = "i will call you tomorrow"
    assert synonym_ratio(a, b, WILL_WOULD) == 1.0


def test_synonym_ratio_game_sport_reaches_one():
    a = "i do not like game"
    b = "i do not like sport"
    assert synonym_ratio(a, b, GAME) == 1.0


def test_synonym_ratio_empty_lexicon_is_plain_ratio():
    a = "i go there"
    b = "i went there"
    assert synonym_ratio(a, b, EMPTY_LEXICON) == ratio(normalize(a), normalize(b))


def test_synonym_ratio_never_below_plain_ratio():
    rng = random.Random(53)
    vocab = ["i", "will", "would", "go", "game", "play", "school"]
    for _ in range(200):
        a = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 7)))
        b = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 7)))
        assert synonym_ratio(a, b, WILL_WOULD) >= ratio(normalize(a), normalize(b))


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
    a = "we are here"
    decision = evaluate_chain(a, "we are here", chain, ChainContext())
    assert decision.accepted
    assert decision.score == 1.0
    assert decision.comparator.kind == "token_overlap"


def test_evaluate_chain_escalates_to_synonym_tier():
    chain = ComparatorChain(
        (Comparator("matching_blocks_ratio", 0.99), Comparator("synonym_ratio", 0.9))
    )
    a = "i would call you tomorrow"
    b = "i will call you tomorrow"
    assert ratio(normalize(a), normalize(b)) < 0.99
    decision = evaluate_chain(a, b, chain, ChainContext(lexicon=WILL_WOULD))
    assert decision.accepted
    assert decision.comparator.kind == "synonym_ratio"
    assert decision.score == 1.0


def test_evaluate_chain_rejection_reports_best_score():
    chain = ComparatorChain(
        (Comparator("token_overlap", 1.0), Comparator("matching_blocks_ratio", 1.0))
    )
    a = "aaa bbb"
    b = "aaa ccc"
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
        "aaa", "zzz", chain, ChainContext()
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
        "same text", "same text", chain, ChainContext()
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
        a = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
        b = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
        decision = evaluate_chain(a, b, chain, ChainContext())
        if decision.accepted:
            assert decision.score >= decision.comparator.threshold
        assert 0.0 <= decision.score <= 1.0


def test_ratio_bound_is_never_below_the_oracle_ratio():
    rng = random.Random(67)
    for k in range(600):
        a = "".join(rng.choice("abc"[: 1 + k % 3]) for _ in range(rng.randrange(0, 10)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 10)))
        exact = float(brute_ratio(a, b))
        bound = ratio_bound(a, b)
        assert bound >= exact, (a, b)
        total = len(a) + len(b)
        assert bound <= (2.0 * min(len(a), len(b)) / total if total else 1.0)


def test_lcs_length_equals_the_oracle_and_lies_between_ratio_and_bound():
    # 1-4-letter alphabets plus space and two non-ASCII letters;
    # either side may be empty.
    rng = random.Random(97)
    for k in range(600):
        alphabet = "abcd"[: 1 + k % 4] + " éß"
        a, b = (
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12))) for _ in range(2)
        )
        lcs = lcs_oracle(a, b)
        assert lcs_length(a, b) == lcs == lcs_length(a, b, position_masks(b)), (a, b)
        total = len(a) + len(b)
        lcs_ratio = 2 * lcs / total if total else 1.0
        assert float(brute_ratio(a, b)) <= lcs_ratio <= ratio_bound(a, b), (a, b)


# Small alphabet, one stop word and a lexicon whose variants collide with
# each other and with the vocabulary, so ties and duplicates are common.
CHAIN_VOCAB = ["a", "b", "ab", "ba", "abb", "bb"]
CHAIN_CONTEXT = ChainContext(
    stopwords=StopWordList(frozenset({"bb"})),
    lexicon=SynonymLexicon({"ab": ("ba", "abb"), "b": ("a", "bb"), "ba": ("ab",)}),
    cap=4,
)
CHAIN_KINDS = ["token_overlap", "matching_blocks_ratio", "synonym_ratio"]
CHAIN_THRESHOLDS = (0.0, 0.3, 0.5, 0.7, 0.85, 0.9, 1.0)


def random_chain_case(rng):
    a, b = (
        " ".join(rng.choice(CHAIN_VOCAB) for _ in range(rng.randrange(0, 5)))
        for _ in range(2)
    )
    kinds = rng.sample(CHAIN_KINDS, rng.randint(1, 3))
    chain = ComparatorChain(tuple(Comparator(k, rng.choice(CHAIN_THRESHOLDS)) for k in kinds))
    return a, b, chain


def unpruned_decision(a, b, chain, context):
    """The chain run on every tier's exact score, from the oracles."""
    a, b = normalize(a), normalize(b)
    plain = float(brute_ratio(a, b))
    variants = [" ".join(v) for v in expand_sentence(tokenize(a), context.lexicon, context.cap)]
    scores = {
        "token_overlap": float(
            dice_overlap_oracle(tokenize(a), tokenize(b), context.stopwords.words)
        ),
        "matching_blocks_ratio": plain,
        "synonym_ratio": max([plain] + [float(brute_ratio(v, b)) for v in variants]),
    }
    best = None
    for comparator in chain:
        score = scores[comparator.kind]
        if score >= comparator.threshold:
            return ChainDecision(True, score, comparator)
        if best is None or score > best.score:
            best = ChainDecision(False, score, comparator)
    return best


def test_decide_is_the_accepted_part_of_evaluate_chain():
    rng = random.Random(71)
    accepted = rejected = 0
    for _ in range(800):
        a, b, chain = random_chain_case(rng)
        fresh = evaluate_chain(a, b, chain, CHAIN_CONTEXT)
        assert fresh == unpruned_decision(a, b, chain, CHAIN_CONTEXT), (a, b, chain)
        decision = PairScores((normalize(a),), (normalize(b),), CHAIN_CONTEXT).decide(0, 0, chain)
        if fresh.accepted:
            assert decision == fresh, (a, b, chain)
            accepted += 1
        else:
            assert decision is None, (a, b, chain)
            rejected += 1
    assert accepted > 100 and rejected > 100


def test_one_table_decides_like_fresh_tables_at_any_threshold():
    # A table keeps exact scores only, so what one chain computed never
    # changes what a chain with other thresholds decides.
    rng = random.Random(79)
    cases = [random_chain_case(rng) for _ in range(30)]
    trans = [normalize(a) for a, _, _ in cases]
    target = [normalize(b) for _, b, _ in cases]
    shared = PairScores(trans, target, CHAIN_CONTEXT)
    for _ in range(4):
        for i in range(len(trans)):
            for j in range(len(target)):
                chain = random_chain_case(rng)[2]
                fresh = PairScores((trans[i],), (target[j],), CHAIN_CONTEXT)
                assert shared.decide(i, j, chain) == fresh.decide(0, 0, chain)
                assert shared.score(i, j, chain.comparators[0].kind) == fresh.score(
                    0, 0, chain.comparators[0].kind
                )


def test_table_expands_each_translation_line_once(monkeypatch):
    calls = []
    real_expand = sim.expand_sentence

    def counting_expand(tokens, lexicon, cap=64):
        calls.append(tokens)
        return real_expand(tokens, lexicon, cap)

    monkeypatch.setattr(sim, "expand_sentence", counting_expand)
    trans = ["ab b", "ba", "ab ab", "a"]
    target = ["ba bb", "abb b", "b", ""]
    scores = PairScores(trans, target, CHAIN_CONTEXT)
    chain = ComparatorChain((Comparator("synonym_ratio", 0.99),))
    for threshold in (1.0, 0.9, 0.5, 0.0):
        low = ComparatorChain((Comparator("synonym_ratio", threshold),))
        for i in range(len(trans)):
            for j in range(len(target)):
                scores.decide(i, j, low)
                scores.decide(i, j, chain)
                scores.score(i, j, "synonym_ratio")
    assert sorted(calls) == sorted(tokenize(text) for text in trans)


def test_variant_scores_equal_the_oracle_on_punctuated_lines():
    # Punctuation survives normalizing but not tokenizing, and words glued
    # by it are joined with a space, so a variant's text differs from the
    # normalized line by more than the swapped word in both directions. The
    # table's bounds on each variant must still be exact.
    rng = random.Random(101)
    marks = [" ", "  ", ", ", " - ", "! ", " (", ") ", "'' ", ",", "-", "/"]

    def punctuated_line():
        words = [rng.choice(CHAIN_VOCAB) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.5:
            words.insert(rng.randrange(len(words) + 1), words[0])
        text = words[0]
        for word in words[1:]:
            text += rng.choice(marks) + word
        return rng.choice(["", "¿", "\""]) + text + rng.choice(["", ".", "?!"])

    context = ChainContext(lexicon=CHAIN_CONTEXT.lexicon)
    trans = [normalize(punctuated_line()) for _ in range(30)]
    target = [normalize(punctuated_line()) for _ in range(30)]
    assert sum(" ".join(tokenize(a)) != a for a in trans) > 15
    exact = {}
    for i, a in enumerate(trans):
        texts = [a] + [
            " ".join(v) for v in expand_sentence(tokenize(a), context.lexicon, context.cap)
        ]
        for j, b in enumerate(target):
            exact[i, j] = max(float(brute_ratio(text, b)) for text in texts)
    scores = PairScores(trans, target, context)
    assert {key: scores.score(*key, "synonym_ratio") for key in exact} == exact
    kept = 0
    for threshold in CHAIN_THRESHOLDS:
        chain = ComparatorChain((Comparator("synonym_ratio", threshold),))
        scores = PairScores(trans, target, context)
        for (i, j), score in exact.items():
            decision = scores.decide(i, j, chain)
            if score >= threshold:
                assert decision == ChainDecision(True, score, chain.comparators[0])
                kept += 1
            else:
                assert decision is None, (trans[i], target[j], threshold)
    assert kept > 100


def test_table_token_overlap_equals_oracle_under_heavy_repeats():
    # Three content words and a stop word, up to eight tokens: most lines
    # repeat a word, so the occurrence sets take their (token, k) path.
    rng = random.Random(89)
    vocab = ["x", "y", "z", "the"]
    stopwords = StopWordList(frozenset({"the"}))
    lines = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 9))) for _ in range(80)]
    trans = [normalize(line) for line in lines[:40]]
    target = [normalize(line) for line in lines[40:]]
    scores = PairScores(trans, target, ChainContext(stopwords=stopwords))
    for i, a in enumerate(trans):
        for j, b in enumerate(target):
            expected = dice_overlap_oracle(tokenize(a), tokenize(b), stopwords.words)
            assert scores.score(i, j, "token_overlap") == float(expected), (a, b)


def random_line(rng):
    return " ".join(rng.choice(CHAIN_VOCAB) for _ in range(rng.randrange(0, 5)))


def test_pool_call_accepts_what_decide_and_evaluate_chain_accept():
    rng = random.Random(83)
    no_lexicon = ChainContext(stopwords=CHAIN_CONTEXT.stopwords, cap=CHAIN_CONTEXT.cap)
    hits = picks = 0
    for context in (CHAIN_CONTEXT, no_lexicon):
        for _ in range(40):
            trans = Corpus("y", [random_line(rng) for _ in range(5)])
            target = Corpus("tgt", [random_line(rng) for _ in range(8)])
            scores = PairScores(trans.normalized, target.normalized, context)
            for i in range(len(trans)):
                chain = random_chain_case(rng)[2]
                pool = rng.sample(range(len(target)), rng.randint(0, len(target)))
                accepted = scores.accepted(i, pool, chain)
                fresh = PairScores(trans.normalized, target.normalized, context)
                decided = {j: fresh.decide(i, j, chain) for j in pool}
                assert len({j for j, _, _ in accepted}) == len(accepted)
                assert {j: ChainDecision(True, s, c) for j, s, c in accepted} == {
                    j: d for j, d in decided.items() if d is not None
                }, (trans[i], [target[j] for j in pool], chain)
                hits += len(accepted)

                expected = rng.randrange(2 * len(target)) / 2
                chained = {j: evaluate_chain(trans[i], target[j], chain, context) for j in pool}
                keys = [(-d.score, abs(j - expected), j) for j, d in chained.items() if d.accepted]
                chosen = select_candidate(i, pool, expected, chain, scores)
                if keys:
                    best = min(keys)[2]
                    assert chosen == (best, chained[best])
                    picks += 1
                else:
                    assert chosen is None
    assert hits > 300 and picks > 100
