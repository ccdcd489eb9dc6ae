import random
from collections import Counter
from pathlib import Path

import pytest

import transalign.similarity as sim
from oracles import (
    brute_ratio,
    char_count_bound,
    check_pool_hits,
    common_chars_oracle,
    dice_overlap_oracle,
    lcs_oracle,
    masks_oracle,
    pick_oracle,
)
from transalign.align import select_candidate
from transalign.corpus import Corpus, load_corpus, normalize, tokenize
from transalign.errors import ConfigError
from transalign.lexicon import EMPTY_LEXICON, expand_sentence
from transalign.similarity import (
    ChainContext,
    ChainDecision,
    Comparator,
    ComparatorChain,
    PairScores,
    evaluate_chain,
    lcs_length,
    position_masks,
    ratio,
    synonym_ratio,
    token_overlap,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_ratio_tie_breaks_smallest_a_then_b():
    # Equal-length blocks tie; taking the one earliest in a (then in b)
    # decides what the two sides of it can still match.
    assert ratio("aba", "acb") == float(brute_ratio("aba", "acb")) == pytest.approx(2 / 3)
    assert ratio("aba", "bca") == float(brute_ratio("aba", "bca")) == pytest.approx(1 / 3)
    assert ratio("abab", "ab") == float(brute_ratio("abab", "ab")) == pytest.approx(2 / 3)


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
    sw = frozenset({"i", "to"})
    a, b = toks("i", "go", "to", "school"), toks("i", "like", "school")
    value = token_overlap(a, b, sw)
    assert value == float(dice_overlap_oracle(a, b, {"i", "to"})) == 0.5


def test_token_overlap_identity_and_all_stopwords():
    sw = frozenset({"the", "a", "an"})
    assert token_overlap(toks("the", "a"), toks("an", "the"), sw) == 1.0
    assert token_overlap(toks("x", "y"), toks("x", "y"), sw) == 1.0


def test_token_overlap_multiset_counting():
    # repeated word matches once per occurrence
    value = token_overlap(toks("go", "go"), toks("go",))
    assert value == float(dice_overlap_oracle(("go", "go"), ("go",)))


def test_token_overlap_symmetric_permutation_invariant_oracle():
    rng = random.Random(41)
    vocab = ["go", "school", "day", "the", "like"]
    sw = frozenset({"the"})
    for _ in range(300):
        a = [rng.choice(vocab) for _ in range(rng.randrange(0, 7))]
        b = [rng.choice(vocab) for _ in range(rng.randrange(0, 7))]
        value = token_overlap(toks(*a), toks(*b), sw)
        assert value == token_overlap(toks(*b), toks(*a), sw)
        shuffled = list(a)
        rng.shuffle(shuffled)
        assert token_overlap(toks(*shuffled), toks(*b), sw) == value
        assert value == float(dice_overlap_oracle(a, b, {"the"}))


WILL_WOULD = {"will": ("would",), "would": ("will",)}
GAME = {"game": ("play", "sport", "fun", "gaming", "action", "skittle")}


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


@pytest.mark.parametrize("cap", [0, -1, True, 2.5, "8"])
def test_chain_context_rejects_a_cap_that_is_not_a_positive_int(cap):
    with pytest.raises(ConfigError, match="cap"):
        ChainContext(cap=cap)


def test_per_pair_calls_reject_a_zero_cap():
    with pytest.raises(ConfigError):
        synonym_ratio("a b", "a b", WILL_WOULD, cap=0)
    chain = ComparatorChain((Comparator("token_overlap", 0.5),))
    with pytest.raises(ConfigError):
        evaluate_chain("a b", "a b", chain, ChainContext(cap=0))


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
        bound = char_count_bound(a, b)
        assert bound >= exact, (a, b)
        total = len(a) + len(b)
        assert bound <= (2.0 * min(len(a), len(b)) / total if total else 1.0)


def masked_texts(scores):
    """Every (text, mask) of a table, each column read in full: the
    translation lines, the targets, then with a lexicon each line's other
    variants."""
    rows = [scores._trans_chars[i][0] for i in range(len(scores.trans))]
    rows += [scores._target_chars[j] for j in range(len(scores.target))]
    if scores.context.lexicon:
        rows += [row for i in range(len(scores.trans)) for row in scores._variants[i][1:]]
    return rows


def test_mask_popcount_equals_the_character_count_oracle():
    # Random Unicode pairs (ASCII, Latin-1, Greek, CJK, a combining mark,
    # astral emoji) with repeats; either side may be empty. Both texts are
    # masked by one table, on either side.
    rng = random.Random(101)
    alphabet = "ab \u00e9\u00df\u03b1\u4e2d\u0301\U0001f600"
    for k in range(400):
        a, b = (
            "".join(rng.choice(alphabet[: 2 + k % 8]) for _ in range(rng.randrange(0, 14)))
            for _ in range(2)
        )
        expected = common_chars_oracle(a, b)
        for trans, target in (((a,), (b,)), ((b,), (a,))):
            masks = dict(masked_texts(PairScores(trans, target)))
            assert sim.common_chars(masks[a], masks[b]) == expected, (a, b, trans)
            assert masks[a].bit_count() == len(a)


def test_table_masks_equal_the_one_batch_oracle_without_a_lexicon():
    # Without a lexicon the counting pass sees exactly the texts it masks,
    # so every mask has the oracle's bits, whichever entry is read first
    # and after a forgotten entry is rebuilt.
    rng = random.Random(29)
    src = load_corpus(FIXTURES / "parallel_1005.src", "src").normalized[:150]
    tgt = load_corpus(FIXTURES / "parallel_1005.tgt", "tgt").normalized[:150]
    alphabet = "ab \u00e9\u00df\u03b1\u4e2d\u0301\U0001f600"
    noise = ["".join(rng.choices(alphabet, k=rng.randrange(0, 30))) for _ in range(50)]
    trans, target = (*src, *noise[:25], "", "a" * 500), (*noise[25:], *tgt)
    expected = masks_oracle([*trans, *target])
    scores = PairScores(trans, target)
    for j in reversed(range(len(target))):
        assert scores._target_chars[j] == (target[j], expected[len(trans) + j])
    assert [mask for _, mask in masked_texts(scores)] == expected
    scores.forget(len(trans), len(target))
    assert not any(map(len, [*scores._columns[0], *scores._columns[1]]))
    assert [mask for _, mask in masked_texts(scores)] == expected


def test_table_masks_with_a_lexicon_count_every_pair_exactly():
    # The counting pass bounds each variant's counts from the line's joined
    # tokens and the synonyms' gains, so variant masks may have slots the
    # oracle lacks; every AND of two masks must still count exactly.
    # Punctuated lines give joined tokens unlike the line, the last two
    # with more spaces than any other text, and multi-word synonyms, ones
    # with characters no line has, and ones shorter or longer than their
    # headword change every count.
    rng = random.Random(37)
    lexicon = {
        "ab": ("a b", "abab", "\u00df\u00df"),
        "b": ("bbb", "b a b"),
        "ba": ("a",),
        "abb": ("b-b", "\u00e9"),
    }
    words = ["a", "b", "ab", "ba", "abb", "bb"]
    marks = [" ", ", ", " - ", "! ", "/", "'' ", "_"]

    def line():
        text = rng.choice(words)
        for _ in range(rng.randrange(0, 5)):
            text += rng.choice(marks) + rng.choice(words)
        return normalize(text + rng.choice(["", ".", "?!"]))

    for cap in (1, 3, 64):
        trans = [line() for _ in range(25)] + ["-".join(["ab"] * 20), ",".join(["bb"] * 16)]
        target = [line() for _ in range(25)]
        scores = PairScores(trans, target, ChainContext(lexicon=lexicon, cap=cap))
        rows = masked_texts(scores)
        if cap == 64:
            texts = [text for text, _ in rows[len(trans) + len(target) :]]
            assert any("a b" in text for text in texts) and any("\u00df" in text for text in texts)
            assert any(" ".join(tokenize(a)) in texts for a in trans)
        for text, mask in rows:
            assert mask.bit_count() == len(text), text
        for a, a_mask in rows:
            for b, b_mask in rows:
                assert sim.common_chars(a_mask, b_mask) == common_chars_oracle(a, b), (a, b)


def test_a_long_line_leaves_every_other_mask_small():
    # Slots go to every (c, 1) first, then (c, 2), and so on, so the
    # 100,000 slots of one single-letter line come after the few hundred
    # the ordinary lines need, whichever column holds it.
    src = load_corpus(FIXTURES / "parallel_1005.src", "src").normalized[:200]
    tgt = load_corpus(FIXTURES / "parallel_1005.tgt", "tgt").normalized[:200]
    long_line = "a" * 100_000
    for trans, target, long_row in (((long_line, *src), tgt, 0), (src, (*tgt, long_line), 400)):
        scores = PairScores(trans, target)
        rows = masked_texts(scores)
        long_mask = rows.pop(long_row)[1]
        assert long_mask.bit_count() == 100_000
        assert max(mask.bit_length() for _, mask in rows) < 400
        assert all(mask.bit_count() == len(text) for text, mask in rows)
        for text, mask in rows[:20]:
            assert sim.common_chars(mask, long_mask) == text.count("a")


def test_a_long_line_leaves_every_variant_mask_small():
    # The counting pass bounds the variants' counts too, so the slot (t, 4)
    # that only "the kitty sat" needs comes before the long line's later
    # slots of "a".
    context = ChainContext(lexicon={"cat": ("kitty",)})
    scores = PairScores(("a" * 100_000, "the cat sat"), ("the dog sat",), context)
    texts = scores._variants[1]
    assert [text for text, _ in texts] == ["the cat sat", "the kitty sat"]
    assert all(mask.bit_length() < 200 for _, mask in texts)
    assert [mask.bit_count() for _, mask in texts] == [11, 13]
    best = max(ratio(text, "the dog sat") for text, _ in texts)
    assert scores.score(1, 0, "synonym_ratio") == best


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
        assert float(brute_ratio(a, b)) <= lcs_ratio <= char_count_bound(a, b), (a, b)


# Small alphabet, one stop word and a lexicon whose variants collide with
# each other and with the vocabulary, so ties and duplicates are common.
CHAIN_VOCAB = ["a", "b", "ab", "ba", "abb", "bb"]
CHAIN_CONTEXT = ChainContext(
    stopwords=frozenset({"bb"}),
    lexicon={"ab": ("ba", "abb"), "b": ("a", "bb"), "ba": ("ab",)},
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
            dice_overlap_oracle(tokenize(a), tokenize(b), context.stopwords)
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
    stopwords = frozenset({"the"})
    lines = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 9))) for _ in range(80)]
    trans = [normalize(line) for line in lines[:40]]
    target = [normalize(line) for line in lines[40:]]
    scores = PairScores(trans, target, ChainContext(stopwords=stopwords))
    for i, a in enumerate(trans):
        for j, b in enumerate(target):
            expected = dice_overlap_oracle(tokenize(a), tokenize(b), stopwords)
            assert scores.score(i, j, "token_overlap") == float(expected), (a, b)


def random_line(rng):
    return " ".join(rng.choice(CHAIN_VOCAB) for _ in range(rng.randrange(0, 5)))


def test_pool_call_accepts_what_decide_and_evaluate_chain_accept():
    # ``decide`` on a fresh table is the reference: one target per call, so
    # no other target can raise its last tier's bar.
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
                decided = [(j, fresh.decide(i, j, chain)) for j in pool]
                reference = [(j, d.score, d.comparator) for j, d in decided if d is not None]
                check_pool_hits(accepted, reference, chain.comparators[-1])
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


def test_last_tier_keeps_every_target_that_ties_the_best_score():
    # Targets 0 and 2 copy the line, so both bound and score 1.0; target 1
    # is an anagram, whose bound is 1.0 too, equal to the best score, but
    # whose ratio is lower. The last tier visits them in bound order, 0, 1,
    # 2, and its bar stands at 1.0 after target 0; only a strict skip
    # still scores target 2, the copy nearer the expected position.
    line = "the cat sat"
    target = [line, "sat the tac", line, "a dog"]
    assert [char_count_bound(line, b) for b in target[:3]] == [1.0] * 3
    assert ratio(line, target[1]) < 1.0
    for threshold in (0.5, 1.0):
        for tiers in (("matching_blocks_ratio",), ("synonym_ratio",)):
            chain = ComparatorChain(tuple(Comparator(kind, threshold) for kind in tiers))
            comparator = chain.comparators[0]
            scores = PairScores((line,), target)
            assert scores.accepted(0, range(4), chain) == [(0, 1.0, comparator), (2, 1.0, comparator)]
            chosen = select_candidate(0, [0, 1, 2, 3], 2.0, chain, PairScores((line,), target))
            assert chosen == (2, ChainDecision(True, 1.0, comparator))
    # An earlier tier's best hit sets the bar: "ab cd" has token Dice 0.5
    # with target 0, and with target 1 a ratio and a bound of exactly 0.5.
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.5), Comparator("matching_blocks_ratio", 0.3))
    )
    token, blocks = chain.comparators
    target = ["cd xyzw", "abq"]
    assert char_count_bound("ab cd", "abq") == ratio("ab cd", "abq") == 0.5
    scores = PairScores(("ab cd",), target)
    assert scores.accepted(0, [0, 1], chain) == [(0, 0.5, token), (1, 0.5, blocks)]
    chosen = select_candidate(0, [0, 1], 1.0, chain, PairScores(("ab cd",), target))
    assert chosen == (1, ChainDecision(True, 0.5, blocks))


def accepted_reference(scores, i, pool, chain):
    """``accepted`` restated pair by pair from ``score``: each tier scores
    every target the earlier tiers rejected, with no cut before the score."""
    found = []
    for comparator in chain:
        rejected = []
        for j in pool:
            score = scores.score(i, j, comparator.kind)
            if score >= comparator.threshold:
                found.append((j, score, comparator))
            else:
                rejected.append(j)
        pool = rejected
    return found


def test_pool_pre_tests_accept_what_scoring_every_pair_accepts():
    # The inline tests ``accepted`` runs per target (disjoint occurrence
    # sets, the character-count bound over all of a line's texts) must cut
    # only targets that scoring would reject. Synonyms much shorter or
    # longer than their headwords make a line's texts differ in length, and
    # targets copy a line or one of its variants, so that exact scores of
    # 1.0 and bounds equal to the threshold occur. Lines of stop words only
    # have empty occurrence sets, and "" has no characters either.
    rng = random.Random(2121)
    stop = frozenset({"ca", "dd"})
    entries = {"ab": ("a",), "b": ("bcdbcdb",), "abc": ("c", "dcbadcb"), "dab": ("ab",)}
    vocab = ["ab", "b", "abc", "dab", "cd", "ca", "dd", "ac"]
    contexts = [
        ChainContext(stopwords=stop, lexicon=entries, cap=5),
        ChainContext(stopwords=stop),
    ]
    chains = [
        ComparatorChain((Comparator(kind, threshold),))
        for kind in CHAIN_KINDS
        for threshold in (0.0, 0.4, 0.75, 1.0)
    ]
    chains += [
        ComparatorChain(tuple(map(Comparator, CHAIN_KINDS, thresholds)))
        for thresholds in ((1.0, 1.0, 1.0), (0.0, 0.5, 0.5), (0.9, 0.0, 0.8), (0.6, 0.85, 0.0))
    ]

    def line():
        return " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 5)))

    cases = Counter()
    for context in contexts:
        for _ in range(12):
            trans = [line() for _ in range(6)] + ["ca dd", ""]
            variants = [
                " ".join(v)
                for text in trans
                for v in expand_sentence(tokenize(text), context.lexicon, context.cap)[1:]
            ]
            target = [line() for _ in range(4)] + rng.sample(trans, 3) + ["dd ca dd", ""]
            target += rng.sample(variants, min(3, len(variants)))
            scores = PairScores(trans, target, context)
            for chain in chains:
                # Thresholds equal to scores that occur put the bound on them.
                kind = chain.comparators[0].kind
                i = rng.randrange(len(trans))
                exact = sorted({scores.score(i, j, kind) for j in range(len(target))})
                tight = ComparatorChain((Comparator(kind, rng.choice(exact)),))
                for run in (chain, tight):
                    for i in range(len(trans)):
                        pool = rng.sample(range(len(target)), rng.randint(1, len(target)))
                        fresh = PairScores(trans, target, context)
                        reference = accepted_reference(scores, i, pool, run)
                        last = run.comparators[-1]
                        got = fresh.accepted(i, pool, run)
                        cases["left out"] += check_pool_hits(got, reference, last)
                        assert scores.accepted(i, pool, run) == got
                        expected = rng.randrange(2 * len(target)) / 2
                        pick = pick_oracle(reference, expected)
                        chosen = select_candidate(i, pool, expected, run, fresh)
                        assert chosen == (pick and (pick[0], ChainDecision(True, *pick[1:])))
                        for j, score, comparator in got:
                            cases[comparator.kind, score == 1.0] += 1
                            cases["at threshold"] += score == comparator.threshold
    assert min(cases.values()) > 20, cases

