"""End-to-end acceptance checks, one test per release criterion.

Run order matters only for the final timing check, so the tests are
numbered. Everything here works from local files and in-process calls;
translations are read from files with ``load_corpus``, which keeps the
whole suite runnable without network access.
"""
import math
import random
import re
import time
from pathlib import Path

import transalign.tuning as tuning
from transalign import (
    ALIGNED,
    AlignmentConfig,
    Comparator,
    ComparatorChain,
    Corpus,
    NgramStats,
    TuningJob,
    align,
    alignment_score,
    bleu,
    bleu_stats,
    cer,
    evaluate_against_gold,
    load_corpus,
    ratio,
    ter,
    ter_edits,
    tune_threshold,
)

from oracles import brute_ratio, levenshtein_matrix, ngram_stats_sum, score_oracle

FIXTURES = Path(__file__).parent / "fixtures"
_MODULE_START = time.monotonic()

LOOKAHEAD_TRANS = ["I go to school every day.", "I don't go to school every day."]
LOOKAHEAD_TARGET = [
    "I like going to school every day.",
    "I do not go to school every day.",
    "We will go tomorrow.",
]


def exact_chain(kind="token_overlap"):
    return ComparatorChain((Comparator(kind, 1.0),))


def window_shuffle(lines, rng, width=10):
    out = []
    for start in range(0, len(lines), width):
        block = list(lines[start : start + width])
        rng.shuffle(block)
        out.extend(block)
    return out


def test_01_no_line_is_lost_across_randomized_corpora():
    rng = random.Random(1)
    config = AlignmentConfig(chain=exact_chain(), window=1, lookahead_depth=1)
    for _ in range(1000):
        n = rng.randint(1, 500)
        lines = [f"w{i} n{(i * 31) % 257} t{(i * 17) % 127}" for i in range(n)]
        kept = [line for line in lines if rng.random() >= 0.1]
        rng.shuffle(kept)
        src = Corpus("src", lines)
        tgt = Corpus("tgt", kept)
        trans = Corpus("y", lines)
        result = align(src, tgt, trans, config)
        assert result.counts()["L"] == n == len(result.decisions)
        assert sorted(d.source_index for d in result.decisions) == list(range(n))

    # paper-scale mirror: the shipped 1005-line corpus with a dropped and
    # locally shuffled counterpart still yields exactly 1005 output pairs
    src = load_corpus(FIXTURES / "parallel_1005.src", "src")
    tgt = load_corpus(FIXTURES / "parallel_1005.tgt", "tgt")
    result = align(src, tgt, Corpus("y", src.lines),
                   AlignmentConfig(chain=exact_chain(), window=20))
    counts = result.counts()
    assert counts["L"] == len(result.decisions) == 1005
    assert counts["A"] + counts["T"] + counts["D"] == 1005


def test_02_alignment_score_matches_exact_rational_oracle():
    rng = random.Random(2)
    checked = 0
    while checked < 10_000:
        a, m, t, d = (rng.randint(0, 400) for _ in range(4))
        total = a + m + t + d
        if total == 0:
            continue
        assert alignment_score(a, m, t, d, total) == score_oracle(a, m, t, d, total)
        checked += 1

    fixtures = [
        ((100, 0, 0, 0, 100), 100),
        ((90, 5, 5, 0, 100), 91),
        ((0, 0, 50, 0, 50), 40),
        ((9, 1, 0, 0, 10), 88),
        ((8, 0, 0, 2, 10), 100),
    ]
    for counts, expected in fixtures:
        assert alignment_score(*counts) == expected


def test_03_ratio_equals_recursive_matching_block_oracle():
    # the full cross product of strings up to length 8 over {a,b,c} runs to
    # tens of millions of pairs; short lengths are covered exhaustively and
    # the rest by a seeded 100k sample
    alphabet = "abc"
    strings = [""]
    frontier = [""]
    for _ in range(8):
        frontier = [s + ch for s in frontier for ch in alphabet]
        strings.extend(frontier)
    short = [s for s in strings if len(s) <= 4]
    pairs = [(a, b) for a in short for b in short]
    rng = random.Random(3)
    while len(pairs) < 100_000:
        pairs.append(
            (strings[rng.randrange(len(strings))], strings[rng.randrange(len(strings))])
        )
    for a, b in pairs:
        assert ratio(a, b) == float(brute_ratio(a, b)), (a, b)
    assert ratio("abxcd", "abcd") == 8 / 9


def test_04_bleu_identity_fixture_and_additivity():
    rng = random.Random(4)
    vocab = "the cat dog runs sleeps fast slow very quite street home park".split()

    identity = []
    for _ in range(100):
        toks = [rng.choice(vocab) for _ in range(rng.randint(4, 12))]
        identity.append(bleu_stats(toks, toks))
    assert bleu(NgramStats(*ngram_stats_sum(identity, 4))) == 1.0

    fix = bleu_stats("a b c d".split(), "a b c d e".split(), max_order=2)
    assert abs(bleu(fix) - math.exp(-0.25)) <= 1e-12

    noisy = list(identity)
    for _ in range(100):
        ref = [rng.choice(vocab) for _ in range(rng.randint(4, 12))]
        hyp = [rng.choice(vocab) if rng.random() < 0.2 else w for w in ref]
        noisy.append(bleu_stats(hyp, ref))
    total = NgramStats(*ngram_stats_sum(noisy, 4))
    base = bleu(total)
    assert base > 0.0
    for _ in range(100):
        rng.shuffle(noisy)
        k = rng.randrange(len(noisy) + 1)
        left = ngram_stats_sum(noisy[:k], 4)
        right = ngram_stats_sum(noisy[k:], 4)
        assert ngram_stats_sum([left, right], 4) == total
        assert bleu(NgramStats(*ngram_stats_sum([left, right], 4))) == base


def test_05_edit_rate_fixtures_and_greedy_shift_bound():
    assert ter("a b c d".split(), "a b c d".split()) == 0.0
    assert cer("same text", "same text") == 0.0

    hyp, ref = "the cat sat on mats".split(), "the cat sat on mat".split()
    oracle = levenshtein_matrix(hyp, ref)
    assert oracle == 1
    assert ter(hyp, ref) == oracle / len(ref) == 0.2

    char_oracle = levenshtein_matrix("abc", "abd")
    assert char_oracle == 1
    assert cer("abc", "abd") == char_oracle / 3

    assert ter("b a c d".split(), "a b c d".split()) == 0.25

    rng = random.Random(5)
    vocab = list("abcdef")
    for _ in range(1000):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        assert ter_edits(hyp, ref) <= levenshtein_matrix(hyp, ref)


def test_06_lookahead_defers_to_the_strictly_better_later_line():
    src = Corpus("src", ("zrodlo jeden", "zrodlo dwa"))
    trans = Corpus("y", LOOKAHEAD_TRANS)
    tgt = Corpus("tgt", LOOKAHEAD_TARGET)
    config = AlignmentConfig(
        chain=ComparatorChain((Comparator("matching_blocks_ratio", 0.6),)),
        window=0,
        lookahead_depth=1,
    )
    result = align(src, tgt, trans, config)
    by_source = {d.source_index: d for d in result.decisions}
    # line 0 must NOT take "I do not go ..." even though it clears the
    # threshold there; the next translation matches that line strictly better
    assert by_source[0].text == "I like going to school every day."
    assert by_source[1].text == "I do not go to school every day."
    assert by_source[0].outcome == by_source[1].outcome == ALIGNED


def test_07_permutation_recovery_and_noisy_alignment_quality(tmp_path):
    # clean recovery: identity translations, target shuffled in width-10
    # windows, search window 20 -> every line comes back
    rng = random.Random(7)

    def word():
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))

    lines = [" ".join(word() for _ in range(4)) + f" u{i}" for i in range(500)]
    source_path = tmp_path / "clean.src"
    source_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    src = load_corpus(source_path, "src")
    trans = load_corpus(source_path, "tgt")
    tgt = Corpus("tgt", window_shuffle(lines, rng))
    result = align(src, tgt, trans, AlignmentConfig(chain=exact_chain(), window=20))
    card = evaluate_against_gold(result, lines)
    assert card.aligned == 500
    assert card.score == 100

    # noisy run: ~40% of translations get one word swapped for a synonym
    # known to the lexicon, and 5% of target lines disappear entirely
    base_lines, trans_lines, entries = [], [], {}
    for i in range(500):
        toks = [word() for _ in range(4)]
        base_lines.append(" ".join(toks) + f" u{i}")
        perturbed = list(toks)
        if rng.random() < 0.4:
            pos = rng.randrange(4)
            alt = word()
            entries[alt] = (toks[pos],)
            perturbed[pos] = alt
        trans_lines.append(" ".join(perturbed) + f" u{i}")
    dropped = set(rng.sample(range(500), 25))
    target_lines = [base_lines[i] for i in range(500) if i not in dropped]

    chain = ComparatorChain(
        (
            Comparator("token_overlap", 0.99),
            Comparator("matching_blocks_ratio", 0.95),
            Comparator("synonym_ratio", 0.9),
        )
    )
    config = AlignmentConfig(
        chain=chain,
        window=30,
        lookahead_depth=1,
        lexicon=entries,
    )
    result = align(
        Corpus("src", [f"zrodlo {i}" for i in range(500)]),
        Corpus("tgt", window_shuffle(target_lines, rng)),
        Corpus("y", trans_lines),
        config,
    )
    card = evaluate_against_gold(result, base_lines)
    assert card.total == 500
    assert card.score >= 95


def test_08_threshold_search_matches_grid_scan_with_log_evaluations(monkeypatch):
    letters = "abcdefghijklmnopqrst"
    trans, target = [], []
    for i in range(5):
        block, filler = letters[4 * i : 4 * i + 2], letters[4 * i + 2 : 4 * i + 4]
        trans.append(block * 2)  # ratio against its target line is exactly 0.5
        target.append(block + filler)
    job = TuningJob(
        source=Corpus("src", [f"zrodlo {i}" for i in range(5)]),
        target=Corpus("tgt", target),
        trans=Corpus("y", trans),
        gold=target,
        config=AlignmentConfig(
            chain=ComparatorChain((Comparator("matching_blocks_ratio", 0.9),)), window=0
        ),
        resolution=1 / 256,
    )

    probes = []

    def counting_align(*args):
        probes.append(args[3].chain)
        return align(*args)

    monkeypatch.setattr(tuning, "align", counting_align)
    outcome = tune_threshold(job, 0)
    monkeypatch.undo()

    grid_best = None
    for k in range(257):
        chain = job.config.chain.with_threshold(0, k / 256)
        config = AlignmentConfig(chain=chain, window=0, lookahead_depth=1)
        scored = evaluate_against_gold(
            align(job.source, job.target, job.trans, config), job.gold
        )
        if grid_best is None or scored.score > grid_best:
            grid_best = scored.score

    assert outcome.score == grid_best == 100
    assert outcome.threshold <= 0.5
    assert outcome.evaluations == len(probes)
    # bisection over a 1/256 grid: a handful of probes, nowhere near the 257
    # a full scan would need
    assert outcome.evaluations <= 3 * math.log2(256) + 2


def test_09_suite_is_hermetic_and_fast():
    # every endpoint literal in the test tree points at the loopback
    # interface; real translation traffic is impossible by construction
    url = re.compile(r"https?://([^/\s\"')]+)")
    for path in Path(__file__).parent.rglob("*.py"):
        for authority in url.findall(path.read_text(encoding="utf-8")):
            hostname = authority.split(":")[0].split("?")[0]
            if hostname.startswith("{"):  # template placeholder, not a host
                continue
            assert hostname in {"127.0.0.1", "localhost"}, (path.name, authority)
    assert time.monotonic() - _MODULE_START < 300.0
