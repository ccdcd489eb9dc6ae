import logging
import math
import random
from collections import Counter

import pytest

import transalign.similarity as sim
import transalign.tuning as tuning
from transalign.align import align
from transalign.corpus import Corpus
from transalign.errors import ConfigError, DataError
from transalign.metrics import evaluate_against_gold
from transalign.similarity import Comparator, ComparatorChain, ratio
from transalign.tuning import TuningJob, tune_chain, tune_threshold


def corpus(lines, language="x"):
    return Corpus.from_lines(lines, language)


def chain_of(threshold=0.7, kind="matching_blocks_ratio"):
    return ComparatorChain((Comparator(kind, threshold),))


def step_job(bounds=(), resolution=1 / 256):
    """Dev set whose score is a step function of the threshold.

    Each translation line is a doubled 2-letter block, each target line is
    that block plus 2 fresh letters, so the true pair's ratio is exactly
    0.5 and every cross pair scores 0. Any threshold <= 0.5 aligns all
    lines (S = 100); anything above rejects all of them (S = 40).
    """
    letters = "abcdefghijklmnopqrst"
    trans, target = [], []
    for i in range(5):
        block, filler = letters[4 * i : 4 * i + 2], letters[4 * i + 2 : 4 * i + 4]
        trans.append(block * 2)
        target.append(block + filler)
    assert all(ratio(t, g) == 0.5 for t, g in zip(trans, target))
    return TuningJob(
        source=corpus([f"zrodlo {i}" for i in range(5)], "src"),
        target=corpus(target, "tgt"),
        trans=corpus(trans, "tgt"),
        gold=list(target),
        chain_template=chain_of(0.9),
        bounds=bounds,
        resolution=resolution,
        window=0,
    )


def grid_scan(job, position, resolution):
    lo, hi = job.bounds[position]
    best = None
    steps = int(round((hi - lo) / resolution))
    for k in range(steps + 1):
        threshold = min(lo + k * resolution, hi)
        chain = job.chain_template.with_threshold(position, threshold)
        result = align(job.source, job.target, job.trans, job.config_for(chain))
        score = evaluate_against_gold(result, job.gold).score
        if best is None or score > best[1]:
            best = (threshold, score)
    return best


def test_step_function_finds_the_high_plateau():
    job = step_job()
    outcome = tune_threshold(job, 0)
    assert outcome.threshold <= 0.5
    assert outcome.score == 100


def test_step_function_matches_grid_scan_optimum():
    job = step_job(resolution=1 / 64)  # coarser grid keeps the scan fast
    outcome = tune_threshold(job, 0)
    _, grid_best_score = grid_scan(job, 0, 1 / 64)
    assert outcome.score == grid_best_score == 100


def test_evaluation_count_is_logarithmic():
    counter = []
    job = step_job()
    tune_threshold(job, 0, align_counter=counter)
    # 3 probes per halving of [0,1] down to 1/256, plus the opening probe
    bound = 3 * int(math.log2(256)) + 2
    assert len(counter) <= bound
    # far below the 257-point grid scan the search replaces
    assert len(counter) < 60


def test_narrow_bounds_terminate_within_three_evaluations():
    counter = []
    resolution = 1 / 256
    job = step_job(bounds=[(0.3, 0.3 + resolution)], resolution=resolution)
    outcome = tune_threshold(job, 0, align_counter=counter)
    assert len(counter) <= 3
    assert 0.3 <= outcome.threshold <= 0.3 + resolution


def test_flat_objective_returns_constant_score():
    lines = [f"same line {i} twice over" for i in range(5)]
    job = TuningJob(
        source=corpus(lines, "src"),
        target=corpus(lines, "tgt"),
        trans=corpus(lines, "tgt"),
        gold=list(lines),
        chain_template=chain_of(0.4),
        window=0,
    )
    outcome = tune_threshold(job, 0)
    assert outcome.score == 100
    assert 0.0 <= outcome.threshold <= 1.0
    assert all(score == 100 for _, score in outcome.trace)


def test_chosen_threshold_stays_within_bounds():
    job = step_job(bounds=[(0.2, 0.8)])
    outcome = tune_threshold(job, 0)
    assert 0.2 <= outcome.threshold <= 0.8
    assert outcome.score == 100
    assert all(0.2 <= t <= 0.8 for t, _ in outcome.trace)


def test_single_comparator_chain_reduces_to_tune_threshold():
    report = tune_chain(step_job())
    outcome = tune_threshold(step_job(), 0)
    assert report.thresholds == (outcome.threshold,)
    assert report.achieved_score == outcome.score
    assert report.evaluations == outcome.evaluations + 1


def test_two_comparators_on_duplicates_assemble_to_100():
    lines = [f"linia numer {i} w korpusie" for i in range(6)]
    job = TuningJob(
        source=corpus(lines, "src"),
        target=corpus(lines, "tgt"),
        trans=corpus(lines, "tgt"),
        gold=list(lines),
        chain_template=ComparatorChain(
            (Comparator("token_overlap", 0.9), Comparator("matching_blocks_ratio", 0.9))
        ),
        window=0,
    )
    report = tune_chain(job)
    assert report.achieved_score == 100
    assert all(outcome.score == 100 for outcome in report.outcomes)
    assert len(report.thresholds) == 2


def test_achieved_score_is_reproducible():
    job = step_job()
    report = tune_chain(job)
    chain = job.chain_template
    for position, threshold in enumerate(report.thresholds):
        chain = chain.with_threshold(position, threshold)
    rerun = align(job.source, job.target, job.trans, job.config_for(chain))
    assert evaluate_against_gold(rerun, job.gold).score == report.achieved_score


def test_empty_gold_fails_before_any_alignment():
    with pytest.raises(DataError):
        TuningJob(
            source=corpus(["a"], "src"),
            target=corpus(["a"], "tgt"),
            trans=corpus(["a"], "tgt"),
            gold=[],
            chain_template=chain_of(),
        )


def test_bad_bounds_rejected():
    for bounds in ([(0.5, 0.5)], [(0.9, 0.1)], [(-0.1, 0.5)], [(0.5, 1.1)]):
        with pytest.raises(ConfigError):
            step_job(bounds=bounds)


def test_mismatched_dev_lengths_rejected():
    with pytest.raises(DataError):
        TuningJob(
            source=corpus(["a", "b"], "src"),
            target=corpus(["a"], "tgt"),
            trans=corpus(["a"], "tgt"),
            gold=["a", "b"],
            chain_template=chain_of(),
        )


def test_small_dev_set_warns_but_runs(caplog):
    with caplog.at_level(logging.WARNING):
        job = step_job()
    assert any("lines" in record.message for record in caplog.records)
    assert tune_threshold(job, 0).score == 100


def test_report_serialization_and_config_fragment():
    report = tune_chain(step_job())
    payload = report.as_json_dict()
    assert set(payload) == {
        "thresholds",
        "achieved_score",
        "evaluations",
        "per_comparator",
    }
    assert payload["per_comparator"][0]["kind"] == "matching_blocks_ratio"
    fragment = report.config_fragment()
    assert fragment["chain"][0]["kind"] == "matching_blocks_ratio"
    assert fragment["chain"][0]["threshold"] == report.thresholds[0]


def drift_job(chain):
    """Dev set with shuffled targets, near-miss translations and a few
    unmatched lines, so every threshold probe changes some decisions."""
    rng = random.Random(5)
    words = ["".join(rng.choice("abcdefg") for _ in range(4)) for _ in range(40)]
    gold = [" ".join(rng.sample(words, 5)) + f" n{i}" for i in range(30)]
    trans = [line[: -rng.randrange(1, 6)] if rng.random() < 0.5 else line for line in gold]
    target = list(gold)
    for start in range(0, 30, 6):
        block = target[start : start + 6]
        rng.shuffle(block)
        target[start : start + 6] = block
    return TuningJob(
        source=corpus([f"zrodlo {i}" for i in range(30)], "src"),
        target=corpus(target[:-2], "tgt"),
        trans=corpus(trans, "tgt"),
        gold=gold,
        chain_template=chain,
        bounds=[(0.5, 1.0)] * len(chain),
        resolution=1 / 32,
        window=6,
    )


def test_shared_pair_table_gives_the_same_report(monkeypatch):
    chain = ComparatorChain(
        (Comparator("token_overlap", 0.9), Comparator("matching_blocks_ratio", 0.9))
    )
    shared = tune_chain(drift_job(chain))
    real_align = tuning.align

    def align_on_fresh_table(source, target, trans, config, scores=None):
        return real_align(source, target, trans, config)

    monkeypatch.setattr(tuning, "align", align_on_fresh_table)
    assert tune_chain(drift_job(chain)) == shared


def test_tuning_computes_each_ratio_once(monkeypatch):
    calls = Counter()
    real_ratio = sim.ratio

    def counting_ratio(a, b, b_index=None):
        calls[a, b] += 1
        return real_ratio(a, b, b_index)

    monkeypatch.setattr(sim, "ratio", counting_ratio)
    job = drift_job(chain_of(0.9))
    report = tune_chain(job)
    assert report.evaluations > 3
    assert calls and max(calls.values()) == 1
