"""Threshold tuning by binary search against a gold-labeled development set.

Each comparator's acceptance threshold is searched in isolation (the
others stay at their template values), then the individually tuned
thresholds are assembled into one chain. The objective S(threshold) is not
guaranteed unimodal, so the search returns the best point it actually
evaluated, and the full score trace is reported for inspection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

from .align import AlignmentConfig, align
from .corpus import Corpus
from .errors import ConfigError, DataError
from .metrics import evaluate_against_gold
from .similarity import ComparatorChain, PairScores

log = logging.getLogger(__name__)

# Dev sets outside this line range tend to tune poorly (too little signal
# or too slow to iterate).
RECOMMENDED_DEV_LINES = (1_000, 10_000)


@dataclass
class TuningJob:
    """Everything one tuning run needs: dev corpora, gold, the alignment
    settings (their chain is the template whose thresholds are searched),
    per-comparator search bounds and the stop resolution."""

    source: Corpus
    target: Corpus
    trans: Corpus
    gold: Sequence[str]
    config: AlignmentConfig
    bounds: Sequence[tuple[float, float]] = ()
    resolution: float = 1 / 256
    # One pair-score table for every evaluation: thresholds change between
    # evaluations, raw scores do not.
    scores: PairScores = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        template = self.config.chain
        if not self.bounds:
            self.bounds = [(0.0, 1.0)] * len(template)
        if len(self.bounds) != len(template):
            raise ConfigError(f"{len(self.bounds)} bounds for {len(template)} comparators")
        for lo, hi in self.bounds:
            if not (0.0 <= lo < hi <= 1.0):
                raise ConfigError(f"invalid search bounds [{lo}, {hi}]")
        if not self.resolution > 0:  # NaN too
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        if len(self.trans) != len(self.source):
            raise DataError(
                f"dev translation has {len(self.trans)} lines, source has {len(self.source)}"
            )
        if len(self.gold) < len(self.source):
            raise DataError(
                f"gold covers {len(self.gold)} lines, dev source has {len(self.source)}"
            )
        if len(self.source) == 0:
            raise DataError("dev set is empty")
        lo, hi = RECOMMENDED_DEV_LINES
        if not lo <= len(self.source) <= hi:
            log.warning(
                "dev set has %d lines; %d-%d lines give the most reliable tuning",
                len(self.source), lo, hi,
            )
        self.scores = PairScores(
            self.trans.normalized, self.target.normalized, self.config.context()
        )


@dataclass
class TuningOutcome:
    """Result of tuning one comparator."""

    position: int
    threshold: float
    score: int
    evaluations: int
    trace: tuple[tuple[float, int], ...]


@dataclass
class TuningReport:
    """Assembled outcome of tuning a whole chain."""

    thresholds: tuple[float, ...]
    achieved_score: int
    evaluations: int
    outcomes: tuple[TuningOutcome, ...]
    chain: ComparatorChain = field(repr=False)

    def as_json_dict(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "achieved_score": self.achieved_score,
            "evaluations": self.evaluations,
            "per_comparator": [
                {
                    "position": outcome.position,
                    "kind": self.chain.comparators[outcome.position].kind,
                    "threshold": outcome.threshold,
                    "score": outcome.score,
                    "evaluations": outcome.evaluations,
                    "trace": [list(point) for point in outcome.trace],
                }
                for outcome in self.outcomes
            ],
        }

    def config_fragment(self) -> dict:
        """Chain settings in the shape the align command's config consumes."""
        return {
            "chain": [
                {"kind": comp.kind, "threshold": threshold}
                for comp, threshold in zip(self.chain.comparators, self.thresholds)
            ]
        }


def _score(job: TuningJob, chain: ComparatorChain) -> int:
    config = replace(job.config, chain=chain)
    result = align(job.source, job.target, job.trans, config, job.scores)
    return evaluate_against_gold(result, job.gold).score


def tune_threshold(job: TuningJob, comparator_position: int) -> TuningOutcome:
    """Binary-search one comparator's threshold, others fixed.

    Each step probes the midpoint and midpoint +/- resolution to find which
    side scores better, then halves toward it; on a tie the search moves
    low (more permissive thresholds). Evaluations are memoized, and the
    best (threshold, score) point ever evaluated is returned, not the final
    midpoint. ``evaluations`` counts the alignment runs, one per memo entry.
    """
    if not 0 <= comparator_position < len(job.config.chain):
        raise ConfigError(f"no comparator at position {comparator_position}")
    lo, hi = job.bounds[comparator_position]
    bound_lo, bound_hi = lo, hi
    resolution = job.resolution
    memo: dict[float, int] = {}

    def score_at(threshold: float) -> int:
        threshold = min(max(threshold, bound_lo), bound_hi)
        if threshold not in memo:
            chain = job.config.chain.with_threshold(comparator_position, threshold)
            memo[threshold] = _score(job, chain)
        return memo[threshold]

    score_at((lo + hi) / 2.0)
    while hi - lo > resolution:
        mid = (lo + hi) / 2.0
        below = score_at(mid - resolution)
        above = score_at(mid + resolution)
        score_at(mid)
        if above > below:
            lo = mid
        else:
            hi = mid

    best_threshold, best_score = max(memo.items(), key=lambda kv: (kv[1], -kv[0]))
    trace = tuple(sorted(memo.items()))
    return TuningOutcome(
        comparator_position, best_threshold, best_score, len(memo), trace
    )


def tune_chain(job: TuningJob) -> TuningReport:
    """Tune every comparator in isolation, then assemble and re-score.

    The report's achieved score comes from actually re-running alignment
    with the assembled chain, so it is reproducible from the thresholds.
    """
    outcomes = tuple(
        tune_threshold(job, position) for position in range(len(job.config.chain))
    )
    thresholds = tuple(outcome.threshold for outcome in outcomes)
    chain = job.config.chain
    for position, threshold in enumerate(thresholds):
        chain = chain.with_threshold(position, threshold)
    achieved = _score(job, chain)
    evaluations = sum(outcome.evaluations for outcome in outcomes) + 1
    return TuningReport(
        thresholds=thresholds,
        achieved_score=achieved,
        evaluations=evaluations,
        outcomes=outcomes,
        chain=job.config.chain,
    )
