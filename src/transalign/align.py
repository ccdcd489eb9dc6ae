"""Core alignment: match each intermediate-translation line to the best
target line, resolve conflicts by looking ahead, fill the gaps with the
translations themselves, and never lose a source line.

Other aligners leave holes when they cannot match a line; here every source
line yields exactly one output pair, either a real target sentence, the
machine translation standing in for a missing one, or a fill attributed to
the raw size difference between the two input files.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, Sentence
from .errors import ConfigError, DataError
from .lexicon import EMPTY_LEXICON, EMPTY_STOPWORDS, StopWordList, SynonymLexicon
from .similarity import (
    ChainContext,
    ChainDecision,
    ComparatorChain,
    PairScores,
    evaluate_chain,
)

ALIGNED = "aligned"
TRANSLATED = "translated"
FILLED = "filled"


@dataclass(frozen=True)
class AlignmentConfig:
    """Knobs for one alignment run.

    ``window`` is the candidate-search half-width around the expected
    target position (0 disables windowing, i.e. full scan); ``lookahead_depth``
    is how many following translation lines may contest a selected candidate
    (0 disables lookahead).
    """

    chain: ComparatorChain
    window: int = 20
    lookahead_depth: int = 1
    cap: int = 64
    stopwords: StopWordList = EMPTY_STOPWORDS
    lexicon: SynonymLexicon = EMPTY_LEXICON

    def __post_init__(self):
        if self.window < 0:
            raise DataError(f"window must be >= 0, got {self.window}")
        if self.lookahead_depth < 0:
            raise DataError(f"lookahead_depth must be >= 0, got {self.lookahead_depth}")

    def context(self) -> ChainContext:
        return ChainContext(self.stopwords, self.lexicon, self.cap)


@dataclass(frozen=True)
class AlignmentDecision:
    """Per-source-line outcome: a consumed target line, a translation used
    verbatim, or a fill attributed to input-file size disproportion."""

    source_index: int
    outcome: str
    text: str
    target_index: int | None = None
    score: float | None = None
    comparator: str | None = None
    disproportion: bool = False


@dataclass(frozen=True)
class AlignmentResult:
    decisions: tuple[AlignmentDecision, ...]
    output_pairs: tuple[tuple[str, str], ...]
    aligned_count: int
    translated_count: int
    disproportion_count: int
    total: int
    unmatched_target_indices: tuple[int, ...] = ()


def select_candidate(
    trans_line: Sentence,
    pool: list[Sentence],
    expected_position: float,
    chain: ComparatorChain,
    context: ChainContext,
    scores: PairScores | None = None,
) -> tuple[Sentence, ChainDecision] | None:
    """Best accepted candidate for one translation line, or None.

    Ties on score break toward the smallest distance from the expected
    position, then the smallest target index.
    """
    best = None
    best_key = None
    for candidate in pool:
        decision = evaluate_chain(trans_line, candidate, chain, context, scores)
        if not decision.accepted:
            continue
        key = (-decision.score, abs(candidate.index - expected_position), candidate.index)
        if best_key is None or key < best_key:
            best, best_key = (candidate, decision), key
    return best


def lookahead_resolve(
    source_index: int,
    candidate: Sentence,
    trans: Corpus,
    chain: ComparatorChain,
    depth: int,
    context: ChainContext = ChainContext(),
    current_score: float | None = None,
    scores: PairScores | None = None,
) -> bool:
    """Keep the candidate for this line? False defers it to a later line.

    The candidate is deferred iff some translation line within ``depth``
    lines after this one accepts it with a strictly higher score. A later
    line whose chain rejects the candidate cannot contest it.
    """
    if current_score is None:
        current_score = evaluate_chain(
            trans[source_index], candidate, chain, context, scores
        ).score
    last = min(source_index + depth, len(trans) - 1)
    for later in range(source_index + 1, last + 1):
        decision = evaluate_chain(trans[later], candidate, chain, context, scores)
        if decision.accepted and decision.score > current_score:
            return False
    return True


def align(
    source: Corpus,
    target: Corpus,
    trans: Corpus,
    config: AlignmentConfig,
    scores: PairScores | None = None,
) -> AlignmentResult:
    """Assign every source line a target-side line.

    Source lines are processed in order. For each, the unconsumed target
    lines within the window around the expected position are scored with
    the comparator chain; the best accepted one is taken unless a
    following translation line contests it (lookahead), in which case the
    line re-selects without that candidate. Lines with no accepted
    candidate are filled with their own translation; the first
    |len(source) - len(target)| such fills are attributed to the size
    disproportion of the inputs. Each target line is consumed at most once
    and the output always has exactly one pair per source line.

    ``scores`` is a pair-score table over ``trans`` and ``target`` with the
    config's context; pass the same one to several runs that differ only
    in thresholds to score each pair once. By default a fresh one is used.
    """
    if len(trans) != len(source):
        raise DataError(
            f"translation corpus has {len(trans)} lines, source has {len(source)}"
        )
    context = config.context()
    if scores is None:
        scores = PairScores(trans, target, context)
    elif scores.trans is not trans or scores.target is not target or scores.context != context:
        raise ConfigError("pair-score table belongs to other corpora or comparator settings")
    n_source, n_target = len(source), len(target)
    unconsumed = list(range(n_target))

    picks: list[tuple[int, ChainDecision] | None] = []
    for i in range(n_source):
        expected = i * n_target / n_source
        lo, hi = 0, len(unconsumed)
        if config.window > 0:
            lo = bisect_left(unconsumed, expected - config.window)
            hi = bisect_right(unconsumed, expected + config.window)
        candidates = [target.sentences[j] for j in unconsumed[lo:hi]]
        chosen = None
        while candidates:
            selected = select_candidate(
                trans[i], candidates, expected, config.chain, context, scores
            )
            if selected is None:
                break
            candidate, decision = selected
            if lookahead_resolve(
                i, candidate, trans, config.chain, config.lookahead_depth,
                context, decision.score, scores,
            ):
                chosen = (candidate.index, decision)
                del unconsumed[bisect_left(unconsumed, candidate.index)]
                break
            # at most one retry per candidate
            candidates = [c for c in candidates if c is not candidate]
        picks.append(chosen)

    fill_quota = min(abs(n_source - n_target), sum(1 for p in picks if p is None))
    decisions: list[AlignmentDecision] = []
    pairs: list[tuple[str, str]] = []
    aligned = translated = attributed = 0
    for i, pick in enumerate(picks):
        if pick is not None:
            target_index, decision = pick
            text = target[target_index].raw
            decisions.append(
                AlignmentDecision(
                    i,
                    ALIGNED,
                    text,
                    target_index=target_index,
                    score=decision.score,
                    comparator=decision.comparator.kind,
                )
            )
            aligned += 1
        else:
            text = trans[i].raw
            if attributed < fill_quota:
                decisions.append(
                    AlignmentDecision(i, FILLED, text, disproportion=True)
                )
                attributed += 1
            else:
                decisions.append(AlignmentDecision(i, TRANSLATED, text))
                translated += 1
        pairs.append((source[i].raw, text))

    return AlignmentResult(
        decisions=tuple(decisions),
        output_pairs=tuple(pairs),
        aligned_count=aligned,
        translated_count=translated,
        disproportion_count=attributed,
        total=n_source,
        unmatched_target_indices=tuple(unconsumed),
    )


def write_alignment(
    result: AlignmentResult, out_source_path, out_target_path, report_path
) -> None:
    """Write the two parallel output files plus the JSON-lines report.

    Report: one record per output line with the decision details, then a
    trailer object with the counts and the never-consumed target indices.
    """
    source_lines = "".join(src + "\n" for src, _ in result.output_pairs)
    target_lines = "".join(tgt + "\n" for _, tgt in result.output_pairs)
    Path(out_source_path).write_text(source_lines, encoding="utf-8")
    Path(out_target_path).write_text(target_lines, encoding="utf-8")

    records = []
    for decision in result.decisions:
        record: dict = {"source_index": decision.source_index, "outcome": decision.outcome}
        if decision.outcome == ALIGNED:
            record["target_index"] = decision.target_index
            record["score"] = decision.score
            record["comparator"] = decision.comparator
        record["text"] = decision.text
        records.append(record)
    trailer = {
        "A": result.aligned_count,
        "T": result.translated_count,
        "D": result.disproportion_count,
        "L": result.total,
        "unmatched_targets": list(result.unmatched_target_indices),
    }
    payload = "".join(
        json.dumps(record, ensure_ascii=False) + "\n" for record in records + [trailer]
    )
    Path(report_path).write_text(payload, encoding="utf-8")


def read_report(report_path) -> AlignmentResult:
    """Rebuild a scoreable result from a JSON-lines report.

    The report does not carry source text, so ``output_pairs`` stays empty;
    decisions and counts are enough for gold-based scoring.
    """
    lines = Path(report_path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"empty report file: {report_path}")
    try:
        objects = [json.loads(line) for line in lines if line.strip()]
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed report {report_path}: {exc}") from exc
    trailer = objects[-1]
    for key in ("A", "T", "D", "L"):
        if key not in trailer:
            raise DataError(f"report {report_path} has no counts trailer")
    decisions = []
    for record in objects[:-1]:
        outcome = record.get("outcome")
        if outcome not in (ALIGNED, TRANSLATED, FILLED):
            raise DataError(f"report record has unknown outcome: {outcome!r}")
        decisions.append(
            AlignmentDecision(
                source_index=record["source_index"],
                outcome=outcome,
                text=record.get("text", ""),
                target_index=record.get("target_index"),
                score=record.get("score"),
                comparator=record.get("comparator"),
                disproportion=outcome == FILLED,
            )
        )
    return AlignmentResult(
        decisions=tuple(decisions),
        output_pairs=(),
        aligned_count=trailer["A"],
        translated_count=trailer["T"],
        disproportion_count=trailer["D"],
        total=trailer["L"],
        unmatched_target_indices=tuple(trailer.get("unmatched_targets", ())),
    )
