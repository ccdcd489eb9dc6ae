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

from .corpus import Corpus
from .errors import ConfigError, DataError
from .lexicon import EMPTY_LEXICON, EMPTY_STOPWORDS, StopWordList, SynonymLexicon
from .similarity import (
    ChainContext,
    ChainDecision,
    ComparatorChain,
    PairScores,
    # Not called here (the loop scores through PairScores.decide): bound
    # only so that perfbench/tracer.py finds align.evaluate_chain to wrap.
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
    (0 disables lookahead); ``cap`` bounds the synonym variants per sentence.
    This is the one place these settings are defaulted and checked: each
    must be an ``int`` (not a ``bool``), else ``ConfigError``.
    """

    chain: ComparatorChain
    window: int = 20
    lookahead_depth: int = 1
    cap: int = 64
    stopwords: StopWordList = EMPTY_STOPWORDS
    lexicon: SynonymLexicon = EMPTY_LEXICON

    def __post_init__(self):
        for name, value in (("window", self.window), ("lookahead_depth", self.lookahead_depth)):
            if type(value) is not int or value < 0:
                raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
        if type(self.cap) is not int or self.cap < 1:
            raise ConfigError(f"cap must be an integer >= 1, got {self.cap!r}")

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
    i: int,
    pool: list[int],
    expected_position: float,
    chain: ComparatorChain,
    scores: PairScores,
) -> tuple[int, ChainDecision] | None:
    """Best accepted target index in ``pool`` for translation line ``i``,
    with its decision, or None. One table call scores the whole pool.

    Raw scores are compared whichever tier accepted them: a block ratio of
    0.9 beats a token Dice of 0.8. Ties on score break toward the smallest
    distance from the expected position, then the smallest target index.
    """
    accepted = scores.accepted(i, pool, chain)
    if not accepted:
        return None
    j, score, comparator = min(
        accepted, key=lambda hit: (-hit[1], abs(hit[0] - expected_position), hit[0])
    )
    return j, ChainDecision(True, score, comparator)


def lookahead_resolve(
    i: int,
    j: int,
    score: float,
    chain: ComparatorChain,
    depth: int,
    scores: PairScores,
) -> bool:
    """Keep target line ``j``, which line ``i`` accepts with ``score``?
    False defers it to a later line.

    The target is deferred iff some translation line within ``depth`` lines
    after ``i`` accepts it with a strictly higher score: its first accepting
    tier's raw score, whichever tier that is and whichever gave ``score``. A
    later line whose chain rejects the target cannot contest it.
    """
    last = min(i + depth, len(scores.trans) - 1)
    for later in range(i + 1, last + 1):
        decision = scores.decide(later, j, chain)
        if decision is not None and decision.score > score:
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

    ``scores`` is a pair-score table over the ``normalized`` columns of
    ``trans`` and ``target`` with the config's context; pass the same one
    to several runs that differ only in thresholds to score each pair
    once. By default a fresh one is used.
    """
    if len(trans) != len(source):
        raise DataError(
            f"translation corpus has {len(trans)} lines, source has {len(source)}"
        )
    context = config.context()
    if scores is None:
        scores = PairScores(trans.normalized, target.normalized, context)
    elif (
        scores.trans is not trans.normalized
        or scores.target is not target.normalized
        or scores.context != context
    ):
        raise ConfigError("pair-score table belongs to other corpora or comparator settings")
    n_source, n_target = len(source), len(target)
    gap = abs(n_source - n_target)
    unconsumed = list(range(n_target))

    decisions: list[AlignmentDecision] = []
    pairs: list[tuple[str, str]] = []
    aligned = translated = filled = 0
    for i in range(n_source):
        expected = i * n_target / n_source
        lo, hi = 0, len(unconsumed)
        if config.window > 0:
            lo = bisect_left(unconsumed, expected - config.window)
            hi = bisect_right(unconsumed, expected + config.window)
        pool = unconsumed[lo:hi]
        chosen = select_candidate(i, pool, expected, config.chain, scores)
        while chosen is not None and not lookahead_resolve(
            i, chosen[0], chosen[1].score, config.chain, config.lookahead_depth, scores
        ):
            pool.remove(chosen[0])  # at most one retry per candidate
            chosen = select_candidate(i, pool, expected, config.chain, scores)
        if chosen is not None:
            j, decision = chosen
            del unconsumed[bisect_left(unconsumed, j)]
            record = AlignmentDecision(
                i, ALIGNED, target[j], j, decision.score, decision.comparator.kind
            )
            aligned += 1
        elif filled < gap:
            record = AlignmentDecision(i, FILLED, trans[i])
            filled += 1
        else:
            record = AlignmentDecision(i, TRANSLATED, trans[i])
            translated += 1
        decisions.append(record)
        pairs.append((source[i], record.text))

    return AlignmentResult(
        decisions=tuple(decisions),
        output_pairs=tuple(pairs),
        aligned_count=aligned,
        translated_count=translated,
        disproportion_count=filled,
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
    decisions and counts are enough for gold-based scoring. The records
    must hold one decision for each source index ``0..L-1`` and agree with
    the trailer's ``A``/``T``/``D`` counts, as ``write_alignment`` writes
    them; anything else is a ``DataError``.
    """
    try:
        # Split on LF only: text fields may hold U+2028 and the like raw.
        lines = Path(report_path).read_text(encoding="utf-8").split("\n")
        objects = [json.loads(line) for line in lines if line.strip()]
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"malformed report {report_path}: {exc}") from exc
    if not objects:
        raise DataError(f"empty report file: {report_path}")
    if not all(isinstance(obj, dict) for obj in objects):
        raise DataError(f"report {report_path} has a line that is not a JSON object")
    trailer = objects[-1]
    for key in ("A", "T", "D", "L"):
        if type(trailer.get(key)) is not int:
            raise DataError(f"report {report_path} has no counts trailer")
    unmatched = trailer.get("unmatched_targets", [])
    if not isinstance(unmatched, list) or not all(type(j) is int for j in unmatched):
        raise DataError(f"report trailer has no valid unmatched_targets: {unmatched!r}")
    decisions = []
    for record in objects[:-1]:
        outcome = record.get("outcome")
        if outcome not in (ALIGNED, TRANSLATED, FILLED):
            raise DataError(f"report record has unknown outcome: {outcome!r}")
        source_index = record.get("source_index")
        if type(source_index) is not int or source_index < 0:
            raise DataError(f"report record has no valid source_index: {source_index!r}")
        text = record.get("text", "")
        if not isinstance(text, str):
            raise DataError(f"report record has no valid text: {text!r}")
        decisions.append(
            AlignmentDecision(
                source_index=source_index,
                outcome=outcome,
                text=text,
                target_index=record.get("target_index"),
                score=record.get("score"),
                comparator=record.get("comparator"),
            )
        )
    total = trailer["L"]
    if sorted(decision.source_index for decision in decisions) != list(range(total)):
        raise DataError(
            f"report {report_path} has {len(decisions)} records, not one for each "
            f"source index 0..{total - 1} of its trailer's L={total}"
        )
    for key, outcome in (("A", ALIGNED), ("T", TRANSLATED), ("D", FILLED)):
        count = sum(decision.outcome == outcome for decision in decisions)
        if trailer[key] != count:
            raise DataError(
                f"report {report_path} has {count} {outcome} records but its trailer says "
                f"{key}={trailer[key]}"
            )
    return AlignmentResult(
        decisions=tuple(decisions),
        output_pairs=(),
        aligned_count=trailer["A"],
        translated_count=trailer["T"],
        disproportion_count=trailer["D"],
        total=total,
        unmatched_target_indices=tuple(unmatched),
    )
