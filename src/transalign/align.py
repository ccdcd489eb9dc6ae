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
from json.encoder import encode_basestring as quote  # the encoder's, with ensure_ascii=False
from math import isfinite
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus, Frozen
from .errors import ConfigError, DataError
from .lexicon import DEFAULT_CAP, EMPTY_LEXICON, EMPTY_STOPWORDS
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


class AlignmentConfig(Frozen):
    """Knobs for one alignment run.

    ``window`` is the candidate-search half-width around the expected
    target position (0 disables windowing, i.e. full scan); ``lookahead_depth``
    is how many following translation lines may contest a selected candidate
    (0 disables lookahead); ``cap`` bounds the synonym variants per sentence.
    This is the one place these settings are defaulted. ``window`` and
    ``lookahead_depth`` must each be an ``int`` (not a ``bool``) >= 0, else
    ``ConfigError``; ``cap`` is checked by the ``ChainContext`` it goes into.
    """

    __slots__ = _fields = ("chain", "window", "lookahead_depth", "cap", "stopwords", "lexicon")

    def __init__(
        self,
        chain: ComparatorChain,
        window: int = 20,
        lookahead_depth: int = 1,
        cap: int = DEFAULT_CAP,
        stopwords: frozenset[str] = EMPTY_STOPWORDS,
        lexicon: dict[str, tuple[str, ...]] = EMPTY_LEXICON,
    ):
        for name, value in (("window", window), ("lookahead_depth", lookahead_depth)):
            if type(value) is not int or value < 0:
                raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
        self._set(chain, window, lookahead_depth, cap, stopwords, lexicon)
        self.context()  # checks cap

    def context(self) -> ChainContext:
        return ChainContext(self.stopwords, self.lexicon, self.cap)


class AlignmentDecision(NamedTuple):
    """Per-source-line outcome: a consumed target line, a translation used
    verbatim, or a fill attributed to input-file size disproportion."""

    source_index: int
    outcome: str
    text: str
    target_index: int | None = None
    score: float | None = None
    comparator: str | None = None


class AlignmentResult(NamedTuple):
    """One decision per source line, in source order, and the target lines
    no decision consumed. Counts and output lines are derived from these."""

    decisions: tuple[AlignmentDecision, ...]
    unmatched_target_indices: tuple[int, ...] = ()

    def counts(self) -> dict[str, int]:
        """``A``, ``T`` and ``D``, the aligned, translated and filled
        decisions, and ``L``, all decisions: the one place outcomes map to
        these letters. An unknown outcome is a ``DataError``."""
        outcomes = [decision.outcome for decision in self.decisions]
        counts = {
            "A": outcomes.count(ALIGNED),
            "T": outcomes.count(TRANSLATED),
            "D": outcomes.count(FILLED),
            "L": len(outcomes),
        }
        if counts["A"] + counts["T"] + counts["D"] != counts["L"]:
            unknown = next(o for o in outcomes if o not in (ALIGNED, TRANSLATED, FILLED))
            raise DataError(f"unknown decision outcome: {unknown!r}")
        return counts


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
    once; such a table keeps every entry. By default a fresh one is used,
    and each line's and each target's entries are dropped once the window
    has passed them, so it holds about the window, not the corpus; then
    ``trans`` and ``target`` are also told the first line each may still
    be read at, by ``forget``, which a corpus read from its file
    (``corpusfile.CorpusFile``) uses to hold only the window's lines.
    """
    if len(trans) != len(source):
        raise DataError(
            f"translation corpus has {len(trans)} lines, source has {len(source)}"
        )
    context = config.context()
    own_table = scores is None
    if own_table:
        scores = PairScores(trans.normalized, target.normalized, context)
    elif (
        scores.trans is not trans.normalized
        or scores.target is not target.normalized
        or scores.context != context
    ):
        raise ConfigError("pair-score table belongs to other corpora or comparator settings")
    n_source, n_target = len(source), len(target)
    gap = abs(n_source - n_target)
    reach = config.window or n_target  # window 0: every target is in reach
    live: list[int] = []  # the unconsumed targets in the window, ascending
    unmatched: list[int] = []  # the unconsumed targets the window has passed
    entering = 0  # the next target to enter the window

    decisions: list[AlignmentDecision] = []
    filled = 0
    for i in range(n_source):
        expected = i * n_target / n_source
        while entering < n_target and entering <= expected + reach:
            live.append(entering)
            entering += 1
        while live and live[0] < expected - reach:
            unmatched.append(live.pop(0))
        pool = live[:]
        chosen = select_candidate(i, pool, expected, config.chain, scores)
        while chosen is not None and not lookahead_resolve(
            i, chosen[0], chosen[1].score, config.chain, config.lookahead_depth, scores
        ):
            pool.remove(chosen[0])  # at most one retry per candidate
            chosen = select_candidate(i, pool, expected, config.chain, scores)
        if chosen is not None:
            j, decision = chosen
            live.remove(j)
            kind = decision.comparator.kind
            decisions.append(AlignmentDecision(i, ALIGNED, target[j], j, decision.score, kind))
        elif filled < gap:
            decisions.append(AlignmentDecision(i, FILLED, trans[i]))
            filled += 1
        else:
            decisions.append(AlignmentDecision(i, TRANSLATED, trans[i]))
        if own_table:  # no later step reads line i or a target left of live
            low = live[0] if live else entering
            scores.forget(i + 1, low)
            trans.forget(i + 1)
            target.forget(low)
    unmatched += live
    unmatched += range(entering, n_target)
    return AlignmentResult(tuple(decisions), tuple(unmatched))


def write_alignment(
    result: AlignmentResult, source: Corpus, out_source_path, out_target_path, report_path
) -> None:
    """Write the two parallel output files plus the JSON-lines report.

    Output line i is ``source[i]`` and decision i's text, so ``source`` must
    be the corpus the result was aligned from (its line count is checked).
    Report: one record per decision with its details, then a trailer
    object with the counts and the never-consumed target indices, each
    the bytes of ``json.JSONEncoder(ensure_ascii=False)``. Each file is
    written line by line, in that order, the report last; ``source`` is
    iterated once, while its file is written.
    """
    if len(source) != len(result.decisions):
        raise DataError(
            f"source corpus has {len(source)} lines, the result has {len(result.decisions)}"
        )
    trailer = {**result.counts(), "unmatched_targets": list(result.unmatched_target_indices)}
    encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps makes one per call

    def records():
        for decision in result.decisions:
            i, outcome, text, j, score, comparator = decision
            # The encoder's bytes, formatted directly when each field has
            # the type align() gives it and the score is finite.
            if type(i) is int and type(outcome) is str and type(text) is str:
                if outcome != ALIGNED:
                    yield f'{{"source_index": {i}, "outcome": {quote(outcome)}, "text": {quote(text)}}}\n'
                    continue
                if type(j) is int and type(score) is float and isfinite(score) and type(comparator) is str:
                    yield (
                        f'{{"source_index": {i}, "outcome": "{ALIGNED}", "target_index": {j}, '
                        f'"score": {score!r}, "comparator": {quote(comparator)}, "text": {quote(text)}}}\n'
                    )
                    continue
            record: dict = {"source_index": i, "outcome": outcome}
            if outcome == ALIGNED:
                record.update(target_index=j, score=score, comparator=comparator)
            record["text"] = text
            yield encode(record) + "\n"
        yield encode(trailer) + "\n"

    for path, lines in (
        (out_source_path, (line + "\n" for line in source)),
        (out_target_path, (decision.text + "\n" for decision in result.decisions)),
        (report_path, records()),
    ):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)


def read_report(report_path) -> AlignmentResult:
    """Rebuild a result from a JSON-lines report, decisions in source order.

    The records must hold one decision for each source index ``0..L-1``
    and agree with the trailer's ``A``/``T``/``D`` counts, as
    ``write_alignment`` writes them. An aligned record needs an int
    ``target_index`` >= 0, a ``score`` in [0, 1] and a string
    ``comparator``; other records keep only their outcome and text. The
    aligned records' target indices and the trailer's ``unmatched_targets``
    are distinct ints >= 0, as each target line is consumed at most once.
    Anything else is a ``DataError``.
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
    if not isinstance(unmatched, list) or not all(type(j) is int and j >= 0 for j in unmatched):
        raise DataError(f"report trailer has no valid unmatched_targets: {unmatched!r}")
    decisions = []
    for record in objects[:-1]:
        source_index = record.get("source_index")
        if type(source_index) is not int or source_index < 0:
            raise DataError(f"report record has no valid source_index: {source_index!r}")
        text = record.get("text", "")
        if not isinstance(text, str):
            raise DataError(f"report record has no valid text: {text!r}")
        outcome = record.get("outcome")
        if outcome != ALIGNED:
            decisions.append(AlignmentDecision(source_index, outcome, text))
            continue
        j, score, comparator = (record.get(key) for key in ("target_index", "score", "comparator"))
        if type(j) is not int or j < 0:
            raise DataError(f"aligned report record has no valid target_index: {j!r}")
        if type(score) not in (int, float) or not 0.0 <= score <= 1.0:
            raise DataError(f"aligned report record has no valid score: {score!r}")
        if not isinstance(comparator, str):
            raise DataError(f"aligned report record has no valid comparator: {comparator!r}")
        decisions.append(AlignmentDecision(source_index, outcome, text, j, score, comparator))
    decisions.sort(key=lambda decision: decision.source_index)
    total = trailer["L"]
    if [decision.source_index for decision in decisions] != list(range(total)):
        raise DataError(
            f"report {report_path} has {len(decisions)} records, not one for each "
            f"source index 0..{total - 1} of its trailer's L={total}"
        )
    targets = [d.target_index for d in decisions if d.outcome == ALIGNED] + unmatched
    if len(set(targets)) != len(targets):
        raise DataError(
            f"report {report_path} names a target index twice in its aligned records "
            "and unmatched_targets"
        )
    result = AlignmentResult(tuple(decisions), tuple(unmatched))
    counts = result.counts()
    stated = {key: trailer[key] for key in counts}
    if stated != counts:
        raise DataError(f"report {report_path} records give {counts} but its trailer says {stated}")
    return result
