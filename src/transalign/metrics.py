"""Alignment quality scoring and native BLEU / TER / CER implementations.

The alignment score folds the per-line outcomes into one integer:
aligned lines earn full credit, misaligned ones a small penalty,
machine-translation fills partial credit, and fills attributed to the raw
size difference between the input files full credit (they are nobody's
fault). BLEU/TER/CER work from per-sentence sufficient statistics that sum
across a corpus.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .corpus import normalize, position_masks, tokenize
from .errors import ConfigError, DataError, GoldMismatchError

if TYPE_CHECKING:
    from .align import AlignmentResult

BP_STANDARD = "standard"
BP_PAPER = "paper"


class ScoreCard(NamedTuple):
    """Outcome counters and the derived integer score."""

    aligned: int
    misaligned: int
    translated: int
    disproportion: int
    total: int
    score: int

    def as_json_dict(self) -> dict:
        # Wire names follow the score-output interface contract.
        return {
            "A": self.aligned,
            "M": self.misaligned,
            "T": self.translated,
            "D": self.disproportion,
            "L": self.total,
            "S": self.score,
        }


def alignment_score(
    aligned: int, misaligned: int, translated: int, disproportion: int, total: int
) -> int:
    """Integer alignment score: floor(20*(5*A - M + 2*T + 5*|D|) / L).

    Computed in exact integer arithmetic, so there is no floating-point
    drift at floor boundaries. Values outside [1, 100] are possible for
    degenerate inputs and are returned unclamped with a warning.
    """
    if total < 1:
        raise DataError("alignment score undefined for zero output lines")
    for name, value in (
        ("aligned", aligned),
        ("misaligned", misaligned),
        ("translated", translated),
        ("disproportion", disproportion),
    ):
        if value < 0:
            raise DataError(f"{name} count must be non-negative, got {value}")
    numerator = 20 * (5 * aligned - misaligned + 2 * translated + 5 * abs(disproportion))
    score = numerator // total
    if not 1 <= score <= 100:
        import logging  # not at the top: evaluate never logs

        logging.getLogger(__name__).warning(
            "alignment score %d outside the nominal 1..100 range", score
        )
    return score


def evaluate_against_gold(
    result: AlignmentResult, gold: Sequence[str] | Mapping[int, str]
) -> ScoreCard:
    """Classify decisions against a gold pairing and score them.

    An aligned decision counts as correct when its target text equals the
    gold text for that source line after normalization (gold files stay
    plain parallel text, no index annotations needed). Translation fills
    count toward the partial-credit class, disproportion fills toward the
    full-credit fill class.
    """
    from .align import ALIGNED  # not at the top: evaluate never loads align

    def gold_text(index: int) -> str:
        try:
            return gold[index]
        except (KeyError, IndexError):
            raise GoldMismatchError(
                f"gold reference has no entry for source index {index}"
            ) from None

    counts = result.counts()
    misaligned = sum(
        normalize(decision.text) != normalize(gold_text(decision.source_index))
        for decision in result.decisions
        if decision.outcome == ALIGNED
    )
    aligned = counts["A"] - misaligned
    translated, disproportion, total = counts["T"], counts["D"], counts["L"]
    score = alignment_score(aligned, misaligned, translated, disproportion, total)
    return ScoreCard(aligned, misaligned, translated, disproportion, total, score)


class NgramStats(NamedTuple):
    """Per-order n-gram match/total counts plus both lengths.

    Additive under corpus concatenation: summing the per-sentence vectors
    componentwise gives the corpus-level statistics.
    """

    matches: tuple[int, ...]
    totals: tuple[int, ...]
    hyp_len: int
    ref_len: int


def _ngram_counts(tokens: tuple, order: int) -> dict:
    counts: dict = {}
    get = counts.get
    for i in range(len(tokens) - order + 1):
        gram = tokens[i : i + order]
        counts[gram] = get(gram, 0) + 1
    return counts


def bleu_stats(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], max_order: int = 4
) -> NgramStats:
    """Clipped n-gram matches and totals for one hypothesis/reference pair.

    A hypothesis of n tokens has n - k + 1 n-grams of order k, so orders
    above n are zeros without counting.
    """
    hyp_tokens, ref_tokens = tuple(hyp_tokens), tuple(ref_tokens)
    matches = []
    for order in range(1, min(max_order, len(hyp_tokens)) + 1):
        ref_counts = _ngram_counts(ref_tokens, order)
        matched = 0
        for gram, count in _ngram_counts(hyp_tokens, order).items():
            if gram in ref_counts:
                matched += min(count, ref_counts[gram])
        matches.append(matched)
    totals = [len(hyp_tokens) - k for k in range(len(matches))]
    padding = [0] * (max_order - len(matches))
    return NgramStats(
        tuple(matches + padding), tuple(totals + padding), len(hyp_tokens), len(ref_tokens)
    )


def brevity_penalty(hyp_len: int, ref_len: int, form: str = BP_STANDARD) -> float:
    """Multiplicative penalty for hypotheses shorter than their references.

    1 when the hypothesis is longer; otherwise e^(1 - r/c) in the standard
    form, or e^((1 - r)/c) in the alternative "paper" form kept for
    comparison runs. An unknown ``form`` is a ``DataError`` at any lengths.
    """
    if form not in (BP_STANDARD, BP_PAPER):
        raise DataError(f"unknown brevity-penalty form: {form!r}")
    if hyp_len < 1:
        raise DataError("brevity penalty undefined for empty hypothesis")
    if hyp_len > ref_len:
        return 1.0
    if form == BP_STANDARD:
        return math.exp(1.0 - ref_len / hyp_len)
    return math.exp((1.0 - ref_len) / hyp_len)


def bleu(stats: NgramStats, bp_form: str = BP_STANDARD) -> float:
    """Uniformly weighted n-gram precision score in [0, 1] from summed
    statistics. Any zero precision makes the whole score zero."""
    order = len(stats.matches)
    if order == 0:
        raise DataError("BLEU needs n-gram statistics of at least one order")
    if stats.hyp_len == 0:
        raise DataError("BLEU undefined for an empty hypothesis corpus")

    weight = 1.0 / order
    log_sum = 0.0
    for matched, total in zip(stats.matches, stats.totals):
        precision = matched / total if total else 0.0
        if precision == 0.0:
            return 0.0
        log_sum += weight * math.log(precision)
    return brevity_penalty(stats.hyp_len, stats.ref_len, bp_form) * math.exp(log_sum)


def precisions(stats: NgramStats) -> list[float]:
    """Per-order n-gram precisions (0.0 where the hypothesis has no n-grams)."""
    return [
        matched / total if total else 0.0
        for matched, total in zip(stats.matches, stats.totals)
    ]


def edit_distance(a: Sequence, b: Sequence, b_masks: dict | None = None) -> int:
    """Unit-cost Levenshtein distance between two sequences of hashable items.

    Items match when they are equal as dict keys, so a ``str`` and a list
    of its characters compare item by item. Bit-parallel (Myers 1999, in
    Hyyrö's 2003 formulation): bit i of the vertical delta vectors
    ``vp``/``vn`` says whether row i of the current DP column is one
    more/one less than row i-1, so one item of ``a`` costs a handful of
    integer operations whatever the length of ``b``. Python ints make any
    length one word. Exact. ``b_masks``, when given, must be
    ``position_masks(b)``.
    """
    length = len(b)
    if not length:
        return len(a)
    full = (1 << length) - 1
    last = 1 << (length - 1)
    vp, vn, distance = full, 0, length
    get = (b_masks or position_masks(b)).get
    for item in a:
        eq = get(item, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
    return distance


def _kernel_states(eqs: list, vp: int, vn: int, distance: int, full: int, last: int) -> list:
    """The ``(vp, vn, distance)`` state of ``edit_distance``'s kernel, from
    the one given, before and after each match vector of ``eqs``.
    ``edit_distance`` keeps its own loop: building the states costs it
    about a tenth more per item."""
    states = [(vp, vn, distance)]
    for eq in eqs:
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
        states.append((vp, vn, distance))
    return states


def _best_shift(eqs: list, length: int, bound: int, floor: int, max_block: int) -> tuple:
    """The first shift, in ``ter_edits``'s scan order, of the hypothesis
    with match vectors ``eqs`` against a reference of ``length`` tokens
    whose distance is the lowest below ``bound``: ``(distance, (start,
    end, dest))``, or ``(bound, None)``. The block ``[start, end)`` goes
    to ``dest`` in the rest. A scan stops at a variant at ``floor``."""
    n, full, last = len(eqs), (1 << length) - 1, 1 << length >> 1
    states = _kernel_states(eqs, full, 0, length, full, last)
    best = None
    for size in range(1, min(n, max_block) + 1):
        for start in range(n - size + 1):
            end = start + size
            block, rest = eqs[start:end], eqs[:start] + eqs[end:]
            # the state after rest[:dest], for every dest
            starts = states[:start] + _kernel_states(eqs[end:], *states[start], full, last)
            for dest in range(n - size + 1):
                if -size <= dest - start < size:
                    continue  # unmoved, or the twin of a shift scanned before
                vp, vn, d = starts[dest]
                if d - (n - dest) >= bound:
                    continue  # each item left lowers the distance by one at most
                for eq in block + rest[dest:]:
                    d0 = (((eq & vp) + vp) ^ vp) | eq | vn
                    hp = vn | ~(d0 | vp)
                    hn = d0 & vp
                    if hp & last:
                        d += 1
                    elif hn & last:
                        d -= 1
                    hp = (hp << 1) | 1
                    vp = ((hn << 1) | ~(d0 | hp)) & full
                    vn = hp & d0
                if d < bound:
                    bound, best = d, (start, end, dest)
                    if d == floor:
                        return bound, best
    return bound, best


def ter_edits(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], max_shift_size: int = 10
) -> int:
    """Edit count for TER: greedy block shifts plus word edit distance.

    Hill-climbing: repeatedly apply the single block shift that most
    reduces the word edit distance, but only while a shift pays for its
    own cost of one (reduction of at least two); then the remaining edit
    distance is added. Never exceeds the shift-free edit distance. The
    search stops at the bag distance (Bartolini et al. 2002), the longer
    length minus the tokens the two share as multisets: a shift keeps the
    hypothesis's tokens, so every variant has the same bag distance, and
    no edit distance is below it. So no round runs once the distance is
    within one of it, and a round ends at the first variant that reaches
    it. Moving s tokens right past t others gives what moving those t left
    past the s gives, and the scan meets the move of the smaller block
    first, the right one at equal sizes: only that one is scored. A
    variant resumes the kernel after the prefix it shares with the rest of
    the hypothesis, and is dropped there if the items left cannot bring
    it below the best so far (Ukkonen 1985). All keep the first strictly
    best shift, so the result is the plain greedy's.
    """
    masks = position_masks(ref_tokens)
    left = {token: mask.bit_count() for token, mask in masks.items()}
    shared = 0
    for token in hyp_tokens:
        if left.get(token):
            left[token] -= 1
            shared += 1
    floor = max(len(hyp_tokens), len(ref_tokens)) - shared
    eqs = [masks.get(token, 0) for token in hyp_tokens]
    shifts = 0
    distance = edit_distance(hyp_tokens, ref_tokens, masks)
    while distance > floor + 1:
        # only a variant two or more edits better pays for its shift
        distance_after, best = _best_shift(eqs, len(ref_tokens), distance - 1, floor, max_shift_size)
        if best is None:
            break
        start, end, dest = best
        rest = eqs[:start] + eqs[end:]
        eqs, distance = rest[:dest] + eqs[start:end] + rest[dest:], distance_after
        shifts += 1
    return shifts + distance


def ter(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> float:
    """Translation edit rate: edits (incl. shifts) per reference word."""
    if not ref_tokens:
        raise DataError("TER undefined for an empty reference")
    return ter_edits(hyp_tokens, ref_tokens) / len(ref_tokens)


def cer(hyp_text: str, ref_text: str) -> float:
    """Character edit rate: character edit distance per reference character."""
    if not ref_text:
        raise DataError("CER undefined for an empty reference")
    return edit_distance(hyp_text, ref_text) / len(ref_text)


def evaluate_corpus(
    hyp_corpus, ref_corpus, max_order: int = 4, bp_form: str = BP_STANDARD
) -> dict:
    """Corpus-level BLEU/TER/CER over paired hypothesis/reference corpora.

    Lines are normalized and tokenized with the corpus rules; BLEU sums
    per-sentence sufficient statistics, TER and CER divide summed edits by
    the summed reference sizes.
    """
    if bp_form not in (BP_STANDARD, BP_PAPER):
        raise ConfigError(f"bp_form must be {BP_STANDARD} or {BP_PAPER}, got {bp_form!r}")
    if type(max_order) is not int or max_order < 1:
        raise ConfigError(f"max_order must be an int >= 1, got {max_order!r}")
    if len(hyp_corpus) != len(ref_corpus):
        raise DataError(
            f"hypothesis has {len(hyp_corpus)} lines, reference has {len(ref_corpus)}"
        )
    if len(hyp_corpus) == 0:
        raise DataError("cannot evaluate empty corpora")

    # No line has more tokens than characters: orders above the longest
    # line are zeros in every sentence and are padded once, at the end.
    orders = min(max_order, max(map(len, hyp_corpus.normalized)))
    matches, totals = [0] * orders, [0] * orders
    hyp_len = ref_len = ter_edit_total = cer_edit_total = ref_char_total = 0
    for hyp, ref in zip(hyp_corpus.normalized, ref_corpus.normalized):
        hyp_tokens = tokenize(hyp)
        ref_tokens = tokenize(ref)
        line = bleu_stats(hyp_tokens, ref_tokens, orders)
        matches = [x + y for x, y in zip(matches, line.matches)]
        totals = [x + y for x, y in zip(totals, line.totals)]
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        ter_edit_total += ter_edits(hyp_tokens, ref_tokens)
        cer_edit_total += edit_distance(hyp, ref)
        ref_char_total += len(ref)
    if ref_len == 0 or ref_char_total == 0:
        raise DataError("reference corpus is empty after normalization")
    padding = [0] * (max_order - orders)
    stats = NgramStats(tuple(matches + padding), tuple(totals + padding), hyp_len, ref_len)
    return {
        "bleu": bleu(stats, bp_form),
        "ter": ter_edit_total / ref_len,
        "cer": cer_edit_total / ref_char_total,
        "c": stats.hyp_len,
        "r": stats.ref_len,
        "per_order_precisions": precisions(stats),
    }
