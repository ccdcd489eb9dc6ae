"""Alignment quality scoring and native BLEU / TER / CER implementations.

The alignment score folds the per-line outcomes into one integer:
aligned lines earn full credit, misaligned ones a small penalty,
machine-translation fills partial credit, and fills attributed to the raw
size difference between the input files full credit (they are nobody's
fault). BLEU/TER/CER work from per-sentence sufficient statistics that sum
across a corpus.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import normalize, tokenize
from .errors import ConfigError, DataError, GoldMismatchError

if TYPE_CHECKING:
    from .align import AlignmentResult

log = logging.getLogger(__name__)

BP_STANDARD = "standard"
BP_PAPER = "paper"


@dataclass(frozen=True)
class ScoreCard:
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
        log.warning("alignment score %d outside the nominal 1..100 range", score)
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
    from .align import ALIGNED, FILLED, TRANSLATED  # not at the top: evaluate never loads align

    def gold_text(index: int) -> str:
        try:
            return gold[index]
        except (KeyError, IndexError):
            raise GoldMismatchError(
                f"gold reference has no entry for source index {index}"
            ) from None

    aligned = misaligned = translated = disproportion = 0
    for decision in result.decisions:
        if decision.outcome == ALIGNED:
            if normalize(decision.text) == normalize(gold_text(decision.source_index)):
                aligned += 1
            else:
                misaligned += 1
        elif decision.outcome == FILLED:
            disproportion += 1
        elif decision.outcome == TRANSLATED:
            translated += 1
        else:
            raise DataError(f"unknown decision outcome: {decision.outcome!r}")
    total = result.total
    score = alignment_score(aligned, misaligned, translated, disproportion, total)
    return ScoreCard(aligned, misaligned, translated, disproportion, total, score)


@dataclass(frozen=True)
class NgramStats:
    """Per-order n-gram match/total counts plus both lengths.

    Additive under corpus concatenation: summing the per-sentence vectors
    componentwise gives the corpus-level statistics.
    """

    matches: tuple[int, ...]
    totals: tuple[int, ...]
    hyp_len: int
    ref_len: int

    def __add__(self, other: "NgramStats") -> "NgramStats":
        if len(self.matches) != len(other.matches):
            raise DataError("cannot sum n-gram stats of different orders")
        return NgramStats(
            tuple(x + y for x, y in zip(self.matches, other.matches)),
            tuple(x + y for x, y in zip(self.totals, other.totals)),
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )

    @classmethod
    def zero(cls, max_order: int = 4) -> "NgramStats":
        return cls((0,) * max_order, (0,) * max_order, 0, 0)


def _ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def bleu_stats(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], max_order: int = 4
) -> NgramStats:
    """Clipped n-gram matches and totals for one hypothesis/reference pair.

    A hypothesis of n tokens has no n-gram above order n, so those orders
    are zeros without counting.
    """
    matches = []
    totals = []
    for order in range(1, min(max_order, len(hyp_tokens)) + 1):
        hyp_counts = _ngram_counts(hyp_tokens, order)
        ref_counts = _ngram_counts(ref_tokens, order)
        totals.append(sum(hyp_counts.values()))
        matches.append(sum((hyp_counts & ref_counts).values()))
    padding = (0,) * (max_order - len(matches))
    return NgramStats(
        tuple(matches) + padding, tuple(totals) + padding, len(hyp_tokens), len(ref_tokens)
    )


def brevity_penalty(hyp_len: int, ref_len: int, form: str = BP_STANDARD) -> float:
    """Multiplicative penalty for hypotheses shorter than their references.

    1 when the hypothesis is longer; otherwise e^(1 - r/c) in the standard
    form, or e^((1 - r)/c) in the alternative "paper" form kept for
    comparison runs.
    """
    if hyp_len < 1:
        raise DataError("brevity penalty undefined for empty hypothesis")
    if hyp_len > ref_len:
        return 1.0
    if form == BP_STANDARD:
        return math.exp(1.0 - ref_len / hyp_len)
    if form == BP_PAPER:
        return math.exp((1.0 - ref_len) / hyp_len)
    raise DataError(f"unknown brevity-penalty form: {form!r}")


def bleu(
    stats: NgramStats,
    weights: Sequence[float] | None = None,
    bp_form: str = BP_STANDARD,
    smooth_eps: float = 0.0,
) -> float:
    """Weighted n-gram precision score in [0, 1] from summed statistics.

    Any zero precision makes the whole score zero unless the add-epsilon
    diagnostic smoothing is switched on (off by default).
    """
    order = len(stats.matches)
    if order == 0:
        raise DataError("BLEU needs n-gram statistics of at least one order")
    if weights is None:
        weights = [1.0 / order] * order
    if len(weights) != order:
        raise DataError(f"expected {order} weights, got {len(weights)}")
    if any(w <= 0 for w in weights):
        raise DataError("BLEU weights must be positive")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise DataError("BLEU weights must sum to one")
    if stats.hyp_len == 0:
        raise DataError("BLEU undefined for an empty hypothesis corpus")

    log_sum = 0.0
    for matched, total, weight in zip(stats.matches, stats.totals, weights):
        if smooth_eps > 0.0:
            precision = (matched + smooth_eps) / (total + smooth_eps) if total else smooth_eps
        else:
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


def position_masks(b: Sequence) -> dict:
    """Map each item of ``b`` to the bitmask of the positions it occupies."""
    masks: dict = {}
    bit = 1
    for item in b:
        masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    return masks


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


def _shifted_variants(tokens: tuple, max_block: int):
    """Every sequence reachable by moving one contiguous block elsewhere."""
    n = len(tokens)
    for size in range(1, min(n, max_block) + 1):
        for start in range(n - size + 1):
            block = tokens[start : start + size]
            rest = tokens[:start] + tokens[start + size :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                yield rest[:dest] + block + rest[dest:]


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
    it. A variant met twice in one round is scored once. All keep the
    first strictly best shift, so the result is the plain greedy's.
    """
    current = tuple(hyp_tokens)
    masks = position_masks(ref_tokens)
    shared = sum((Counter(current) & Counter(ref_tokens)).values())
    floor = max(len(current), len(ref_tokens)) - shared
    shifts = 0
    distance = edit_distance(current, ref_tokens, masks)
    while distance > floor + 1:
        # only a variant two or more edits better pays for its shift
        best_distance, best_variant = distance - 1, None
        seen = set()
        for variant in _shifted_variants(current, max_shift_size):
            if variant in seen:
                continue
            seen.add(variant)
            candidate = edit_distance(variant, ref_tokens, masks)
            if candidate < best_distance:
                best_distance, best_variant = candidate, variant
                if candidate == floor:
                    break
        if best_variant is None:
            break
        current, distance = best_variant, best_distance
        shifts += 1
    return shifts + distance


def ter(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], max_shift_size: int = 10
) -> float:
    """Translation edit rate: edits (incl. shifts) per reference word."""
    if not ref_tokens:
        raise DataError("TER undefined for an empty reference")
    return ter_edits(hyp_tokens, ref_tokens, max_shift_size) / len(ref_tokens)


def cer(hyp_text: str, ref_text: str) -> float:
    """Character edit rate: character edit distance per reference character."""
    if not ref_text:
        raise DataError("CER undefined for an empty reference")
    return edit_distance(hyp_text, ref_text) / len(ref_text)


def evaluate_corpus(
    hyp_corpus,
    ref_corpus,
    max_order: int = 4,
    weights: Sequence[float] | None = None,
    bp_form: str = BP_STANDARD,
    max_shift_size: int = 10,
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
    stats = NgramStats.zero(orders)
    ter_edit_total = 0
    ref_token_total = 0
    cer_edit_total = 0
    ref_char_total = 0
    for hyp, ref in zip(hyp_corpus.normalized, ref_corpus.normalized):
        hyp_tokens = tokenize(hyp)
        ref_tokens = tokenize(ref)
        stats = stats + bleu_stats(hyp_tokens, ref_tokens, orders)
        ter_edit_total += ter_edits(hyp_tokens, ref_tokens, max_shift_size)
        ref_token_total += len(ref_tokens)
        cer_edit_total += edit_distance(hyp, ref)
        ref_char_total += len(ref)
    if ref_token_total == 0 or ref_char_total == 0:
        raise DataError("reference corpus is empty after normalization")
    padding = (0,) * (max_order - orders)
    stats = NgramStats(stats.matches + padding, stats.totals + padding, stats.hyp_len, stats.ref_len)
    return {
        "bleu": bleu(stats, weights, bp_form),
        "ter": ter_edit_total / ref_token_total,
        "cer": cer_edit_total / ref_char_total,
        "c": stats.hyp_len,
        "r": stats.ref_len,
        "per_order_precisions": precisions(stats),
    }
