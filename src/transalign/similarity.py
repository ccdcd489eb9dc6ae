"""Sentence-pair similarity: matching-blocks ratio, stop-word-filtered token
overlap, synonym-expanded scoring, and tiered comparator chains.

The character-level ratio is 2*M/T where M is the total length of the common
contiguous blocks found by recursive longest-block decomposition and T is the
summed length of both strings. It rewards partial word matches ("boy"/"boys")
and is insensitive to small reorderings, which plain token intersection is not.
The blocks form a common subsequence, so M <= LCS(a, b) <= min(|a|, |b|) and
M <= sum_c min(#a(c), #b(c)): exact bounds that decide most pairs without the
block search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .corpus import Sentence, tokenize
from .errors import ConfigError
from .lexicon import (
    EMPTY_LEXICON,
    EMPTY_STOPWORDS,
    StopWordList,
    SynonymLexicon,
    expand_sentence,
)

MATCHING_BLOCKS_RATIO = "matching_blocks_ratio"
TOKEN_OVERLAP = "token_overlap"
SYNONYM_RATIO = "synonym_ratio"

# Escalation order: cheap and coarse first, expensive and precise last.
COMPARATOR_COSTS = {
    TOKEN_OVERLAP: 0,
    MATCHING_BLOCKS_RATIO: 1,
    SYNONYM_RATIO: 2,
}


@dataclass(frozen=True)
class MatchingBlock:
    """A common contiguous run: character offsets into both strings."""

    a_start: int
    b_start: int
    length: int


CharIndex = dict[str, list[int]]


def char_index(text: str) -> CharIndex:
    """Each character's ascending positions in ``text``.

    This is the ``b`` side of a matching-blocks comparison. Building it once
    per string and passing it to ``ratio`` saves rebuilding it for every
    string compared against the same ``b`` (difflib's ``set_seq2``).
    """
    index: CharIndex = {}
    for position, char in enumerate(text):
        index.setdefault(char, []).append(position)
    return index


def _longest_block(a, b_index, a_lo, a_hi, b_lo, b_hi):
    """Longest common contiguous block within the given slices.

    Ties go to the smallest a_start, then the smallest b_start. Returns
    (a_start, b_start, length); length 0 means no common block.
    """
    best_i, best_j, best_size = a_lo, b_lo, 0
    lengths: dict[int, int] = {}
    for i in range(a_lo, a_hi):
        new_lengths: dict[int, int] = {}
        for j in b_index.get(a[i], ()):
            if j < b_lo:
                continue
            if j >= b_hi:
                break
            size = lengths.get(j - 1, 0) + 1
            new_lengths[j] = size
            if size > best_size:
                best_i, best_j, best_size = i - size + 1, j - size + 1, size
        lengths = new_lengths
    return best_i, best_j, best_size


def _blocks(a: str, b_len: int, b_index: CharIndex):
    """Yield (a_start, b_start, length) for every block of the recursive
    longest-block decomposition, in no particular order."""
    pending = [(0, len(a), 0, b_len)]
    while pending:
        a_lo, a_hi, b_lo, b_hi = pending.pop()
        i, j, size = _longest_block(a, b_index, a_lo, a_hi, b_lo, b_hi)
        if size:
            yield i, j, size
            if a_lo < i and b_lo < j:
                pending.append((a_lo, i, b_lo, j))
            if i + size < a_hi and j + size < b_hi:
                pending.append((i + size, a_hi, j + size, b_hi))


def matching_blocks(a: str, b: str, b_index: CharIndex | None = None) -> list[MatchingBlock]:
    """Decompose two strings into their common contiguous blocks.

    Finds the longest common block, then recurses on the prefix pair and
    the suffix pair. Blocks come back ordered and non-overlapping in both
    strings; the total matched length is the M of the ratio measure.
    ``b_index``, when given, must be ``char_index(b)``.
    """
    b_index = b_index or char_index(b)  # an empty index is char_index("")
    return [MatchingBlock(*block) for block in sorted(_blocks(a, len(b), b_index))]


def ratio(a: str, b: str, b_index: CharIndex | None = None) -> float:
    """Matching-blocks similarity 2*M/T in [0, 1].

    1.0 for identical strings, 0.0 for strings with nothing in common.
    Two empty strings count as identical (1.0). ``b_index``, when given,
    must be ``char_index(b)``.
    """
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    matched = sum(size for _, _, size in _blocks(a, len(b), b_index or char_index(b)))
    return 2.0 * matched / total


def occurrence_set(
    tokens: Sequence[str], stopwords: StopWordList = EMPTY_STOPWORDS
) -> frozenset:
    """The stop-word-filtered tokens as a set of occurrences.

    A token's first occurrence is the token itself, its k-th (k >= 2) is
    ``(token, k)``. So ``len(A & B)`` of two such sets is the size of the
    multiset intersection of their tokens, and ``len(A)`` the token count.
    """
    words = stopwords.words
    content = [token for token in tokens if token not in words]
    occurrences = frozenset(content)
    if len(occurrences) == len(content):
        return occurrences
    seen: dict[str, int] = {}
    numbered = []
    for token in content:
        k = seen[token] = seen.get(token, 0) + 1
        numbered.append(token if k == 1 else (token, k))
    return frozenset(numbered)


def token_overlap(
    a: Sequence[str] | frozenset,
    b: Sequence[str] | frozenset,
    stopwords: StopWordList = EMPTY_STOPWORDS,
) -> float:
    """Dice overlap of the stop-word-filtered token multisets.

    2*|A' intersect B'| / (|A'| + |B'|); 1.0 when both filtered sides are
    empty. Multiset intersection, so repeated content words count once per
    occurrence. Order-free by construction. ``a`` and ``b`` are token
    tuples, or ``occurrence_set``s of tokens already stripped of stop words.
    """
    if type(a) is not frozenset:
        a = occurrence_set(a, stopwords)
    if type(b) is not frozenset:
        b = occurrence_set(b, stopwords)
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * len(a & b) / total


def common_chars(a_chars: Counter, b_chars: Counter) -> int:
    """sum_c min(#a(c), #b(c)) of two character ``Counter``s: no common
    subsequence, and so no set of matching blocks, is longer."""
    common = 0
    for char, count in a_chars.items():
        other = b_chars.get(char)
        if other:
            common += count if count < other else other
    return common


def ratio_bound(a: str, b: str) -> float:
    """Upper bound on ``ratio(a, b)`` that costs no block search: 2*M/T with
    M = ``common_chars`` (Ratcliff/Obershelp 1988; difflib's ``quick_ratio``),
    never above the length bound 2*min(|a|, |b|)/T."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * common_chars(Counter(a), Counter(b)) / total


def position_masks(b: Sequence) -> dict:
    """Map each item of ``b`` to the bitmask of the positions it occupies."""
    masks: dict = {}
    bit = 1
    for item in b:
        masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    return masks


def lcs_length(a: Sequence, b: Sequence, b_masks: dict | None = None) -> int:
    """Length of the longest common subsequence of ``a`` and ``b``.

    Bit-parallel (Allison and Dix 1986, in Hyyrö's 2004 form): bit i of
    ``v`` is 0 where row i of the current DP column is one more than row
    i-1, so one item of ``a`` costs a few operations on Python ints
    whatever the length of ``b``. Exact. ``b_masks``, when given, must be
    ``position_masks(b)``.
    """
    full = (1 << len(b)) - 1
    v = full
    get = (b_masks or position_masks(b)).get
    for item in a:
        u = v & get(item, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def synonym_ratio(
    a: Sentence,
    b: Sentence,
    lexicon: SynonymLexicon = EMPTY_LEXICON,
    cap: int = 64,
) -> float:
    """Best matching-blocks ratio over the synonym variants of ``a``.

    Variants are re-joined with single spaces and compared against the
    normalized text of ``b``; the unexpanded pair is always included, so
    the result is never below ratio(a, b).
    """
    scores = PairScores((a,), (b,), ChainContext(lexicon=lexicon, cap=cap))
    return scores.score(0, 0, SYNONYM_RATIO)


@dataclass(frozen=True)
class Comparator:
    """One tier of the escalation policy: a scoring kind plus its acceptance
    threshold. Lower cost class means the tier runs earlier."""

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in COMPARATOR_COSTS:
            raise ConfigError(f"unknown comparator kind: {self.kind!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(
                f"comparator threshold must be in [0, 1], got {self.threshold}"
            )

    @property
    def cost_class(self) -> int:
        return COMPARATOR_COSTS[self.kind]


@dataclass(frozen=True)
class ComparatorChain:
    """Comparators ordered by ascending cost: fast coarse tiers first."""

    comparators: tuple[Comparator, ...]

    def __post_init__(self):
        if not self.comparators:
            raise ConfigError("comparator chain must not be empty")
        ordered = tuple(
            sorted(self.comparators, key=lambda comp: comp.cost_class)
        )
        object.__setattr__(self, "comparators", ordered)

    def __iter__(self):
        return iter(self.comparators)

    def __len__(self) -> int:
        return len(self.comparators)

    def with_threshold(self, position: int, threshold: float) -> "ComparatorChain":
        """Copy of the chain with one comparator's threshold replaced."""
        comparators = list(self.comparators)
        comparators[position] = Comparator(comparators[position].kind, threshold)
        return ComparatorChain(tuple(comparators))


@dataclass(frozen=True)
class ChainContext:
    """Shared inputs the chain's comparators need."""

    stopwords: StopWordList = EMPTY_STOPWORDS
    lexicon: SynonymLexicon = EMPTY_LEXICON
    cap: int = 64


DEFAULT_CONTEXT = ChainContext()


@dataclass(frozen=True)
class ChainDecision:
    """Outcome of running a chain on one sentence pair."""

    accepted: bool
    score: float
    comparator: Comparator


class PairScores:
    """Exact comparator scores for one translation/target corpus pair.

    ``trans`` and ``target`` are sequences of sentences indexed by line (a
    ``Corpus``, or a one-sentence tuple). Block ratios are computed on first
    use and kept in one row per translation line, under ``(j, k)`` for
    target index ``j`` and text ``k``, where text 0 is the translation's
    normalized text and the others are its synonym variants. Next to each
    row is one of LCS lengths under the same keys, for the text pairs whose
    cheaper bounds did not rule them out. The table keeps only these exact,
    threshold-free numbers, never a ratio bound or an accept/reject mark, so
    every chain over the same corpora and context can share one table
    whatever its thresholds: a tuning run computes each LCS and runs the
    block kernel at most once per text pair across all its alignments.
    Token overlap is not kept: it is one intersection of two
    ``occurrence_set``s, cheaper than a lookup. Per-sentence features are
    lists over the whole corpus, each built the first time a comparator
    needs it: the occurrence sets of both corpora, each translation line's
    text with its character counts and its synonym variants, and each
    target's text with its character counts. A target's position masks are
    built the first time one of its pairs reaches the LCS step. Each
    translation line is tokenized once; its tokens are kept only with a
    lexicon, where the synonym variants need them too.
    """

    def __init__(
        self,
        trans: Sequence[Sentence],
        target: Sequence[Sentence],
        context: ChainContext = DEFAULT_CONTEXT,
    ):
        self.trans = trans
        self.target = target
        self.context = context
        self._ratios: list[dict[tuple[int, int], float]] = [{} for _ in trans]
        self._target_masks: dict[int, dict] = {}

    def accepted(
        self, i: int, pool: Sequence[int], chain: ComparatorChain
    ) -> list[tuple[int, float, Comparator]]:
        """Each target index in ``pool`` that ``chain`` accepts for
        translation line ``i``, as ``(j, score, comparator)`` with the first
        accepting tier and its exact score: grouped by tier, each group in
        pool order.

        The chain runs tier by tier over the whole pool, and each tier
        scores only the targets the earlier tiers rejected. A ratio tier
        runs the block kernel only on texts whose bounds (see
        ``_best_ratio``) reach its threshold and, among synonym variants,
        exceed the best score found so far. Both cuts are exact: a skipped
        text can neither reach the threshold nor raise the maximum.
        """
        found = []
        commons: dict[int, int] = {}
        for comparator in chain:
            if not pool:
                break
            threshold = comparator.threshold
            rejected = []
            if comparator.kind == TOKEN_OVERLAP:
                overlap, a, sets = token_overlap, self._trans_sets[i], self._target_sets
                for j in pool:
                    score = overlap(a, sets[j])
                    if score >= threshold:
                        found.append((j, score, comparator))
                    else:
                        rejected.append(j)
            else:
                best_ratio, kind = self._best_ratio, comparator.kind
                for j in pool:
                    score = best_ratio(i, j, kind, threshold, commons)
                    if score is None:
                        rejected.append(j)
                    else:
                        found.append((j, score, comparator))
            pool = rejected
        return found

    def decide(self, i: int, j: int, chain: ComparatorChain) -> ChainDecision | None:
        """The first tier of ``chain`` that accepts translation line ``i``
        against target line ``j``, with its exact score; None if none does.
        The one-target case of ``accepted``."""
        for _, score, comparator in self.accepted(i, (j,), chain):
            return ChainDecision(True, score, comparator)
        return None

    def score(self, i: int, j: int, kind: str) -> float:
        """Exact ``kind`` score of translation line ``i`` against target line ``j``."""
        if kind == TOKEN_OVERLAP:
            return token_overlap(self._trans_sets[i], self._target_sets[j])
        return self._best_ratio(i, j, kind, 0.0, {})

    @cached_property
    def _trans_tokens(self) -> list[tuple[str, ...]]:
        return [tokenize(s) for s in self.trans]

    @cached_property
    def _trans_sets(self) -> list[frozenset]:
        # The tokens are kept only where the synonym variants need them too.
        lines = self._trans_tokens if len(self.context.lexicon) else map(tokenize, self.trans)
        stopwords = self.context.stopwords
        return [occurrence_set(tokens, stopwords) for tokens in lines]

    @cached_property
    def _target_sets(self) -> list[frozenset]:
        stopwords = self.context.stopwords
        return [occurrence_set(tokenize(s), stopwords) for s in self.target]

    @cached_property
    def _trans_chars(self) -> list[tuple[str, Counter]]:
        return [(s.normalized, Counter(s.normalized)) for s in self.trans]

    @cached_property
    def _variants(self) -> list[list[tuple[str, Counter]]]:
        """Per translation line, the texts the synonym tier compares: the
        normalized text, then every other distinct synonym variant."""
        lexicon, cap = self.context.lexicon, self.context.cap
        rows = []
        for tokens, plain in zip(self._trans_tokens, self._trans_chars):
            variants = expand_sentence(tokens, lexicon, cap)
            joined = dict.fromkeys(" ".join(variant) for variant in variants)
            joined.pop(plain[0], None)
            rows.append([plain] + [(text, Counter(text)) for text in joined])
        return rows

    @cached_property
    def _lcs(self) -> list[dict[tuple[int, int], int]]:
        return [{} for _ in self.trans]

    @cached_property
    def _target_chars(self) -> list[tuple[str, Counter]]:
        return [(s.normalized, Counter(s.normalized)) for s in self.target]

    def _best_ratio(
        self, i: int, j: int, kind: str, threshold: float, commons: dict[int, int]
    ) -> float | None:
        """The exact best ratio of ``kind``'s texts of line ``i`` against
        target ``j``, or None when it is below ``threshold``.

        A text not scored yet runs a chain of bounds on its matched length
        M, cheapest first: min(|a|, |b|), the character count
        ``common_chars``, then ``lcs_length``. It is dropped at the first
        bound whose 2*M/T is below ``threshold`` or at most the best score
        so far, and reaches the block kernel only when none is. The LCS is
        kept in the table; the normalized text's character count is kept in
        ``commons`` for the rest of one ``accepted`` call, so the ratio and
        synonym tiers count it once.
        """
        if kind == SYNONYM_RATIO and len(self.context.lexicon):
            texts = self._variants[i]
        else:
            texts = (self._trans_chars[i],)
        b, b_chars = self._target_chars[j]
        b_len = len(b)
        row, lcs_row = self._ratios[i], self._lcs[i]
        best = -1.0
        for k, (text, chars) in enumerate(texts):
            score = row.get((j, k))
            if score is None:
                n = len(text)
                total = n + b_len
                if total:  # two empty texts go straight to the kernel's 1.0
                    lcs = lcs_row.get((j, k))
                    if lcs is None:
                        bound = 2.0 * (n if n < b_len else b_len) / total
                        if bound < threshold or bound <= best:
                            continue
                        if k:
                            common = common_chars(chars, b_chars)
                        else:
                            common = commons.get(j)
                            if common is None:
                                common = commons[j] = common_chars(chars, b_chars)
                        bound = 2.0 * common / total
                        if bound < threshold or bound <= best:
                            continue
                        masks = self._target_masks.get(j)
                        if masks is None:
                            masks = self._target_masks[j] = position_masks(b)
                        lcs = lcs_row[j, k] = lcs_length(text, b, masks)
                    bound = 2.0 * lcs / total
                    if bound < threshold or bound <= best:
                        continue
                score = row[j, k] = ratio(text, b)
            if score > best:
                best = score
        return best if best >= threshold else None


def evaluate_chain(
    a: Sentence,
    b: Sentence,
    chain: ComparatorChain,
    context: ChainContext = DEFAULT_CONTEXT,
) -> ChainDecision:
    """Run comparators in cost order, stopping at the first acceptance.

    A comparator accepts when its score reaches its threshold. If none
    accepts, the decision reports the maximum score observed and the
    comparator that produced it. This is the exact per-pair API: unlike
    ``PairScores.decide`` it scores every tier of a rejected pair.
    """
    scores = PairScores((a,), (b,), context)
    decision = scores.decide(0, 0, chain)
    if decision is not None:
        return decision
    best_score = -1.0
    best_comparator = None
    for comparator in chain:
        score = scores.score(0, 0, comparator.kind)
        if score > best_score:
            best_score = score
            best_comparator = comparator
    return ChainDecision(False, best_score, best_comparator)
