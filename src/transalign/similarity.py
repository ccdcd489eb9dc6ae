"""Sentence-pair similarity: matching-blocks ratio, stop-word-filtered token
overlap, synonym-expanded scoring, and tiered comparator chains.

The character-level ratio is 2*M/T where M is the total length of the common
contiguous blocks found by recursive longest-block decomposition
(Ratcliff/Obershelp) and T is the summed length of both strings. It rewards
partial word matches ("boy"/"boys") and is insensitive to small reorderings,
which plain token intersection is not. The blocks form a common subsequence,
so M <= LCS(a, b) <= min(|a|, |b|) and M <= sum_c min(#a(c), #b(c)): exact
bounds that decide most pairs without the block search.

The block search is ``difflib.SequenceMatcher(None, a, b, autojunk=False)``,
imported on first use. Without junk, its blocks and tie rule (smallest start in
``a``, then in ``b``) are the plain decomposition's. Autojunk would drop frequent
characters of a ``b`` of 200 or more characters and change the ratio.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .corpus import normalize, tokenize
from .errors import ConfigError
from .lexicon import (
    EMPTY_LEXICON,
    EMPTY_STOPWORDS,
    StopWordList,
    SynonymLexicon,
    expand_sentence,
)
from .metrics import position_masks

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


def matching_blocks(a: str, b: str) -> list[MatchingBlock]:
    """Decompose two strings into their common contiguous blocks.

    Finds the longest common block, then recurses on the prefix pair and
    the suffix pair. Blocks come back ordered and non-overlapping in both
    strings; the total matched length is the M of the ratio measure.
    """
    from difflib import SequenceMatcher

    blocks = SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()
    return [MatchingBlock(*block) for block in blocks[:-1]]  # drop the (len, len, 0) end


def ratio(a: str, b: str) -> float:
    """Matching-blocks similarity 2*M/T in [0, 1].

    1.0 for identical strings, 0.0 for strings with nothing in common.
    Two empty strings count as identical (1.0).
    """
    from difflib import SequenceMatcher

    return SequenceMatcher(None, a, b, autojunk=False).ratio()


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
    a: str,
    b: str,
    lexicon: SynonymLexicon = EMPTY_LEXICON,
    cap: int = 64,
) -> float:
    """Best matching-blocks ratio over the synonym variants of ``a``.

    ``a`` and ``b`` are raw lines. Variants of ``a``'s normalized text are
    re-joined with single spaces and compared against the normalized text
    of ``b``; the unexpanded pair is always included, so the result is
    never below the ratio of the two normalized texts.
    """
    scores = PairScores((normalize(a),), (normalize(b),), ChainContext(lexicon=lexicon, cap=cap))
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
        threshold = self.threshold
        if type(threshold) not in (int, float) or not 0.0 <= threshold <= 1.0:
            raise ConfigError(
                f"comparator threshold must be a number in [0, 1], got {threshold!r}"
            )
        object.__setattr__(self, "threshold", float(threshold))

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

    ``trans`` and ``target`` are normalized texts indexed by line (two
    ``Corpus.normalized`` columns, or 1-tuples). Block ratios are computed on first
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
        trans: Sequence[str],
        target: Sequence[str],
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
        return [tokenize(text) for text in self.trans]

    @cached_property
    def _trans_sets(self) -> list[frozenset]:
        # The tokens are kept only where the synonym variants need them too.
        lines = self._trans_tokens if len(self.context.lexicon) else map(tokenize, self.trans)
        stopwords = self.context.stopwords
        return [occurrence_set(tokens, stopwords) for tokens in lines]

    @cached_property
    def _target_sets(self) -> list[frozenset]:
        stopwords = self.context.stopwords
        return [occurrence_set(tokenize(text), stopwords) for text in self.target]

    @cached_property
    def _trans_chars(self) -> list[tuple[str, Counter]]:
        return [(text, Counter(text)) for text in self.trans]

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
        return [(text, Counter(text)) for text in self.target]

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
    a: str,
    b: str,
    chain: ComparatorChain,
    context: ChainContext = DEFAULT_CONTEXT,
) -> ChainDecision:
    """Run comparators in cost order on two raw lines, stopping at the
    first acceptance.

    A comparator accepts when its score reaches its threshold. If none
    accepts, the decision reports the maximum score observed and the
    comparator that produced it. This is the exact per-pair API: unlike
    ``PairScores.decide`` it scores every tier of a rejected pair.
    """
    scores = PairScores((normalize(a),), (normalize(b),), context)
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
