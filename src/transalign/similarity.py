"""Sentence-pair similarity: matching-blocks ratio, stop-word-filtered token
overlap, synonym-expanded scoring, and tiered comparator chains.

The character-level ratio is 2*M/T where M is the total length of the common
contiguous blocks found by recursive longest-block decomposition and T is the
summed length of both strings. It rewards partial word matches ("boy"/"boys")
and is insensitive to small reorderings, which plain token intersection is not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, Sentence, TokenizedSentence, tokenize
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


def _content_counts(sentence: TokenizedSentence, stopwords: StopWordList) -> Counter:
    return Counter(t for t in sentence.tokens if t not in stopwords)


def token_overlap(
    a: TokenizedSentence | Counter,
    b: TokenizedSentence | Counter,
    stopwords: StopWordList = EMPTY_STOPWORDS,
) -> float:
    """Dice overlap of the stop-word-filtered token multisets.

    2*|A' intersect B'| / (|A'| + |B'|); 1.0 when both filtered sides are
    empty. Multiset intersection, so repeated content words count once per
    occurrence. Order-free by construction. ``a`` and ``b`` are tokenized
    sentences, or ``Counter``s of tokens already stripped of stop words.
    """
    counts_a = a if isinstance(a, Counter) else _content_counts(a, stopwords)
    counts_b = b if isinstance(b, Counter) else _content_counts(b, stopwords)
    total = sum(counts_a.values()) + sum(counts_b.values())
    if total == 0:
        return 1.0
    common = sum(min(counts_a[t], counts_b[t]) for t in counts_a.keys() & counts_b.keys())
    return 2.0 * common / total


def synonym_ratio(
    a: Sentence,
    b: Sentence,
    lexicon: SynonymLexicon = EMPTY_LEXICON,
    cap: int = 64,
    scores: PairScores | None = None,
) -> float:
    """Best matching-blocks ratio over the synonym variants of ``a``.

    Variants are re-joined with single spaces and compared against the
    normalized text of ``b``; the unexpanded pair is always included, so
    the result is never below ratio(a, b). ``scores``, a table over the
    corpora of ``a`` and ``b``, supplies the plain ratio, the tokens of
    ``a`` and the character index of ``b``.
    """
    if scores is None:
        scores = PairScores({a.index: a}, {b.index: b}, ChainContext(lexicon=lexicon, cap=cap))
    best = scores.score(a.index, b.index, MATCHING_BLOCKS_RATIO)
    if best == 1.0 or not len(lexicon):
        return best
    b_index = scores.char_index(b.index)
    for variant in expand_sentence(scores.tokens(a.index), lexicon, cap):
        text = " ".join(variant.tokens)
        if text == a.normalized:
            continue  # the unexpanded pair, already scored
        score = ratio(text, b.normalized, b_index)
        if score > best:
            best = score
            if best == 1.0:
                break
    return best


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
    """Raw comparator scores for one translation/target corpus pair.

    ``trans`` and ``target`` map line indices to sentences (a ``Corpus`` or
    a dict). Scores are computed on first use and kept, keyed by
    (translation index, target index, comparator kind). They do not depend
    on thresholds, so every chain over the same corpora and context can
    share one table: a tuning run scores each pair once across all its
    alignments. Per sentence the table also keeps the tokens, the
    stop-word-filtered token counts Dice needs, and each target's character
    index, which the ratio kernel reuses for every line that probes it.
    """

    def __init__(self, trans: Corpus, target: Corpus, context: ChainContext = DEFAULT_CONTEXT):
        self.trans = trans
        self.target = target
        self.context = context
        self._scores: dict[tuple[int, int, str], float] = {}
        self._tokens: dict[int, TokenizedSentence] = {}
        self._counts: dict[tuple[bool, int], Counter] = {}
        self._char_index: dict[int, CharIndex] = {}

    def score(self, i: int, j: int, kind: str) -> float:
        """Raw ``kind`` score of translation line ``i`` against target line ``j``."""
        key = (i, j, kind)
        value = self._scores.get(key)
        if value is None:
            value = self._scores[key] = self._compute(i, j, kind)
        return value

    def tokens(self, i: int) -> TokenizedSentence:
        """Tokens of translation line ``i``."""
        tokens = self._tokens.get(i)
        if tokens is None:
            tokens = self._tokens[i] = tokenize(self.trans[i])
        return tokens

    def char_index(self, j: int) -> CharIndex:
        """``char_index`` of target line ``j``'s normalized text."""
        index = self._char_index.get(j)
        if index is None:
            index = self._char_index[j] = char_index(self.target[j].normalized)
        return index

    def _content_counts(self, is_target: bool, index: int) -> Counter:
        key = (is_target, index)
        counts = self._counts.get(key)
        if counts is None:
            tokens = tokenize(self.target[index]) if is_target else self.tokens(index)
            counts = self._counts[key] = _content_counts(tokens, self.context.stopwords)
        return counts

    def _compute(self, i: int, j: int, kind: str) -> float:
        if kind == TOKEN_OVERLAP:
            return token_overlap(self._content_counts(False, i), self._content_counts(True, j))
        a, b = self.trans[i], self.target[j]
        if kind == MATCHING_BLOCKS_RATIO:
            return ratio(a.normalized, b.normalized, self.char_index(j))
        return synonym_ratio(a, b, self.context.lexicon, self.context.cap, self)


def evaluate_chain(
    a: Sentence,
    b: Sentence,
    chain: ComparatorChain,
    context: ChainContext = DEFAULT_CONTEXT,
    scores: PairScores | None = None,
) -> ChainDecision:
    """Run comparators in cost order, stopping at the first acceptance.

    A comparator accepts when its score reaches its threshold. If none
    accepts, the decision reports the maximum score observed and the
    comparator that produced it. With ``scores``, ``a`` and ``b`` must be
    lines of the table's translation and target corpora, and the raw scores
    come from the table (``context`` is then the table's).
    """
    if scores is None:
        scores = PairScores({a.index: a}, {b.index: b}, context)
    best_score = -1.0
    best_comparator = None
    for comparator in chain:
        score = scores.score(a.index, b.index, comparator.kind)
        if score >= comparator.threshold:
            return ChainDecision(True, score, comparator)
        if score > best_score:
            best_score = score
            best_comparator = comparator
    return ChainDecision(False, best_score, best_comparator)
