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


def ratio_bound(
    a: str,
    b: str,
    a_chars: Counter | None = None,
    b_chars: Counter | None = None,
    floor: float = 0.0,
) -> float:
    """Upper bound on ``ratio(a, b)`` that costs no block search.

    The matched length M is at most min(|a|, |b|), and at most
    sum_c min(#a(c), #b(c)) (Ratcliff/Obershelp 1988; difflib's
    ``real_quick_ratio`` and ``quick_ratio``). Returns 2*M_bound/T from the
    length bound when that is already below ``floor``, else from the
    tighter character-count bound. ``a_chars``/``b_chars``, when given,
    must be ``Counter(a)``/``Counter(b)``.
    """
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    bound = 2.0 * min(len(a), len(b)) / total
    if bound < floor:
        return bound
    a_chars = a_chars or Counter(a)
    b_chars = b_chars or Counter(b)
    common = 0
    for char, count in a_chars.items():
        other = b_chars.get(char)
        if other:
            common += count if count < other else other
    return 2.0 * common / total


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
    scores = PairScores({0: a}, {0: b}, ChainContext(lexicon=lexicon, cap=cap))
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

    ``trans`` and ``target`` map line indices to sentences (a ``Corpus`` or
    a dict). Scores are computed on first use and kept: token overlap per
    (translation index, target index), and the block ratio per (translation
    index, target index, text), where text 0 is the translation's
    normalized text and the others are its synonym variants. Only exact
    scores are kept, never a bound or an accept/reject mark, so every chain
    over the same corpora and context can share one table whatever its
    thresholds: a tuning run scores each pair once across all its
    alignments. Per sentence the table also keeps the tokens, the
    stop-word-filtered token counts Dice needs, the character counts the
    ratio bound needs, and each target's character index, which the ratio
    kernel reuses for every line that probes it; per translation line it
    keeps the synonym variants, expanded once.
    """

    def __init__(self, trans: Corpus, target: Corpus, context: ChainContext = DEFAULT_CONTEXT):
        self.trans = trans
        self.target = target
        self.context = context
        self._overlaps: dict[tuple[int, int], float] = {}
        self._ratios: dict[tuple[int, int, int], float] = {}
        self._tokens: dict[int, TokenizedSentence] = {}
        self._counts: dict[tuple[bool, int], Counter] = {}
        self._chars: dict[tuple[bool, int], Counter] = {}
        self._variants: dict[int, list[tuple[str, Counter]]] = {}
        self._char_index: dict[int, CharIndex] = {}

    def decide(self, i: int, j: int, chain: ComparatorChain) -> ChainDecision | None:
        """The first tier of ``chain`` that accepts translation line ``i``
        against target line ``j``, with its exact score; None if none does.

        A ratio tier runs the block kernel only on texts whose
        ``ratio_bound`` reaches its threshold and, among synonym variants,
        exceeds the best score found so far. Both cuts are exact: a skipped
        text can neither reach the threshold nor raise the maximum.
        """
        for comparator in chain:
            if comparator.kind == TOKEN_OVERLAP:
                score = self._overlap(i, j)
                if score < comparator.threshold:
                    continue
            else:
                score = self._best_ratio(i, j, comparator.kind, comparator.threshold)
                if score is None:
                    continue
            return ChainDecision(True, score, comparator)
        return None

    def score(self, i: int, j: int, kind: str) -> float:
        """Exact ``kind`` score of translation line ``i`` against target line ``j``."""
        if kind == TOKEN_OVERLAP:
            return self._overlap(i, j)
        return self._best_ratio(i, j, kind, 0.0)

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

    def _char_counts(self, is_target: bool, index: int) -> Counter:
        key = (is_target, index)
        chars = self._chars.get(key)
        if chars is None:
            sentence = self.target[index] if is_target else self.trans[index]
            chars = self._chars[key] = Counter(sentence.normalized)
        return chars

    def _texts(self, i: int, kind: str) -> list[tuple[str, Counter]]:
        """Texts of translation line ``i`` that ``kind`` compares, with their
        character counts: the normalized text, then, for the synonym tier,
        every other distinct synonym variant."""
        plain = (self.trans[i].normalized, self._char_counts(False, i))
        if kind == SYNONYM_RATIO and len(self.context.lexicon):
            texts = self._variants.get(i)
            if texts is None:
                variants = expand_sentence(self.tokens(i), self.context.lexicon, self.context.cap)
                joined = dict.fromkeys(" ".join(variant.tokens) for variant in variants)
                joined.pop(plain[0], None)
                texts = self._variants[i] = [plain] + [(text, Counter(text)) for text in joined]
            return texts
        return [plain]

    def _overlap(self, i: int, j: int) -> float:
        key = (i, j)
        value = self._overlaps.get(key)
        if value is None:
            value = self._overlaps[key] = token_overlap(
                self._content_counts(False, i), self._content_counts(True, j)
            )
        return value

    def _best_ratio(self, i: int, j: int, kind: str, threshold: float) -> float | None:
        """The exact best ratio of ``kind``'s texts of line ``i`` against
        target ``j``, or None when it is below ``threshold``."""
        b = self.target[j].normalized
        best = -1.0
        for k, (text, chars) in enumerate(self._texts(i, kind)):
            key = (i, j, k)
            score = self._ratios.get(key)
            if score is None:
                floor = max(threshold, best)
                bound = ratio_bound(text, b, chars, self._char_counts(True, j), floor)
                if bound < threshold or bound <= best:
                    continue
                score = self._ratios[key] = ratio(text, b, self.char_index(j))
            best = max(best, score)
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
    scores = PairScores({0: a}, {0: b}, context)
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
