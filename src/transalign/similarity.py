"""Sentence-pair similarity: matching-blocks ratio, stop-word-filtered token
overlap, synonym-expanded scoring, and tiered comparator chains.

The character-level ratio is 2*M/T where M is the total length of the common
contiguous blocks found by recursive longest-block decomposition
(Ratcliff/Obershelp) and T is the summed length of both strings. It rewards
partial word matches ("boy"/"boys") and is insensitive to small reorderings,
which plain token intersection is not. The blocks form a common subsequence,
so M <= LCS(a, b) <= sum_c min(#a(c), #b(c)): two exact bounds that decide
most pairs without the block search.

The block search is ``difflib.SequenceMatcher(None, a, b, autojunk=False)``,
imported on first use. Without junk, its blocks and tie rule (smallest start in
``a``, then in ``b``) are the plain decomposition's. Autojunk would drop frequent
characters of a ``b`` of 200 or more characters and change the ratio.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .corpus import Frozen, normalize, position_masks, tokenize
from .errors import ConfigError
from .lexicon import DEFAULT_CAP, EMPTY_LEXICON, EMPTY_STOPWORDS, expand_sentence

MATCHING_BLOCKS_RATIO = "matching_blocks_ratio"
TOKEN_OVERLAP = "token_overlap"
SYNONYM_RATIO = "synonym_ratio"

# Escalation order: cheap and coarse first, expensive and precise last.
COMPARATOR_COSTS = {
    TOKEN_OVERLAP: 0,
    MATCHING_BLOCKS_RATIO: 1,
    SYNONYM_RATIO: 2,
}


def ratio(a: str, b: str) -> float:
    """Matching-blocks similarity 2*M/T in [0, 1].

    1.0 for identical strings, 0.0 for strings with nothing in common.
    Two empty strings count as identical (1.0).
    """
    from difflib import SequenceMatcher

    return SequenceMatcher(None, a, b, autojunk=False).ratio()


def occurrence_set(
    tokens: Sequence[str], stopwords: frozenset[str] = EMPTY_STOPWORDS
) -> frozenset:
    """The stop-word-filtered tokens as a set of occurrences.

    A token's first occurrence is the token itself, its k-th (k >= 2) is
    ``(token, k)``. So ``len(A & B)`` of two such sets is the size of the
    multiset intersection of their tokens, and ``len(A)`` the token count.
    """
    content = [token for token in tokens if token not in stopwords]
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
    stopwords: frozenset[str] = EMPTY_STOPWORDS,
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


def common_chars(a_mask: int, b_mask: int) -> int:
    """sum_c min(#a(c), #b(c)) of two texts given as ``PairScores`` character
    masks: no common subsequence, and so no set of matching blocks, is
    longer. Occurrence (c, k) is in both texts iff k <= both counts."""
    return (a_mask & b_mask).bit_count()


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
    lexicon: dict[str, tuple[str, ...]] = EMPTY_LEXICON,
    cap: int = DEFAULT_CAP,
) -> float:
    """Best matching-blocks ratio over the synonym variants of ``a``.

    ``a`` and ``b`` are raw lines. Variants of ``a``'s normalized text are
    re-joined with single spaces and compared against the normalized text
    of ``b``; the unexpanded pair is always included, so the result is
    never below the ratio of the two normalized texts.
    """
    scores = PairScores((normalize(a),), (normalize(b),), ChainContext(lexicon=lexicon, cap=cap))
    return scores.score(0, 0, SYNONYM_RATIO)


class Comparator(Frozen):
    """One tier of the escalation policy: a scoring kind plus its acceptance
    threshold. A kind of lower ``COMPARATOR_COSTS`` runs earlier."""

    __slots__ = _fields = ("kind", "threshold")

    def __init__(self, kind: str, threshold: float):
        if kind not in COMPARATOR_COSTS:
            raise ConfigError(f"unknown comparator kind: {kind!r}")
        if type(threshold) not in (int, float) or not 0.0 <= threshold <= 1.0:
            raise ConfigError(
                f"comparator threshold must be a number in [0, 1], got {threshold!r}"
            )
        self._set(kind, float(threshold))


class ComparatorChain(Frozen):
    """Comparators ordered by ascending cost: fast coarse tiers first."""

    __slots__ = _fields = ("comparators",)

    def __init__(self, comparators: tuple[Comparator, ...]):
        if not comparators:
            raise ConfigError("comparator chain must not be empty")
        self._set(tuple(sorted(comparators, key=lambda comp: COMPARATOR_COSTS[comp.kind])))

    def __iter__(self):
        return iter(self.comparators)

    def __len__(self) -> int:
        return len(self.comparators)

    def with_threshold(self, position: int, threshold: float) -> "ComparatorChain":
        """Copy of the chain with one comparator's threshold replaced."""
        comparators = list(self.comparators)
        comparators[position] = Comparator(comparators[position].kind, threshold)
        return ComparatorChain(tuple(comparators))


class ChainContext(Frozen):
    """Shared inputs the chain's comparators need: the ``frozenset`` of stop
    words, the lexicon ``dict`` (see ``lexicon``) and ``cap``, the most
    synonym variants kept per sentence, which must be an ``int`` (not a
    ``bool``) >= 1, else ``ConfigError``. Not hashable, as the lexicon is
    a dict; two contexts are equal when all three fields are."""

    __slots__ = _fields = ("stopwords", "lexicon", "cap")

    def __init__(
        self,
        stopwords: frozenset[str] = EMPTY_STOPWORDS,
        lexicon: dict[str, tuple[str, ...]] = EMPTY_LEXICON,
        cap: int = DEFAULT_CAP,
    ):
        if type(cap) is not int or cap < 1:
            raise ConfigError(f"cap must be an integer >= 1, got {cap!r}")
        self._set(stopwords, lexicon, cap)


DEFAULT_CONTEXT = ChainContext()


class ChainDecision(NamedTuple):
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
    Token overlap and the character count are not kept: one is an
    intersection of two ``occurrence_set``s, the other an AND and a
    popcount of two character masks, both cheaper than a lookup.

    A text's character mask is one int with bit slot (c, k) set for
    k = 1..#text(c), in one slot layout fixed at the table's first mask
    (see ``charmask``). Every per-line feature is a column indexed by
    line, each entry built on first read: the tokens of a translation
    line, the occurrence sets of both corpora, the rows of ratios and of
    LCS lengths, a target's position masks, and the character masks of
    each line, each target and, with a lexicon, each line's synonym
    variants. ``forget`` drops entries a caller will not read again.
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
        stopwords, lexicon, cap = context.stopwords, context.lexicon, context.cap
        words = self._trans_tokens = _Column(lambda i: tokenize(trans[i]))
        self._trans_sets = _Column(lambda i: occurrence_set(words[i], stopwords))
        self._target_sets = _Column(lambda j: occurrence_set(tokenize(target[j]), stopwords))
        self._rows = _Column(lambda i: ({}, {}))  # (j, k) -> block ratio, LCS length
        self._target_masks = _Column(lambda j: position_masks(target[j]))
        masks = []  # the table's mask function, made at its first mask

        def masked(text: str) -> tuple[str, int]:
            if not masks:
                from .charmask import highest_counts, masker

                masks.append(masker(highest_counts(trans, target, lexicon)))
            return masks[0](text)

        plains = self._trans_chars = _Column(lambda i: (masked(trans[i]),))
        self._target_chars = _Column(lambda j: masked(target[j]))

        def variants(i: int) -> list[tuple[str, int]]:
            joined = dict.fromkeys(" ".join(v) for v in expand_sentence(words[i], lexicon, cap))
            joined.pop(trans[i], None)
            return [*plains[i], *map(masked, joined)]

        self._variants = _Column(variants)
        # kind -> line -> the (text, mask)s the tier compares: the line's own,
        # then for the synonym tier its other distinct variants
        self._texts = {
            MATCHING_BLOCKS_RATIO: plains,
            SYNONYM_RATIO: self._variants if lexicon else plains,
        }
        self._columns = (
            (self._trans_sets, self._rows, words, plains, self._variants),
            (self._target_sets, self._target_masks, self._target_chars),
        )
        self._forgotten = 0, 0  # the highest bounds ``forget`` was given

    def accepted(
        self, i: int, pool: Sequence[int], chain: ComparatorChain
    ) -> list[tuple[int, float, Comparator]]:
        """The targets in ``pool`` that ``chain`` accepts for translation
        line ``i`` and that can still win, as ``(j, score, comparator)``
        with the first accepting tier and its exact score: every hit of a
        tier before the last, each in pool order, then the last tier's hits
        that reach its bar, by descending bound. So every hit with the
        highest score is there, for ``select_candidate``'s tie-break.

        The chain runs tier by tier over the whole pool, and each tier
        scores only the targets the earlier tiers rejected. Each tier first
        runs one exact test per target, inline:

        - the token tier scores a target whose occurrence set shares no
          token with line ``i``'s as 0.0 (1.0 when both sets are empty),
          so ``token_overlap`` runs only on sets that meet;
        - a ratio tier rejects a target ``b`` when ``2 * common_chars(u,
          b) / (n_min + |b|)`` is below its threshold, for ``u`` the OR of
          the masks of the tier's texts of line ``i`` and ``n_min`` the
          shortest one's length. No text matches more characters of ``b``
          than ``u`` holds, and none is shorter, so this bounds every
          text's ratio (the count filter of filter-and-verify joins).

        Only the targets that pass reach ``_best_ratio``, which runs the
        block kernel only on texts whose own bounds reach the threshold
        and, among synonym variants, exceed the best score found so far.
        A ratio tier that is the chain's last keeps a bar instead of its
        threshold: the threshold, or the best score an earlier tier
        accepted if higher. It visits the targets whose bound reaches the
        bar by descending bound, ties by index, stops at the first bound
        strictly below the bar and raises the bar to each score it accepts
        (top-k pruning; Xiao et al., ICDE 2009). Every cut is exact: a
        skipped target or text can neither reach the threshold nor the
        maximum, and a tie with the maximum is never cut.
        """
        found = []
        comparators = chain.comparators
        # A tier listed twice is one object, so its first copy keeps the
        # bar; that is exact, as the second would accept nothing it rejects.
        last = comparators[-1]
        for comparator in comparators:
            if not pool:
                break
            threshold = comparator.threshold
            rejected = []
            if comparator.kind == TOKEN_OVERLAP:
                overlap, a, sets = token_overlap, self._trans_sets[i], self._target_sets
                disjoint = a.isdisjoint
                for j in pool:
                    b = sets[j]
                    if disjoint(b):
                        score = 0.0 if a or b else 1.0
                    else:
                        score = overlap(a, b)
                    if score >= threshold:
                        found.append((j, score, comparator))
                    else:
                        rejected.append(j)
            else:
                best_ratio, kind = self._best_ratio, comparator.kind
                target_chars = self._target_chars
                texts = self._texts[kind][i]
                union = 0
                for _, mask in texts:
                    union |= mask
                n_min = min(len(text) for text, _ in texts)
                if comparator is not last:
                    for j in pool:
                        b, b_mask = target_chars[j]
                        total = n_min + len(b)
                        if total and 2.0 * common_chars(union, b_mask) / total < threshold:
                            rejected.append(j)
                            continue
                        score = best_ratio(i, j, kind, threshold)
                        if score is None:
                            rejected.append(j)
                        else:
                            found.append((j, score, comparator))
                else:  # only the targets that can still win
                    bar = max([threshold] + [hit[1] for hit in found])
                    bounds = []
                    for j in pool:
                        b, b_mask = target_chars[j]
                        total = n_min + len(b)
                        bound = 2.0 * common_chars(union, b_mask) / total if total else 1.0
                        if bound >= bar:
                            bounds.append((-bound, j))
                    bounds.sort()
                    for negated, j in bounds:
                        if -negated < bar:
                            break
                        score = best_ratio(i, j, kind, bar)
                        if score is not None:
                            found.append((j, score, comparator))
                            bar = score
            pool = rejected
        return found

    def decide(self, i: int, j: int, chain: ComparatorChain) -> ChainDecision | None:
        """The first tier of ``chain`` that accepts translation line ``i``
        against target line ``j``, with its exact score; None if none does.
        The one-target case of ``accepted``, where no other target raises
        the last tier's bar."""
        for _, score, comparator in self.accepted(i, (j,), chain):
            return ChainDecision(True, score, comparator)
        return None

    def forget(self, trans_below: int, target_below: int) -> None:
        """Drop the per-line entries of translation lines below
        ``trans_below`` and of targets below ``target_below``, walking only
        the indices past the previous call's bounds. An entry read again is
        rebuilt from the texts, so forgetting changes cost, never a score.
        The slot layout is kept, so a rebuilt mask has the same bits."""
        trans_from, target_from = self._forgotten
        trans_columns, target_columns = self._columns
        for index in range(trans_from, trans_below):
            for column in trans_columns:
                column.pop(index, None)
        for index in range(target_from, target_below):
            for column in target_columns:
                column.pop(index, None)
        self._forgotten = max(trans_from, trans_below), max(target_from, target_below)

    def score(self, i: int, j: int, kind: str) -> float:
        """Exact ``kind`` score of translation line ``i`` against target line ``j``."""
        if kind == TOKEN_OVERLAP:
            return token_overlap(self._trans_sets[i], self._target_sets[j])
        return self._best_ratio(i, j, kind, 0.0)

    def _best_ratio(self, i: int, j: int, kind: str, threshold: float) -> float | None:
        """The exact best ratio of ``kind``'s texts of line ``i`` against
        target ``j``, or None when it is below ``threshold``.

        A text not scored yet runs two bounds on its matched length M,
        cheapest first: the character count ``common_chars``, then
        ``lcs_length``. It is dropped at the first bound whose 2*M/T is
        below ``threshold`` or at most the best score so far, and reaches
        the block kernel only when neither is. The count is at most
        min(|a|, |b|), so no length bound would cut a text it keeps. The LCS
        is kept in the table; the character count is recounted on each call.
        """
        texts = self._texts[kind][i]
        b, b_mask = self._target_chars[j]
        b_len = len(b)
        row, lcs_row = self._rows[i]
        best = -1.0
        for k, (text, mask) in enumerate(texts):
            score = row.get((j, k))
            if score is None:
                total = len(text) + b_len
                if total:  # two empty texts go straight to the kernel's 1.0
                    lcs = lcs_row.get((j, k))
                    if lcs is None:
                        bound = 2.0 * common_chars(mask, b_mask) / total
                        if bound < threshold or bound <= best:
                            continue
                        lcs = lcs_row[j, k] = lcs_length(text, b, self._target_masks[j])
                    bound = 2.0 * lcs / total
                    if bound < threshold or bound <= best:
                        continue
                score = row[j, k] = ratio(text, b)
            if score > best:
                best = score
        return best if best >= threshold else None


class _Column(dict):
    """Entries by index or other key, each built by ``build(key)`` on first
    read. A dict, so reading an entry that is there costs one dict lookup."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


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
