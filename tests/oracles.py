"""Independent brute-force reference implementations for cross-checking.

Everything here favors obviousness over speed: exhaustive searches,
rational arithmetic, full DP matrices. None of it shares code with the
package under test.
"""

import json
import math
import re
import unicodedata
from collections import Counter
from fractions import Fraction
from functools import lru_cache


def brute_longest_block(a, b):
    """Longest common contiguous block by trying every (i, j, length).

    Returns (a_start, b_start, length); ties go to the smallest a_start,
    then the smallest b_start, length 0 when nothing is common.
    """
    best = (0, 0, 0)
    for size in range(min(len(a), len(b)), 0, -1):
        hits = []
        for i in range(len(a) - size + 1):
            for j in range(len(b) - size + 1):
                if a[i : i + size] == b[j : j + size]:
                    hits.append((i, j, size))
        if hits:
            i, j, size = min(hits)
            return (i, j, size)
    return best


def brute_matching_blocks(a, b):
    """Recursive longest-block decomposition, the slow transparent way."""
    i, j, size = brute_longest_block(a, b)
    if size == 0:
        return []
    left = brute_matching_blocks(a[:i], b[:j])
    right = [
        (ri + i + size, rj + j + size, rs)
        for ri, rj, rs in brute_matching_blocks(a[i + size :], b[j + size :])
    ]
    return left + [(i, j, size)] + right


def brute_ratio(a, b):
    """2*M/T as an exact Fraction (1 when both strings are empty)."""
    total = len(a) + len(b)
    if total == 0:
        return Fraction(1)
    matched = sum(size for _, _, size in brute_matching_blocks(a, b))
    return Fraction(2 * matched, total)


def common_chars_oracle(a, b):
    """sum_c min(#a(c), #b(c)): the size of the multiset intersection of
    the two strings' characters."""
    return sum((Counter(a) & Counter(b)).values())


def masks_oracle(texts):
    """Each text's character mask, all texts laid out in one batch: slot
    (c, k) set for k = 1..#text(c), so the popcount of two masks' AND is
    sum_c min(#a(c), #b(c)).

    Slots go in order of k, then of c: every (c, 1) first, then every
    (c, 2), and so on. So a mask's highest bit depends on how often its own
    characters repeat, not on the length of another text. The bits of c's
    first n slots are built once per (c, n); a mask is the sum of its
    characters' bits, which are disjoint.
    """
    rows = []
    for text in texts:
        chars = set(text)
        rows.append(tuple(zip(chars, map(text.count, chars))))
    counts = set().union(*rows)
    need = {}
    for char, n in counts:
        need[char] = max(n, need.get(char, 0))
    slots = {}  # c -> slots of (c, 1), (c, 2), ...
    order = sorted((k, char) for char, n in need.items() for k in range(1, n + 1))
    for slot, (_, char) in enumerate(order):
        slots.setdefault(char, []).append(slot)
    get = {(char, n): _bits_oracle(slots[char][:n]) for char, n in counts}.__getitem__
    return [sum(map(get, row)) for row in rows]


def _bits_oracle(positions):
    """The int whose set bits are ``positions`` (ascending)."""
    buffer = bytearray(positions[-1] // 8 + 1)
    for position in positions:
        buffer[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")


def char_count_bound(a, b):
    """Upper bound on the block ratio from character counts alone:
    2*sum_c min(#a(c), #b(c))/T (Ratcliff/Obershelp 1988; difflib's
    ``quick_ratio``), 1.0 when both strings are empty."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * common_chars_oracle(a, b) / total


def lcs_oracle(a, b):
    """Longest common subsequence length by the full O(nm) DP table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def score_oracle(aligned, misaligned, translated, disproportion, total):
    """Eq-style integer score via rational arithmetic, no float anywhere."""
    value = Fraction(
        20 * (5 * aligned - misaligned + 2 * translated + 5 * abs(disproportion)),
        total,
    )
    return math.floor(value)


def dice_overlap_oracle(tokens_a, tokens_b, stopwords=()):
    """Multiset Dice coefficient computed by destructive list matching."""
    kept_a = [t for t in tokens_a if t not in stopwords]
    kept_b = [t for t in tokens_b if t not in stopwords]
    total = len(kept_a) + len(kept_b)
    if total == 0:
        return Fraction(1)
    remaining = list(kept_b)
    common = 0
    for token in kept_a:
        if token in remaining:
            remaining.remove(token)
            common += 1
    return Fraction(2 * common, total)


def tokenize_oracle(text):
    """Word tokens as first defined: the maximal runs of letters, digits
    and apostrophes (a letter or digit is a word character other than the
    underscore), without the runs made of apostrophes alone."""
    runs = re.findall(r"(?:[^\W_]|')+", text)
    return tuple(run for run in runs if run.strip("'"))


def tokenize_pattern_oracle(text):
    """Word tokens by the one-pass run pattern that excludes the underscore
    inside its character class, with no rewriting of the text."""
    return tuple(re.findall(r"(?<!')'*[^\W_](?:[^\W_]|')*", text))


def normalize_oracle(text):
    """Lowercased and NFC-composed, whitespace runs collapsed to one space,
    no space at either end."""
    return " ".join(unicodedata.normalize("NFC", text.lower()).split())


@lru_cache(maxsize=None)
def _tier_score(kind, a, b, stopwords):
    if kind == "token_overlap":
        return float(dice_overlap_oracle(tokenize_oracle(a), tokenize_oracle(b), stopwords))
    return float(brute_ratio(a, b))


def align_oracle(n_source, target, trans, chain, window, depth, stopwords=frozenset()):
    """``align``'s decisions restated from its docstring, the slow way.

    ``target`` and ``trans`` are raw lines and ``chain`` is
    ``(kind, threshold)`` pairs, cheapest tier first: ``token_overlap``
    (Dice of the ``tokenize_oracle`` tokens without ``stopwords``) or
    ``matching_blocks_ratio`` (``brute_ratio``), both on the
    ``normalize_oracle`` texts. A pair is accepted by the first tier whose
    score reaches its threshold, with that score. Line i expects target
    ``i * len(target) / n_source`` and may take any unconsumed target within
    ``window`` of it (any at all for window 0), found by scanning the full
    list of unconsumed targets. It takes the best-scoring accepted one,
    nearest the expected position on a tie, then the lowest index, unless one
    of the next ``depth`` translation lines accepts that target with a
    strictly higher score; then it chooses again without it. A line with no
    target is filled while fewer than ``|n_source - len(target)|`` lines
    were, and translated after that.

    Returns each line's ``(outcome, target index, score, comparator kind)``,
    the last three None unless the line is aligned, and the unconsumed
    target indices in ascending order.
    """
    target = [normalize_oracle(text) for text in target]
    trans = [normalize_oracle(text) for text in trans]

    def accepts(i, j):
        for kind, threshold in chain:
            score = _tier_score(kind, trans[i], target[j], stopwords)
            if score >= threshold:
                return score, kind
        return None

    unconsumed = list(range(len(target)))
    decisions, fills = [], 0
    for i in range(n_source):
        expected = Fraction(i * len(target), n_source)
        candidates = [j for j in unconsumed if window == 0 or abs(j - expected) <= window]
        chosen = None
        while chosen is None:
            hits = [(j, accepts(i, j)) for j in candidates if accepts(i, j)]
            if not hits:
                break
            j, (score, kind) = min(
                hits, key=lambda hit: (-hit[1][0], abs(hit[0] - expected), hit[0])
            )
            later = [accepts(k, j) for k in range(i + 1, min(i + depth, n_source - 1) + 1)]
            if any(hit and hit[0] > score for hit in later):
                candidates.remove(j)
            else:
                chosen = (j, score, kind)
        if chosen:
            unconsumed.remove(chosen[0])
            decisions.append(("aligned", *chosen))
        elif fills < abs(n_source - len(target)):
            fills += 1
            decisions.append(("filled", None, None, None))
        else:
            decisions.append(("translated", None, None, None))
    return decisions, unconsumed


def report_lines_oracle(decisions, unmatched):
    """The report's lines as first written: a dict per decision and one for
    the counts trailer, each through ``JSONEncoder(ensure_ascii=False)``."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = []
    for decision in decisions:
        record = {"source_index": decision.source_index, "outcome": decision.outcome}
        if decision.outcome == "aligned":
            record["target_index"] = decision.target_index
            record["score"] = decision.score
            record["comparator"] = decision.comparator
        record["text"] = decision.text
        lines.append(encode(record) + "\n")
    outcomes = [decision.outcome for decision in decisions]
    trailer = {
        "A": outcomes.count("aligned"),
        "T": outcomes.count("translated"),
        "D": outcomes.count("filled"),
        "L": len(outcomes),
        "unmatched_targets": list(unmatched),
    }
    lines.append(encode(trailer) + "\n")
    return lines


def load_lines_oracle(data):
    """A corpus file's lines read one at a time, as first defined: split the
    bytes (after a UTF-8 BOM) on LF, drop the empty piece after a final LF,
    strip one CR that ends a line, decode each line on its own, and reject
    any other CR. Returns ``(lines, skipped, None)`` with the non-empty
    lines and the 1-based numbers of the empty ones, or ``(None, None, n)``
    where ``n`` is the first line that is not UTF-8 or holds a CR."""
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    raw_lines = data.split(b"\n")
    if raw_lines[-1] == b"":
        raw_lines.pop()
    lines, skipped = [], []
    for lineno, raw in enumerate(raw_lines, start=1):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return None, None, lineno
        if "\r" in text:
            return None, None, lineno
        if text:
            lines.append(text)
        else:
            skipped.append(lineno)
    return lines, tuple(skipped), None


def levenshtein_matrix(a, b):
    """Unit-cost edit distance with the full textbook DP matrix."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def _all_single_shifts(tokens):
    """Every list reachable by moving one contiguous block elsewhere."""
    results = []
    n = len(tokens)
    for start in range(n):
        for size in range(1, n - start + 1):
            block = tokens[start : start + size]
            rest = tokens[:start] + tokens[start + size :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                results.append(rest[:dest] + block + rest[dest:])
    return results

def ter_oracle_edits(hyp, ref, max_shifts=2):
    """Minimum (shifts + word edit distance) over all shift sequences of
    length at most max_shifts. Exponential; keep inputs tiny."""
    hyp = list(hyp)
    best = levenshtein_matrix(hyp, ref)
    frontier = [(hyp, 0)]
    for _ in range(max_shifts):
        next_frontier = []
        for tokens, used in frontier:
            for shifted in _all_single_shifts(tokens):
                cost = used + 1
                best = min(best, cost + levenshtein_matrix(shifted, ref))
                next_frontier.append((shifted, cost))
        frontier = next_frontier
    return best


def _single_shifts_by_size(tokens, max_block):
    """Every list reachable by moving one block of at most ``max_block``
    tokens elsewhere, smallest blocks first, then by start, then by
    destination (duplicates kept): the order the greedy TER scans in."""
    results = []
    n = len(tokens)
    for size in range(1, min(n, max_block) + 1):
        for start in range(n - size + 1):
            block = tokens[start : start + size]
            rest = tokens[:start] + tokens[start + size :]
            for dest in range(len(rest) + 1):
                if dest != start:
                    results.append(rest[:dest] + block + rest[dest:])
    return results


def ter_greedy_oracle(hyp, ref, max_shift_size=10):
    """The greedy TER hill-climb, spelled out with full DP matrices.

    Each round scores every single-block shift of the current hypothesis
    and keeps the first one with the strictly lowest edit distance; it is
    applied only when it saves at least two edits (one pays for the shift
    itself). Returns shifts taken plus the remaining edit distance.
    """
    current = list(hyp)
    distance = levenshtein_matrix(current, ref)
    shifts = 0
    while distance > 1:
        best, best_distance = None, distance
        for shifted in _single_shifts_by_size(current, max_shift_size):
            d = levenshtein_matrix(shifted, ref)
            if d < best_distance:
                best, best_distance = shifted, d
        if best is None or distance - best_distance < 2:
            break
        current, distance = best, best_distance
        shifts += 1
    return shifts + distance


def ngram_stats_oracle(hyp, ref, max_order):
    """Per-order clipped n-gram matches and totals from ``Counter``
    intersections, as ``(matches, totals)``: zeros above the hypothesis's
    length."""
    matches, totals = [], []
    for n in range(1, max_order + 1):
        hyp_grams = Counter(tuple(hyp[k : k + n]) for k in range(len(hyp) - n + 1))
        ref_grams = Counter(tuple(ref[k : k + n]) for k in range(len(ref) - n + 1))
        matches.append(sum((hyp_grams & ref_grams).values()))
        totals.append(sum(hyp_grams.values()))
    return tuple(matches), tuple(totals)


def ngram_stats_sum(stats, max_order):
    """Field-wise sum of n-gram statistics, each ``(matches, totals,
    hyp_len, ref_len)`` with ``max_order`` matches and totals, as a plain
    tuple of that shape: all zeros for none. Statistics of another order
    are a ValueError."""
    matches, totals = [0] * max_order, [0] * max_order
    hyp_len = ref_len = 0
    for part_matches, part_totals, part_hyp_len, part_ref_len in stats:
        if len(part_matches) != max_order or len(part_totals) != max_order:
            raise ValueError("n-gram statistics of another order")
        for n in range(max_order):
            matches[n] += part_matches[n]
            totals[n] += part_totals[n]
        hyp_len += part_hyp_len
        ref_len += part_ref_len
    return tuple(matches), tuple(totals), hyp_len, ref_len


def bleu_direct(pairs, max_order=4):
    """BLEU recomputed from scratch on whole token-list pairs.

    Rational n-gram precisions, float only at the final exp. Uniform
    weights, standard brevity penalty. Returns 0 when any precision is 0.
    """
    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            hyp_grams = [tuple(hyp[k : k + n]) for k in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[k : k + n]) for k in range(len(ref) - n + 1)]
            totals[n - 1] += len(hyp_grams)
            remaining = list(ref_grams)
            for gram in hyp_grams:
                if gram in remaining:
                    remaining.remove(gram)
                    matches[n - 1] += 1
    if hyp_len == 0:
        raise ValueError("empty hypothesis corpus")
    if any(t == 0 for t in totals) or any(m == 0 for m in matches):
        return 0.0
    log_sum = sum(math.log(Fraction(m, t)) for m, t in zip(matches, totals)) / max_order
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum)
