"""Independent brute-force reference implementations for cross-checking.

Everything here favors obviousness over speed: exhaustive searches,
rational arithmetic, full DP matrices. None of it shares code with the
package under test.
"""

import math
import re
from fractions import Fraction


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


def bleu_direct(pairs, max_order=4, weights=None):
    """BLEU recomputed from scratch on whole token-list pairs.

    Rational n-gram precisions, float only at the final exp. Standard
    brevity penalty. Returns 0 when any precision is 0.
    """
    if weights is None:
        weights = [Fraction(1, max_order)] * max_order
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
    log_sum = sum(
        float(w) * math.log(Fraction(m, t))
        for w, m, t in zip(weights, matches, totals)
    )
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum)
