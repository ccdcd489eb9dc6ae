"""Character masks: a text as one int with a bit for each occurrence
(c, k) of its characters, k = 1..#text(c), so that one AND and a popcount
of two masks give sum_c min(#a(c), #b(c)) (``similarity.common_chars``).

The masks of one ``PairScores`` table share one slot layout, laid out for
at least each character's highest count in any text the table masks. Only
the character tiers read masks, so ``similarity`` imports this module at a
table's first mask.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

from .corpus import tokenize
from .similarity import _Column


def highest_counts(
    trans: Sequence[str], target: Sequence[str], lexicon: dict[str, tuple[str, ...]]
) -> dict[str, int]:
    """At least each character's highest count in any text a ``PairScores``
    masks: the lines of both columns and, with a lexicon, each line's
    synonym variants, bounded without expanding them. A variant swaps one
    of its line's joined tokens t for a synonym s, so it holds c at most
    #joined(c) + g(c), g(c) the largest #s(c) - #t(c) over the corpus's
    headwords. A slot too many is harmless; one too few is not.
    """
    seen = set()  # (c, n) for each text holding c exactly n times
    add = seen.update
    swapped = set()  # (c, n) of the joined tokens of each line with a headword
    heads = set()
    for text in trans:
        counts = Counter(text)
        add(counts.items())
        if not lexicon:
            continue
        tokens = tokenize(text)
        joined = " ".join(tokens)
        if joined != text:
            counts = Counter(joined)
            add(counts.items())
        if not lexicon.keys().isdisjoint(tokens):
            swapped.update(counts.items())
            heads.update(filter(lexicon.__contains__, tokens))
    for text in target:
        add(Counter(text).items())
    gain: dict[str, int] = {}
    for head in heads:
        for synonym in lexicon[head]:
            for char in set(synonym):
                more = synonym.count(char) - head.count(char)
                if more > gain.get(char, 0):
                    gain[char] = more
    add((char, n + gain.get(char, 0)) for char, n in swapped)
    add(gain.items())  # a character only synonyms hold
    highest: dict[str, int] = {}
    for char, n in seen:
        if n > highest.get(char, 0):
            highest[char] = n
    return highest


def masker(highest: dict[str, int]) -> Callable[[str], tuple[str, int]]:
    """A function from a text to ``(text, mask)``, the mask's slot (c, k)
    set for k = 1..#text(c), for any text that holds no character more
    often than ``highest`` gives.

    Slots go in order of k, then of c: every (c, 1) first, then every
    (c, 2), and so on. So a mask's highest bit depends on how often its own
    characters repeat, not on the length of another text. The bits of c's
    first n slots are built once per (c, n); a mask is the sum of its
    characters' bits, which are disjoint.
    """
    slots: dict[str, list[int]] = {}  # c -> slots of (c, 1), (c, 2), ...
    order = sorted((k, char) for char, n in highest.items() for k in range(1, n + 1))
    for slot, (_, char) in enumerate(order):
        slots.setdefault(char, []).append(slot)
    # (c, n) -> the bits of c's first n slots, each built on first read
    get = _Column(lambda key: _bits(slots[key[0]][: key[1]])).__getitem__
    return lambda text: (text, sum(map(get, Counter(text).items())))


def _bits(positions: list[int]) -> int:
    """The int with the bits at ``positions``, ascending, set."""
    buffer = bytearray(positions[-1] // 8 + 1)
    for position in positions:
        buffer[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")
