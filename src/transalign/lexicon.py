"""Stop-word lists, synonym lexica and synonym-substituted sentence variants.

A stop-word list is a ``frozenset`` of normalized words. A lexicon is a
``dict`` from a normalized word to the tuple of its synonyms, in the order
they had in the lexicon file, so variant generation is reproducible from the
file bytes; a word that is not a key has no synonyms. The relation is used
exactly as stored; symmetrize the file if both directions are wanted. Both
files are read with the corpus line rules (``corpus.read_lines``), so line
numbers in errors count LF-terminated lines. ``EMPTY_LEXICON`` is shared:
never mutate it.
"""

from __future__ import annotations

from .corpus import normalize, read_lines, tokenize
from .errors import ConfigError, LexiconFormatError

EMPTY_STOPWORDS: frozenset[str] = frozenset()
EMPTY_LEXICON: dict[str, tuple[str, ...]] = {}

# The most synonym variants kept per sentence, where no caller sets ``cap``.
DEFAULT_CAP = 64


def load_stopwords(path) -> frozenset[str]:
    """Read a one-word-per-line stop-word file; `#` lines are comments.

    A line whose normalized text is not exactly one ``tokenize`` token could
    never match a token, so it is a format error reported with its number.
    """
    words = set()
    for lineno, line in enumerate(read_lines(path, "stop-word", LexiconFormatError), start=1):
        word = normalize(line)
        if word and not word.startswith("#"):
            if tokenize(word) != (word,):
                raise LexiconFormatError(f"{path}: line {lineno}: {word!r} is not one word")
            words.add(word)
    return frozenset(words)


def load_synonyms(path) -> dict[str, tuple[str, ...]]:
    """Read a `headword<TAB>syn1,syn2,...` lexicon file.

    Headwords and synonyms are normalized; self-references are stripped;
    repeated headword lines merge. A non-empty line without a TAB is a
    format error reported with its line number.
    """
    entries: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(read_lines(path, "synonym", LexiconFormatError), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise LexiconFormatError(f"{path}: line {lineno}: expected headword<TAB>synonyms")
        head_part, syn_part = line.split("\t", 1)
        head = normalize(head_part)
        if not head:
            raise LexiconFormatError(f"{path}: line {lineno}: empty headword")
        merged = list(entries.get(head, ()))
        for candidate in syn_part.split(","):
            synonym = normalize(candidate)
            if synonym and synonym != head and synonym not in merged:
                merged.append(synonym)
        entries[head] = tuple(merged)
    return entries


def expand_sentence(
    tokens: tuple[str, ...], lexicon: dict[str, tuple[str, ...]], cap: int = DEFAULT_CAP
) -> list[tuple[str, ...]]:
    """Original tokens plus single-substitution synonym variants.

    For each token position (left to right) and each synonym of that token
    (in lexicon-file order) one variant is produced with exactly that token
    replaced. The original always comes first and the list is truncated to
    at most ``cap`` entries.
    """
    if cap < 1:
        raise ConfigError(f"variant cap must be >= 1, got {cap}")
    variants = [tokens]
    for position, token in enumerate(tokens):
        for synonym in lexicon.get(token, ()):
            if len(variants) == cap:
                return variants
            variants.append(tokens[:position] + (synonym,) + tokens[position + 1 :])
    return variants
