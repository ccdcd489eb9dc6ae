"""Stop-word lists, synonym lexica and synonym-substituted sentence variants."""

from __future__ import annotations

from .corpus import Frozen, normalize
from .errors import ConfigError, LexiconFormatError


class StopWordList(Frozen):
    """Normalized words to drop before token-overlap comparison."""

    __slots__ = _fields = ("words",)

    def __init__(self, words: frozenset[str]):
        self._set(words)

    def __contains__(self, word: str) -> bool:
        return word in self.words


EMPTY_STOPWORDS = StopWordList(frozenset())


class SynonymLexicon(Frozen):
    """Word -> synonyms mapping.

    Synonym groups keep the order they had in the lexicon file so variant
    generation is reproducible from the file bytes. Lookup of an unknown
    word yields the empty tuple. The relation is used exactly as stored;
    symmetrize the file if both directions are wanted. Not hashable: the
    entries are a dict.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: dict[str, tuple[str, ...]] | None = None):
        self._set({} if entries is None else entries)

    def synonyms(self, word: str) -> tuple[str, ...]:
        return self.entries.get(word, ())

    def __len__(self) -> int:
        return len(self.entries)


EMPTY_LEXICON = SynonymLexicon({})


def load_stopwords(path) -> StopWordList:
    """Read a one-word-per-line stop-word file; `#` lines are comments."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LexiconFormatError(f"cannot read stop-word file {path}: {exc}") from exc
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word = normalize(line)
        if word:
            words.add(word)
    return StopWordList(frozenset(words))


def load_synonyms(path) -> SynonymLexicon:
    """Read a `headword<TAB>syn1,syn2,...` lexicon file.

    Headwords and synonyms are normalized; self-references are stripped;
    repeated headword lines merge. A non-empty line without a TAB is a
    format error reported with its line number.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LexiconFormatError(f"cannot read synonym file {path}: {exc}") from exc
    entries: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise LexiconFormatError(
                f"{path}: line {lineno}: expected headword<TAB>synonyms"
            )
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
    return SynonymLexicon(entries)


def expand_sentence(
    tokens: tuple[str, ...], lexicon: SynonymLexicon, cap: int = 64
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
        for synonym in lexicon.synonyms(token):
            if len(variants) == cap:
                return variants
            variants.append(tokens[:position] + (synonym,) + tokens[position + 1 :])
    return variants
