"""A corpus read forward from its file, for the ``align`` command.

``CorpusFile`` checks its file with the corpus line rules in one pass and
keeps only the count of its lines. It then reads the lines in order as
they are asked for and holds those that ``forget`` has not dropped, so
``align`` holds the lines of its window, not the corpus. Its
``normalized`` column normalizes a line when it is read.
"""

from __future__ import annotations

from itertools import chain, islice

from .corpus import normalize, read_blocks
from .errors import CorpusFormatError


def _pass(path, count: int):
    """A new pass over the non-empty lines of the corpus file at ``path``,
    which was checked to hold ``count`` of them; a file that holds another
    number is a ``CorpusFormatError`` when the pass reaches its end."""
    lines = filter(None, chain.from_iterable(read_blocks(path, "corpus", CorpusFormatError)))
    read = 0
    for read, line in enumerate(islice(lines, count), 1):
        yield line
    if read < count or next(lines, None) is not None:
        raise CorpusFormatError(f"{path}: the file changed while it was read (it had {count} lines)")


class CorpusFile:
    """The non-empty lines of the corpus file at ``path``, as
    ``load_corpus`` reads them, under ``language``: ``len``, indexing
    (forward, as ``align`` reads), iteration (a new pass over the file) and
    ``normalized`` as a ``Corpus`` has them. Checking the file raises
    ``load_corpus``'s errors. A line below the last ``forget`` is an
    ``IndexError``. Dropping the corpus closes its file."""

    def __init__(self, path, language: str):
        self.path = path
        self.language = language
        blocks = read_blocks(path, "corpus", CorpusFormatError)
        self._count = sum(len(block) - block.count("") for block in blocks)
        self.normalized = _Normalized(path, self._count)
        self.forget = self.normalized.forget

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return _pass(self.path, self._count)

    def __getitem__(self, index: int) -> str:
        normalized = self.normalized
        if index not in normalized.raw:
            normalized[index]  # reads on to line ``index``
        return normalized.raw[index]


class _Normalized(dict):
    """A ``CorpusFile``'s ``normalize``d lines: by index, those it holds
    (a dict, so reading one costs one lookup) and, through ``__missing__``,
    the lines it reads on to; iterated, a new pass over the file. ``raw``
    holds the same lines' raw text."""

    __slots__ = ("path", "count", "raw", "_rest", "_first", "_next")

    def __init__(self, path, count: int):
        self.path, self.count = path, count
        self.raw: dict[int, str] = {}  # each line _first <= index < _next
        self._rest = _pass(path, count)  # the pass that reads line _next next
        self._first = self._next = 0

    def __missing__(self, index: int) -> str:
        """Read on to line ``index``, hold each line read with its
        normalized text, and return line ``index``'s normalized text."""
        if not self._first <= index < self.count:
            raise IndexError(f"line index {index} is forgotten or out of range")
        raw, rest, at = self.raw, self._rest, self._next
        while at <= index:
            raw[at] = line = next(rest)
            self[at] = text = normalize(line)
            at += 1
        self._next = at
        return text

    def forget(self, below: int) -> None:
        """Drop the held lines below line ``below``."""
        first = self._first
        if below > first:
            raw, below = self.raw, min(below, self._next)
            for index in range(first, below):
                del self[index], raw[index]
            self._first = below

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return map(normalize, _pass(self.path, self.count))
