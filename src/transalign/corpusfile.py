"""A corpus read forward from its file, for the ``align`` command.

``CorpusFile`` checks its file with the corpus line rules in one pass and
keeps only the count of its lines. It then reads the lines in order as
they are asked for and holds those that ``forget`` has not dropped, so
``align`` holds the lines of its window, not the corpus. Its
``normalized`` column normalizes a line when it is read.
"""

from __future__ import annotations

from itertools import chain, islice

from .corpus import decode_lines, normalize, unreadable
from .errors import CorpusFormatError

BLOCK = 1 << 14  # bytes read, decoded and checked at a time


class CorpusFile:
    """The non-empty lines of the corpus file at ``path``, as
    ``load_corpus`` reads them, under ``language``: ``len``, indexing
    (forward, as ``align`` reads), iteration (a new pass over the file) and
    ``normalized`` as a ``Corpus`` has them. Checking the file raises
    ``load_corpus``'s errors; a file that no longer holds the lines it was
    checked to hold is a ``CorpusFormatError`` when it is read."""

    def __init__(self, path, language: str):
        self.path = path
        self.language = language
        self._count = sum(len(block) - block.count("") for block in self._blocks())
        self.normalized = _Normalized(self)
        self._held: dict[int, str] = {}  # each line _first <= index < _next
        self._first = self._next = 0
        self._rest = self._lines()  # the pass that reads line _next next

    def _blocks(self):
        """The file's lines, empty ones included, in lists of those that
        end within each ``BLOCK`` bytes read: ``load_corpus``'s lines and
        errors, each block checked when it is read."""
        path, lineno, rest = self.path, 1, b""
        try:
            with open(path, "rb") as handle:
                for data in iter(lambda: handle.read(BLOCK), b""):
                    data = rest + data
                    cut = data.rfind(b"\n") + 1
                    rest = data[cut:]
                    if cut:
                        block = decode_lines(data[:cut], lineno, path, CorpusFormatError)
                        lineno += len(block)
                        yield block
        except OSError as exc:
            raise unreadable(path, "corpus", CorpusFormatError, exc) from exc
        if rest:  # a last line without LF
            yield decode_lines(rest, lineno, path, CorpusFormatError)

    def __len__(self) -> int:
        return self._count

    def _lines(self):
        """A new pass over the file's non-empty lines."""
        return filter(None, chain.from_iterable(self._blocks()))

    def _changed(self) -> CorpusFormatError:
        return CorpusFormatError(
            f"{self.path}: the file changed while it was read (it had {self._count} lines)"
        )

    def __iter__(self):
        lines = self._lines()
        read = 0
        for read, line in enumerate(islice(lines, self._count), 1):
            yield line
        if read < self._count or next(lines, None) is not None:
            raise self._changed()

    def __getitem__(self, index: int) -> str:
        try:
            return self._held[index]
        except KeyError:
            self._read(index)
            return self._held[index]

    def _read(self, index: int) -> str:
        """Read on to line ``index``, hold each line read with its
        normalized text, and return line ``index``'s normalized text."""
        if not 0 <= index < self._count:
            raise IndexError(f"line index {index} out of range")
        held, normalized = self._held, self.normalized
        if index < self._first:  # forgotten: read the file again from its top
            held.clear()
            normalized.clear()
            self._first = self._next = index
            self._rest = islice(self._lines(), index, None)
        rest, at = self._rest, self._next
        while at <= index:
            line = next(rest, None)
            if line is None:
                raise self._changed()
            held[at] = line
            normalized[at] = text = normalize(line)
            at += 1
        self._next = at
        return text

    def forget(self, below: int) -> None:
        """Drop the held lines below line ``below``."""
        first = self._first
        if below > first:
            held, normalized, below = self._held, self.normalized, min(below, self._next)
            for index in range(first, below):
                del held[index], normalized[index]
            self._first = below


class _Normalized(dict):
    """A ``CorpusFile``'s ``normalize``d lines: by index, those it holds
    (a dict, so reading one costs one lookup) and, through ``__missing__``,
    the lines it reads on to; iterated, a new pass over the file."""

    __slots__ = ("lines",)

    def __init__(self, lines: CorpusFile):
        self.lines = lines

    def __missing__(self, index: int) -> str:
        return self.lines._read(index)

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return map(normalize, self.lines)
