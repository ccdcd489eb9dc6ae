"""Corpus representation, normalization, tokenization and line I/O.

A corpus is a tuple of raw lines, one per non-empty input line, under a
language tag; line ``i`` of the file's non-empty lines is ``corpus[i]``.
All comparisons elsewhere in the toolkit run on the normalized form
(lowercased, whitespace-collapsed, NFC-composed), never on the raw line.
That form is the ``normalized`` column, built the first time it is read,
so a corpus whose lines are only copied through (an alignment's source,
a gold file) is never normalized.

``Value`` and ``Frozen`` are the bases of the toolkit's plain value
classes, here because every module that defines one imports this one.
"""

from __future__ import annotations

import os
import re
import unicodedata
from functools import cached_property

from .errors import CorpusFormatError

# Maximal runs of letters/digits/apostrophes that hold at least one letter or
# digit; everything else separates tokens. ``tokenize`` first turns each
# underscore into a space, so \w, which also matches the underscore, then
# matches exactly the Unicode letters and digits. A run of apostrophes alone
# cannot match, since the leading apostrophes must be followed by a letter or
# digit; the lookbehind starts such a match only at a run's first
# apostrophe, which keeps a long apostrophe run linear instead of quadratic.
# Every match begins with \w or an apostrophe, so ``re`` skips straight to
# the next such character between tokens.
_TOKEN_RUN = re.compile(r"(?:\w|'(?<!'')'*\w)[\w']*")


def normalize(text: str) -> str:
    """Lowercase, collapse whitespace runs, strip ends, compose Unicode (NFC)."""
    text = unicodedata.normalize("NFC", text.lower())
    return " ".join(text.split())


def tokenize(text: str) -> tuple[str, ...]:
    """Split normalized text into word tokens.

    Tokens are maximal runs of letters, digits and apostrophes, so "don't"
    stays one token. Runs made purely of apostrophes are punctuation and
    are dropped, as is everything else outside the run class.
    """
    return tuple(_TOKEN_RUN.findall(text.replace("_", " ")))


def position_masks(b: "Sequence") -> dict:
    """Map each item of ``b`` to the bitmask of the positions it occupies:
    the match vectors of the bit-parallel LCS and edit-distance kernels."""
    masks: dict = {}
    bit = 1
    for item in b:
        masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    return masks


class Value:
    """Base of a plain value class: ``==``, ``repr``, ``_replace``, copying
    and pickling over ``_fields``, the names of its constructor arguments,
    which it stores under the same names. Two values are equal when they
    are of the same class and ``_key()`` is equal. Not hashable, as it may
    change. A copy or an unpickled value is built by ``__init__`` again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _set(self, *values) -> None:
        """Store ``values`` under ``_fields``, in order: for ``__init__``."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values  # what == compares

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A new value built from this one's fields, with ``changes`` applied."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class Frozen(Value):
    """A ``Value`` whose attributes cannot be assigned or deleted once
    ``__init__`` has set them with ``_set``. Hashed by ``_key()``, so it is
    hashable when its compared fields are."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Corpus(Frozen):
    """Ordered raw lines under one language tag.

    ``lines`` may be any iterable of strings and is stored as a tuple; a
    line holding a CR or LF is a ``CorpusFormatError``, since each line is
    one output pair. ``skipped_lines`` reports the 1-based numbers of empty
    input lines that were dropped during loading; equality and hashing
    ignore it.
    """

    # No __slots__: ``normalized`` is cached in the instance's __dict__.
    _fields = ("language", "lines", "skipped_lines")

    def __init__(self, language: str, lines: "Iterable[str]", skipped_lines: "Iterable[int]" = ()):
        lines = tuple(lines)
        for index, line in enumerate(lines):
            if "\n" in line or "\r" in line:
                raise CorpusFormatError(f"line index {index} contains a line-break character")
        self._set(language, lines, tuple(skipped_lines))

    def _key(self) -> tuple:
        return self.language, self.lines

    @cached_property
    def normalized(self) -> tuple[str, ...]:
        """Each line's ``normalize``d text, built on first read."""
        return tuple(map(normalize, self.lines))

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> "Iterator[str]":
        return iter(self.lines)

    def __getitem__(self, index: int) -> str:
        return self.lines[index]

    def forget(self, below: int) -> None:
        """Nothing: a loaded corpus holds its lines. ``align`` calls this
        with the first line it may still read, for corpora read from
        their files (``corpusfile.CorpusFile``)."""


def read_lines(path: str | os.PathLike, what: str, error: type[Exception]) -> list[str]:
    """Every line of a UTF-8 text file, empty ones included, so line n is
    item n-1: the line rules of every file the toolkit reads.

    LF and CRLF line endings are both accepted (one CR before each LF, or
    at the very end, is part of the line ending), and a UTF-8 BOM is
    dropped. An unreadable file, invalid UTF-8 and a carriage return inside
    a line raise ``error`` naming the ``what`` file, the last two with the
    number of the first line that has either.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise unreadable(path, what, error, exc) from exc
    return decode_lines(data, 1, path, error)


def unreadable(path, what: str, error: type[Exception], exc: OSError) -> Exception:
    """The error for a ``what`` file that cannot be read."""
    return error(f"cannot read {what} file {path}: {exc}")


def decode_lines(data: bytes, lineno: int, path, error: type[Exception]) -> list[str]:
    """``read_lines``'s lines of ``data``: the bytes of the file at
    ``path`` from the start of line ``lineno`` to an LF or the file's end,
    which no multi-byte sequence crosses."""
    where = f"{path}: "
    if lineno == 1 and data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # CR and LF are never part of a multi-byte sequence, so the lines
        # before the bad one decode; a CR inside one of them comes first.
        _split_lines(data[: data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8"), lineno, where, error)
        lineno += data.count(b"\n", 0, exc.start)
        raise error(f"{where}invalid UTF-8 on line {lineno}: {exc.reason}") from exc
    return _split_lines(text, lineno, where, error)


def _split_lines(text: str, lineno: int, where: str, error: type[Exception]) -> list[str]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # trailing newline, not an empty line
    if "\r" in text:
        lines = [line[:-1] if line[-1:] == "\r" else line for line in lines]
        for lineno, line in enumerate(lines, start=lineno):
            if "\r" in line:
                raise error(f"{where}line {lineno} contains a line-break character")
    return lines


def load_corpus(path: str | os.PathLike, language: str) -> Corpus:
    """Load one line per non-empty line of a UTF-8 text file.

    The file is read by ``read_lines``, whose errors are
    ``CorpusFormatError``s. Empty lines are dropped; their 1-based line
    numbers end up in ``Corpus.skipped_lines``.
    """
    lines = read_lines(path, "corpus", CorpusFormatError)
    if "" not in lines:
        return Corpus(language, lines)
    skipped = tuple(lineno for lineno, line in enumerate(lines, start=1) if not line)
    return Corpus(language, [line for line in lines if line], skipped)


def save_corpus(corpus: Corpus, path: str | os.PathLike) -> None:
    """Write the corpus to ``path`` as UTF-8, one raw line each, LF-terminated."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(line + "\n" for line in corpus))
