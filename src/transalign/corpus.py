"""Corpus representation, normalization, tokenization and line I/O.

A corpus is a tuple of raw lines, one per non-empty input line, under a
language tag; line ``i`` of the file's non-empty lines is ``corpus[i]``.
All comparisons elsewhere in the toolkit run on the normalized form
(lowercased, whitespace-collapsed, NFC-composed), never on the raw line.
That form is the ``normalized`` column, built the first time it is read,
so a corpus whose lines are only copied through (an alignment's source,
a gold file) is never normalized.
"""

from __future__ import annotations

import io
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Union

from .errors import CorpusFormatError

# Maximal runs of letters/digits/apostrophes that hold at least one letter or
# digit; everything else separates tokens. [^\W_] is "word char minus
# underscore", i.e. Unicode letters and digits. A run of apostrophes alone
# cannot match, since the leading '* must be followed by a letter or digit;
# the lookbehind starts a match only at a run's first apostrophe, which
# keeps a long apostrophe run linear instead of quadratic.
_TOKEN_RUN = re.compile(r"(?<!')'*[^\W_](?:[^\W_]|')*")


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
    return tuple(_TOKEN_RUN.findall(text))


@dataclass(frozen=True)
class Corpus:
    """Ordered raw lines under one language tag.

    ``lines`` may be any iterable of strings and is stored as a tuple; a
    line holding a CR or LF is a ``CorpusFormatError``, since each line is
    one output pair. ``skipped_lines`` reports the 1-based numbers of empty
    input lines that were dropped during loading.
    """

    language: str
    lines: tuple[str, ...]
    skipped_lines: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        lines = tuple(self.lines)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "skipped_lines", tuple(self.skipped_lines))
        for index, line in enumerate(lines):
            if "\n" in line or "\r" in line:
                raise CorpusFormatError(f"line index {index} contains a line-break character")

    @cached_property
    def normalized(self) -> tuple[str, ...]:
        """Each line's ``normalize``d text, built on first read."""
        return tuple(map(normalize, self.lines))

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[str]:
        return iter(self.lines)

    def __getitem__(self, index: int) -> str:
        return self.lines[index]


PathOrStream = Union[str, Path, io.IOBase]


def _read_bytes(source: PathOrStream) -> bytes:
    if isinstance(source, (str, Path)):
        try:
            return Path(source).read_bytes()
        except OSError as exc:
            raise CorpusFormatError(f"cannot read corpus file {source}: {exc}") from exc
    data = source.read()
    if isinstance(data, str):
        return data.encode("utf-8")
    return data


def _split_lines(text: str, where: str) -> tuple[list[str], tuple[int, ...]]:
    """The non-empty lines of a decoded file and the 1-based numbers of the
    empty ones. One CR before each LF, or at the very end, is part of the
    line ending; any other CR is a ``CorpusFormatError``."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # trailing newline, not an empty line
    if "\r" in text:
        lines = [line[:-1] if line[-1:] == "\r" else line for line in lines]
        for lineno, line in enumerate(lines, start=1):
            if "\r" in line:
                raise CorpusFormatError(f"{where}line {lineno} contains a line-break character")
    if "" not in lines:
        return lines, ()
    skipped = tuple(lineno for lineno, line in enumerate(lines, start=1) if not line)
    return [line for line in lines if line], skipped


def load_corpus(source: PathOrStream, language: str) -> Corpus:
    """Load one line per non-empty line of a UTF-8 text source.

    LF and CRLF line endings are both accepted; a UTF-8 BOM is tolerated.
    Empty lines are dropped; their 1-based line numbers end up in
    ``Corpus.skipped_lines``. Invalid UTF-8 and a carriage return inside a
    line are reported with the number of the first line that has either,
    and with the file name when ``source`` is a path.
    """
    where = f"{source}: " if isinstance(source, (str, Path)) else ""
    data = _read_bytes(source)
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # CR and LF are never part of a multi-byte sequence, so the lines
        # before the bad one decode; a CR inside one of them comes first.
        _split_lines(data[: data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8"), where)
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{where}invalid UTF-8 on line {lineno}: {exc.reason}") from exc
    lines, skipped = _split_lines(text, where)
    return Corpus(language, lines, skipped)


def save_corpus(corpus: Corpus, target: PathOrStream) -> None:
    """Write the corpus back out, one raw line each, LF-terminated."""
    payload = "".join(line + "\n" for line in corpus)
    if isinstance(target, (str, Path)):
        Path(target).write_bytes(payload.encode("utf-8"))
    else:
        data = payload.encode("utf-8")
        try:
            target.write(data)
        except TypeError:
            target.write(payload)
