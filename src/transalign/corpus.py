"""Sentence/corpus representation, normalization, tokenization and line I/O.

A corpus is an ordered list of sentences, one per non-empty input line.
All comparisons elsewhere in the toolkit run on the normalized form
(lowercased, whitespace-collapsed, NFC-composed), never on the raw line.
"""

from __future__ import annotations

import io
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Union

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


def split_tokens(text: str) -> tuple[str, ...]:
    """Split normalized text into word tokens.

    Tokens are maximal runs of letters, digits and apostrophes, so "don't"
    stays one token. Runs made purely of apostrophes are punctuation and
    are dropped, as is everything else outside the run class.
    """
    return tuple(_TOKEN_RUN.findall(text))


@dataclass(frozen=True)
class Sentence:
    """One corpus line: 0-based index, raw text and its normalized form."""

    index: int
    raw: str
    normalized: str = ""

    def __post_init__(self):
        if "\n" in self.raw or "\r" in self.raw:
            raise CorpusFormatError(
                f"sentence {self.index} contains a line-break character"
            )
        if not self.normalized:
            object.__setattr__(self, "normalized", normalize(self.raw))


def tokenize(sentence: Sentence) -> tuple[str, ...]:
    """Word tokens of a sentence's normalized text."""
    return split_tokens(sentence.normalized)


@dataclass(frozen=True)
class Corpus:
    """Ordered, indexed sentences under one language tag.

    ``skipped_lines`` reports the 1-based numbers of empty input lines that
    were dropped during loading.
    """

    language: str
    sentences: tuple[Sentence, ...]
    skipped_lines: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for position, sentence in enumerate(self.sentences):
            if sentence.index != position:
                raise CorpusFormatError(
                    f"sentence index {sentence.index} at position {position}: "
                    "indices must be contiguous from 0"
                )

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __getitem__(self, index: int) -> Sentence:
        return self.sentences[index]

    @classmethod
    def from_lines(
        cls, lines: Iterable[str], language: str, skipped: Iterable[int] = ()
    ) -> "Corpus":
        sentences = tuple(
            Sentence(index, raw) for index, raw in enumerate(lines)
        )
        return cls(language, sentences, tuple(skipped))


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


def load_corpus(source: PathOrStream, language: str) -> Corpus:
    """Load one sentence per non-empty line from a UTF-8 text source.

    LF and CRLF line endings are both accepted; a UTF-8 BOM is tolerated.
    Empty lines are not sentences; their 1-based line numbers end up in
    ``Corpus.skipped_lines``. Invalid UTF-8 and a carriage return inside a
    line are reported with the line number, and with the file name when
    ``source`` is a path.
    """
    where = f"{source}: " if isinstance(source, (str, Path)) else ""
    data = _read_bytes(source)
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    raw_lines = data.split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()  # trailing newline, not an empty line

    lines: list[str] = []
    skipped: list[int] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(
                f"{where}invalid UTF-8 on line {lineno}: {exc.reason}"
            ) from exc
        if "\r" in text:
            raise CorpusFormatError(
                f"{where}line {lineno} contains a line-break character"
            )
        if text == "":
            skipped.append(lineno)
        else:
            lines.append(text)
    return Corpus.from_lines(lines, language, skipped)


def save_corpus(corpus: Corpus, target: PathOrStream) -> None:
    """Write the corpus back out, one raw line per sentence, LF-terminated."""
    payload = "".join(sentence.raw + "\n" for sentence in corpus)
    if isinstance(target, (str, Path)):
        Path(target).write_bytes(payload.encode("utf-8"))
    else:
        data = payload.encode("utf-8")
        try:
            target.write(data)
        except TypeError:
            target.write(payload)
