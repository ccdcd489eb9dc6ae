"""Intermediate-corpus translation via pluggable providers, with caching.

The aligner never talks to a real web translator: translations come from a
pre-translated file (FileProvider) or a generic HTTP endpoint (HttpProvider)
that tests back with a local mock server. Results are cached per
(source line, language pair) so repeated lines and repeated runs are free.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, load_corpus
from .errors import (
    ConfigError,
    DataError,
    ProviderError,
    ProviderResponseError,
    ProviderStatusError,
    ProviderTimeoutError,
    TranslationFailedError,
)


class TranslationProvider:
    """Interface: translate one line for a language pair.

    ``max_concurrency`` bounds how many translate_line calls may run at
    once; ``prepare`` is called with the corpus before any work starts.
    """

    name = "provider"
    max_concurrency = 1

    def supports(self, source_language: str, target_language: str) -> bool:
        return True

    def prepare(self, corpus: Corpus) -> None:
        pass

    def translate_line(
        self, text: str, source_language: str, target_language: str, index: int
    ) -> str:
        raise NotImplementedError


class FileProvider(TranslationProvider):
    """Serves translations positionally from a pre-translated file.

    The file is read with the corpus line rules (``load_corpus``) and must
    hold exactly one line per source line; the length is checked
    against the corpus before any translation happens.
    """

    name = "file"

    def __init__(self, path):
        self.path = path
        self.translations = load_corpus(path, "translation")

    def prepare(self, corpus: Corpus) -> None:
        if len(self.translations) != len(corpus):
            raise DataError(
                f"translation file {self.path} has {len(self.translations)} lines "
                f"but the source corpus has {len(corpus)}"
            )

    def translate_line(self, text, source_language, target_language, index):
        return self.translations[index]


def _walk_response_path(payload, path: str):
    value = payload
    for step in path.split("."):
        if isinstance(value, list):
            try:
                value = value[int(step)]
            except (ValueError, IndexError) as exc:
                raise KeyError(step) from exc
        elif isinstance(value, dict):
            value = value[step]
        else:
            raise KeyError(step)
    return value


@dataclass
class HttpProvider(TranslationProvider):
    """Generic HTTP translation endpoint.

    ``endpoint`` is a URL template with {text}, {src} and {tgt} placeholders
    (values are URL-encoded before substitution). An empty ``response_path``
    takes the whole response body as the translation; otherwise the body is
    parsed as JSON and the dotted path (list indices allowed) is followed.
    ``endpoint`` is a non-empty string and ``response_path`` a string;
    ``max_concurrency`` (>= 1) and ``retries`` (>= 0) are ints, ``timeout``
    (> 0) and ``backoff`` (>= 0) finite seconds; anything else is a
    ``ConfigError``, as is an ``endpoint`` that ``str.format`` cannot fill
    with those three placeholders.
    """

    endpoint: str
    response_path: str = ""
    max_concurrency: int = 4
    timeout: float = 10.0
    retries: int = 2
    backoff: float = 0.25
    name = "http"

    def __post_init__(self):
        valid = {
            "endpoint": isinstance(self.endpoint, str) and bool(self.endpoint),
            "response_path": isinstance(self.response_path, str),
            "max_concurrency": type(self.max_concurrency) is int and self.max_concurrency >= 1,
            "retries": type(self.retries) is int and self.retries >= 0,
            "timeout": type(self.timeout) in (int, float) and 0 < self.timeout < math.inf,
            "backoff": type(self.backoff) in (int, float) and 0 <= self.backoff < math.inf,
        }
        for name, ok in valid.items():
            if not ok:
                raise ConfigError(f"invalid provider {name}: {getattr(self, name)!r}")
        try:
            self.endpoint.format(text="", src="", tgt="")
        except (KeyError, IndexError, ValueError, AttributeError) as exc:
            raise ConfigError(f"invalid provider endpoint {self.endpoint!r}: {exc!r}") from exc

    def translate_line(self, text, source_language, target_language, index):
        return http_translate(text, (source_language, target_language), self)


def _single_request(provider: HttpProvider, url: str) -> str:
    # The HTTP client (urllib.request pulls in http.client, email and ssl)
    # loads here, on the first request, so runs that call no provider skip it.
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=provider.timeout) as response:
            body = response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        raise ProviderStatusError(f"endpoint returned status {exc.code}: {url}") from exc
    except (urllib.error.URLError, TimeoutError, OSError) as exc:
        raise ProviderTimeoutError(f"endpoint unreachable or timed out: {exc}") from exc
    if not provider.response_path:
        return body.rstrip("\r\n")
    try:
        value = _walk_response_path(json.loads(body), provider.response_path)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ProviderResponseError(
            f"cannot extract {provider.response_path!r} from response: {exc}"
        ) from exc
    if not isinstance(value, str):
        raise ProviderResponseError(
            f"response field {provider.response_path!r} is not text"
        )
    return value


def http_translate(line: str, lang_pair: tuple[str, str], provider: HttpProvider) -> str:
    """Translate one line over HTTP, retrying transient failures.

    Timeouts, connection errors and 5xx statuses are retried up to the
    provider's budget with exponential backoff; 4xx statuses and malformed
    responses fail immediately. Each CRLF, CR or LF in the translation
    becomes one space so the result stays one sentence; other Unicode line
    separators are kept, as corpus lines keep them.
    """
    src, tgt = lang_pair
    url = provider.endpoint.format(
        text=urllib.parse.quote(line, safe=""),
        src=urllib.parse.quote(src, safe=""),
        tgt=urllib.parse.quote(tgt, safe=""),
    )
    last_error: ProviderError | None = None
    for attempt in range(provider.retries + 1):
        try:
            translated = _single_request(provider, url)
            return translated.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")
        except ProviderResponseError:
            raise
        except ProviderStatusError as exc:
            if exc.__cause__ is not None and 400 <= exc.__cause__.code < 500:
                raise
            last_error = exc
        except ProviderTimeoutError as exc:
            last_error = exc
        if attempt < provider.retries:
            time.sleep(provider.backoff * (2**attempt))
    assert last_error is not None
    raise last_error


_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r")]


def _escape(text: str) -> str:
    for plain, escaped in _ESCAPES:
        text = text.replace(plain, escaped)
    return text


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class TranslationCache:
    """Persistent (source line, language pair) -> translation map.

    Stored as one `source<TAB>translation` TSV per language pair under a
    directory; tabs/newlines inside lines are backslash-escaped, so records
    are split on LF alone. A cache hit never triggers a provider call.
    Reads are lock-free after load; writes are serialized, and each file is
    replaced whole, so an interrupted save leaves the previous one intact.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._pairs: dict[tuple[str, str], dict[str, str]] = {}
        self._lock = threading.Lock()

    def _pair_file(self, pair: tuple[str, str]) -> Path:
        src = urllib.parse.quote(pair[0], safe="")
        tgt = urllib.parse.quote(pair[1], safe="")
        return self.directory / f"{src}-{tgt}.tsv"

    def _load_pair(self, pair: tuple[str, str]) -> dict[str, str]:
        if pair not in self._pairs:
            table: dict[str, str] = {}
            path = self._pair_file(pair)
            if path.exists():
                try:
                    text = path.read_text(encoding="utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"cache file {path} is not valid UTF-8: {exc}") from exc
                except OSError as exc:
                    raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
                for line in text.split("\n"):
                    if "\t" not in line:
                        continue
                    source, translation = line.split("\t", 1)
                    table[_unescape(source)] = _unescape(translation)
            self._pairs[pair] = table
        return self._pairs[pair]

    def get(self, text: str, pair: tuple[str, str]) -> str | None:
        return self._load_pair(pair).get(text)

    def put(self, text: str, pair: tuple[str, str], translation: str) -> None:
        with self._lock:
            self._load_pair(pair)[text] = translation

    def save(self) -> None:
        """Write every loaded pair's file; an unwritable path is a ``ConfigError``."""
        import tempfile  # loads shutil and random too; only a save needs it

        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._lock:
                for pair, table in self._pairs.items():
                    lines = "".join(
                        f"{_escape(source)}\t{_escape(translation)}\n"
                        for source, translation in sorted(table.items())
                    )
                    handle = tempfile.NamedTemporaryFile(
                        "w", encoding="utf-8", dir=self.directory, suffix=".tmp", delete=False
                    )
                    try:
                        with handle:
                            handle.write(lines)
                            handle.flush()
                            os.fsync(handle.fileno())
                        os.replace(handle.name, self._pair_file(pair))
                    except BaseException:
                        os.unlink(handle.name)
                        raise
        except OSError as exc:
            raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from exc


def translate_corpus(
    corpus: Corpus,
    provider: TranslationProvider,
    cache: TranslationCache | None = None,
    target_language: str = "tgt",
    stats_out: dict | None = None,
) -> Corpus:
    """Translate every corpus line, preserving order.

    Identical source lines are translated once. Uncached lines fan out to
    at most ``provider.max_concurrency`` concurrent provider calls and are
    reassembled strictly by index. Any provider failure (after the
    provider's own retries) aborts the whole translation, reporting the
    smallest failing line index; there is no partial output, but every
    line that did translate is cached first, so a rerun resumes.
    """
    pair = (corpus.language, target_language)
    if not provider.supports(*pair):
        raise ProviderError(
            f"provider {provider.name!r} does not support {pair[0]}->{pair[1]}"
        )
    provider.prepare(corpus)

    translations: dict[str, str] = {}
    cache_hits = 0
    seen: set[str] = set()
    todo: list[tuple[str, int]] = []  # unique uncached text, first line index
    for index, text in enumerate(corpus):
        if text in seen:
            continue
        seen.add(text)
        cached = cache.get(text, pair) if cache is not None else None
        if cached is not None:
            translations[text] = cached
            cache_hits += 1
        else:
            todo.append((text, index))

    failures: list[tuple[int, Exception]] = []
    if todo:
        from concurrent.futures import ThreadPoolExecutor

        workers = max(1, provider.max_concurrency)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                text: (index, pool.submit(provider.translate_line, text, *pair, index))
                for text, index in todo
            }
            for text, (index, future) in futures.items():
                try:
                    translations[text] = future.result()
                except Exception as exc:  # noqa: BLE001 - every failure aborts
                    failures.append((index, exc))
    if cache is not None:
        for text, _ in todo:
            if text in translations:
                cache.put(text, pair, translations[text])
        cache.save()
    if failures:
        index, cause = min(failures, key=lambda item: item[0])
        raise TranslationFailedError(index, cause)

    if stats_out is not None:
        stats_out.update(
            lines=len(corpus), provider_calls=len(todo), cache_hits=cache_hits
        )

    return Corpus(target_language, (translations[text] for text in corpus))
