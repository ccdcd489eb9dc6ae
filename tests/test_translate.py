import json
import os
import subprocess
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import transalign.translate as translate_module
from transalign.corpus import Corpus
from transalign.errors import (
    DataError,
    ProviderError,
    ProviderResponseError,
    ProviderStatusError,
    ProviderTimeoutError,
    TranslationFailedError,
)
from transalign.translate import (
    HttpProvider,
    TranslationCache,
    TranslationProvider,
    http_translate,
    translate_corpus,
)


def corpus(*lines, language="pl"):
    return Corpus(language, lines)


class CountingProvider(TranslationProvider):
    """Uppercases input; tracks call count and peak concurrency. A text in
    ``fail_on`` fails."""

    def __init__(self, max_concurrency=1, delay=0.0, fail_on=None):
        self.max_concurrency = max_concurrency
        self.delay = delay
        self.fail_on = fail_on or set()
        self.calls = 0
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def translate_line(self, text, source_language, target_language):
        with self._lock:
            self.calls += 1
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            if self.delay:
                time.sleep(self.delay)
            if text in self.fail_on:
                raise ProviderStatusError(f"scripted failure for {text!r}")
            return text.upper()
        finally:
            with self._lock:
                self.active -= 1


def test_repeated_line_translated_once():
    provider = CountingProvider()
    out = translate_corpus(corpus("same", "same", "other"), provider)
    assert provider.calls == 2
    assert list(out) == ["SAME", "SAME", "OTHER"]


def test_preloaded_cache_means_zero_provider_calls(tmp_path):
    cache = TranslationCache(tmp_path / "cache")
    for text in ("a", "b"):
        cache.put(text, ("pl", "tgt"), text.upper())
    cache.save()

    provider = CountingProvider()
    fresh = TranslationCache(tmp_path / "cache")  # re-read from disk
    stats = {}
    out = translate_corpus(corpus("a", "b"), provider, cache=fresh, stats_out=stats)
    assert provider.calls == 0
    assert stats == {"lines": 2, "provider_calls": 0, "cache_hits": 2}
    assert list(out) == ["A", "B"]


def test_translate_fills_cache_for_rerun(tmp_path):
    provider = CountingProvider()
    cache = TranslationCache(tmp_path / "cache")
    translate_corpus(corpus("x", "y"), provider, cache=cache)
    assert provider.calls == 2

    again = CountingProvider()
    translate_corpus(corpus("x", "y"), again, cache=TranslationCache(tmp_path / "cache"))
    assert again.calls == 0


def test_failed_run_caches_the_lines_that_translated(tmp_path):
    lines = ("a", "b", "c", "d")
    with pytest.raises(TranslationFailedError):
        translate_corpus(
            corpus(*lines), CountingProvider(fail_on={"c"}), cache=TranslationCache(tmp_path / "cache")
        )

    rerun = CountingProvider()
    stats = {}
    out = translate_corpus(
        corpus(*lines), rerun, cache=TranslationCache(tmp_path / "cache"), stats_out=stats
    )
    # "c" never translated, so the one provider call is the failed line's
    assert rerun.calls == 1
    assert stats == {"lines": 4, "provider_calls": 1, "cache_hits": 3}
    assert list(out) == ["A", "B", "C", "D"]


def test_cache_file_not_utf8_is_data_error(tmp_path):
    (tmp_path / "cache").mkdir()
    bad = tmp_path / "cache" / "pl-en.tsv"
    bad.write_bytes(b"\xffa\tA\n")
    with pytest.raises(DataError, match="pl-en.tsv"):
        TranslationCache(tmp_path / "cache").get("a", ("pl", "en"))


def test_cache_round_trips_awkward_characters(tmp_path):
    cache = TranslationCache(tmp_path / "cache")
    pair = ("pl", "en")
    texts = ["tab\there", "back\\slash", "both\t\\\tends\\", "plain"]
    for t in texts:
        cache.put(t, pair, "T:" + t)
    cache.save()
    fresh = TranslationCache(tmp_path / "cache")
    for t in texts:
        assert fresh.get(t, pair) == "T:" + t


def test_cache_round_trips_unicode_line_separators(tmp_path):
    cache = TranslationCache(tmp_path / "cache")
    pair = ("pl", "en")
    texts = ["a\u2028b", "c\u0085d", "e\x0cf"]
    for t in texts:
        cache.put(t, pair, "T:" + t)
    cache.save()
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["pl-en.tsv"]
    fresh = TranslationCache(tmp_path / "cache")
    assert {t: fresh.get(t, pair) for t in texts} == {t: "T:" + t for t in texts}


def test_interrupted_cache_save_keeps_the_previous_file(tmp_path, monkeypatch):
    cache = TranslationCache(tmp_path / "cache")
    cache.put("a", ("pl", "en"), "A")
    cache.save()
    before = (tmp_path / "cache" / "pl-en.tsv").read_bytes()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(translate_module.os, "replace", interrupted)
    cache.put("b", ("pl", "en"), "B")
    with pytest.raises(KeyboardInterrupt):
        cache.save()
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["pl-en.tsv"]
    assert (tmp_path / "cache" / "pl-en.tsv").read_bytes() == before


def test_cache_keys_by_language_pair(tmp_path):
    cache = TranslationCache(tmp_path / "cache")
    cache.put("line", ("pl", "en"), "english")
    cache.put("line", ("pl", "de"), "german")
    cache.save()
    fresh = TranslationCache(tmp_path / "cache")
    assert fresh.get("line", ("pl", "en")) == "english"
    assert fresh.get("line", ("pl", "de")) == "german"
    assert fresh.get("line", ("pl", "fr")) is None


def test_concurrency_bound_respected():
    provider = CountingProvider(max_concurrency=3, delay=0.005)
    lines = [f"line {i}" for i in range(30)]
    out = translate_corpus(Corpus("pl", lines), provider)
    assert provider.peak <= 3
    assert len(out) == 30


def test_failure_aborts_with_smallest_line_index():
    provider = CountingProvider(fail_on={"b", "d"})
    with pytest.raises(TranslationFailedError) as err:
        translate_corpus(corpus("a", "b", "c", "d"), provider)
    assert err.value.line_index == 1
    assert "line index 1" in str(err.value)


def test_provider_refusing_a_pair_fails_at_line_0():
    class Narrow(CountingProvider):
        def translate_line(self, text, source_language, target_language):
            if source_language != "pl":
                raise ProviderError(f"no {source_language}->{target_language}")
            return super().translate_line(text, source_language, target_language)

    with pytest.raises(TranslationFailedError) as err:
        translate_corpus(corpus("a", "b", language="en"), Narrow())
    assert err.value.line_index == 0
    assert isinstance(err.value.cause, ProviderError)
    assert translate_corpus(corpus("a"), Narrow()).lines == ("A",)


# -- HTTP provider against a local mock server ------------------------------


class MockHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _query(self):
        parsed = urllib.parse.urlparse(self.path)
        params = urllib.parse.parse_qs(parsed.query)
        return parsed.path, params.get("q", [""])[0]

    def do_GET(self):
        route, text = self._query()
        state = self.server.state
        with state["lock"]:
            state["requests"].append(self.path)
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        try:
            if route == "/echo":
                return self._send(200, "echo:" + text)
            if route == "/json":
                payload = {"data": {"translations": [{"text": "json:" + text}]}}
                return self._send(200, json.dumps(payload))
            if route == "/flaky":
                with state["lock"]:
                    seen = state["flaky"].get(self.path, 0)
                    state["flaky"][self.path] = seen + 1
                if seen == 0:
                    return self._send(500, "boom")
                return self._send(200, "recovered:" + text)
            if route == "/slow":
                time.sleep(1.0)
                return self._send(200, "late")
            if route == "/badjson":
                return self._send(200, "{not json")
            if route == "/empty":  # no translation for a text holding "empty"
                return self._send(200, "" if "empty" in text else "echo:" + text)
            if route == "/breaks":
                return self._send(200, "cr\rcrlf\r\nlf\nsep\u2028" + text)
            return self._send(404, "no such route")
        finally:
            with state["lock"]:
                state["active"] -= 1

    def _send(self, status, body):
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture()
def mock_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), MockHandler)
    server.state = {
        "lock": threading.Lock(),
        "requests": [],
        "flaky": {},
        "active": 0,
        "peak": 0,
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def endpoint(server, route):
    host, port = server.server_address
    return f"http://{host}:{port}{route}?q={{text}}&src={{src}}&tgt={{tgt}}"


def test_http_echo(mock_server):
    provider = HttpProvider(endpoint=endpoint(mock_server, "/echo"))
    assert http_translate("hello world", ("pl", "en"), provider) == "echo:hello world"


def test_http_url_encoding_round_trip(mock_server):
    provider = HttpProvider(endpoint=endpoint(mock_server, "/echo"))
    tricky = "a&b ?c=d żółw"
    assert http_translate(tricky, ("pl", "en"), provider) == "echo:" + tricky


def test_http_json_response_path(mock_server):
    provider = HttpProvider(
        endpoint=endpoint(mock_server, "/json"),
        response_path="data.translations.0.text",
    )
    assert http_translate("line", ("pl", "en"), provider) == "json:line"


def test_http_retries_500_then_succeeds(mock_server):
    provider = HttpProvider(
        endpoint=endpoint(mock_server, "/flaky"), retries=2, backoff=0.01
    )
    assert http_translate("x", ("pl", "en"), provider) == "recovered:x"


def test_http_500_exhausts_retry_budget(mock_server):
    provider = HttpProvider(
        endpoint=endpoint(mock_server, "/flaky"), retries=0, backoff=0.01
    )
    with pytest.raises(ProviderStatusError):
        http_translate("y", ("pl", "en"), provider)


def test_http_timeout_reported_distinctly(mock_server):
    provider = HttpProvider(
        endpoint=endpoint(mock_server, "/slow"), timeout=0.1, retries=1, backoff=0.01
    )
    start = time.monotonic()
    with pytest.raises(ProviderTimeoutError):
        http_translate("z", ("pl", "en"), provider)
    assert time.monotonic() - start < 5.0  # retried the timeout, did not hang


def test_http_404_fails_without_retry(mock_server):
    provider = HttpProvider(
        endpoint=endpoint(mock_server, "/nowhere"), retries=3, backoff=0.01
    )
    with pytest.raises(ProviderStatusError):
        http_translate("w", ("pl", "en"), provider)
    hits = [r for r in mock_server.state["requests"] if "/nowhere" in r]
    assert len(hits) == 1


def test_http_malformed_json_fails_without_retry(mock_server):
    provider = HttpProvider(
        endpoint=endpoint(mock_server, "/badjson"), response_path="a.b", retries=3
    )
    with pytest.raises(ProviderResponseError):
        http_translate("v", ("pl", "en"), provider)
    hits = [r for r in mock_server.state["requests"] if "/badjson" in r]
    assert len(hits) == 1


def test_http_line_breaks_become_spaces(mock_server):
    # A lone CR would split the line as much as an LF; U+2028 is no break
    # in a corpus file, so it stays.
    provider = HttpProvider(endpoint=endpoint(mock_server, "/breaks"))
    out = translate_corpus(corpus("x"), provider)
    assert list(out) == ["cr crlf lf sep\u2028x"]


def test_http_timeout_failure_carries_line_index(mock_server):
    provider = HttpProvider(
        endpoint=endpoint(mock_server, "/slow"), timeout=0.1, retries=0
    )
    with pytest.raises(TranslationFailedError) as err:
        translate_corpus(corpus("only line"), provider)
    assert err.value.line_index == 0
    assert isinstance(err.value.cause, ProviderTimeoutError)


def test_http_corpus_respects_server_side_concurrency(mock_server):
    provider = HttpProvider(endpoint=endpoint(mock_server, "/echo"), max_concurrency=2)
    lines = [f"row {i}" for i in range(12)]
    out = translate_corpus(Corpus("pl", lines), provider, target_language="en")
    assert list(out) == ["echo:" + line for line in lines]
    assert mock_server.state["peak"] <= 2


def test_cli_translate_over_http_in_a_fresh_process(mock_server, tmp_path):
    # This module has already imported urllib and http.server; only a fresh
    # interpreter shows that the provider's deferred imports load on use.
    repo = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    source = tmp_path / "src.txt"
    source.write_text("first line\nsecond line\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "transalign.cli", "translate", "--provider", "http",
         "--endpoint", endpoint(mock_server, "/echo"), "--source", str(source), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == "echo:first line\necho:second line\n"


class EmptyProvider(TranslationProvider):
    """Uppercases input, but answers ``""`` for a text in ``empty``."""

    def __init__(self, *empty):
        self.empty = set(empty)
        self.asked = []

    def translate_line(self, text, source_language, target_language):
        self.asked.append(text)
        return "" if text in self.empty else text.upper()


def test_an_empty_translation_fails_its_line_and_is_not_cached(tmp_path):
    # An empty line is no line of a translation file: saved and read back,
    # it would leave one translation fewer than source lines.
    cache = TranslationCache(tmp_path / "cache")
    with pytest.raises(TranslationFailedError) as err:
        translate_corpus(corpus("a", "b", "c"), EmptyProvider("b"), cache=cache)
    assert err.value.line_index == 1
    assert isinstance(err.value.cause, ProviderResponseError)
    reloaded = TranslationCache(tmp_path / "cache")
    assert [reloaded.get(text, ("pl", "tgt")) for text in "abc"] == ["A", None, "C"]


def test_an_empty_cached_translation_fails_at_the_smallest_index(tmp_path):
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "pl-tgt.tsv").write_text("b\t\nd\tD\n", encoding="utf-8")
    provider = EmptyProvider("c")
    with pytest.raises(TranslationFailedError) as err:
        translate_corpus(corpus("a", "b", "c", "d"), provider, cache=TranslationCache(tmp_path / "cache"))
    assert err.value.line_index == 1 and isinstance(err.value.cause, DataError)
    assert sorted(provider.asked) == ["a", "c"]  # a cached line is not asked again
    assert TranslationCache(tmp_path / "cache").get("a", ("pl", "tgt")) == "A"


def test_http_empty_answer_fails_its_line(mock_server):
    provider = HttpProvider(endpoint=endpoint(mock_server, "/empty"))
    with pytest.raises(TranslationFailedError) as err:
        translate_corpus(corpus("one", "is empty", "three"), provider)
    assert err.value.line_index == 1
    assert isinstance(err.value.cause, ProviderResponseError)
