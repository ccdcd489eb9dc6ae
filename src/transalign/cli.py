"""Command-line surface: translate, align, score, evaluate, tune.

Settings come from an optional JSON config file; any flag given on the
command line wins over the config. Exit codes are stable: 0 success,
1 usage/config error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import Corpus, load_corpus, save_corpus
from .errors import ConfigError, DataError, ProviderError

# These names are read from the package, which imports their submodule on
# first use (PEP 562): each command loads only the modules it runs.
# Commands read them through ``_lazy``, this module itself, at call time,
# so a wrapper set on this module (perfbench/tracer.py sets ``align``,
# ``write_alignment``, ``tune_chain`` and ``evaluate_corpus``) is the one
# that runs.
_LAZY = {
    "AlignmentConfig", "align", "read_report", "write_alignment",
    "EMPTY_LEXICON", "EMPTY_STOPWORDS", "load_stopwords", "load_synonyms",
    "Comparator", "ComparatorChain",
    "BP_STANDARD", "evaluate_against_gold", "evaluate_corpus",
    "HttpProvider", "TranslationCache", "translate_corpus",
    "TuningJob", "tune_chain",
}
_lazy = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3

DEFAULT_CHAIN = "token_overlap:0.99,matching_blocks_ratio:0.85"

# The one config key each flag falls back to; "a.b" is field b of object a.
CONFIG_KEYS = {
    "source_language": "source_language", "target_language": "target_language", "chain": "chain",
    "window": "window", "lookahead": "lookahead_depth", "cap": "cap", "stopwords": "stopwords",
    "synonyms": "synonyms", "trans": "trans", "cache": "cache_dir", "bp_form": "bp_form",
    "provider": "provider", "provider_path": "provider_settings.path",
    "endpoint": "provider_settings.endpoint",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_chain_spec(spec: str) -> ComparatorChain:
    """Parse `kind:threshold[,kind:threshold...]` into a chain."""
    comparators = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"bad chain entry {part!r}, expected kind:threshold")
        kind, _, raw_threshold = part.partition(":")
        try:
            threshold = float(raw_threshold)
        except ValueError:
            raise ConfigError(f"bad threshold in chain entry {part!r}") from None
        comparators.append(_lazy.Comparator(kind.strip(), threshold))
    return _lazy.ComparatorChain(tuple(comparators))


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        config = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


class Settings:
    """Merged view of config file + flags (flags win).

    Settings only merge values and load the files they name; the objects
    built from them (``AlignmentConfig``, ``HttpProvider``) supply the
    defaults and check every value.
    """

    def __init__(self, args: argparse.Namespace):
        self.config = _load_config_file(getattr(args, "config", None))
        self.args = args

    def get(self, flag: str, default=None):
        """The flag's value, else its ``CONFIG_KEYS`` key's, else ``default``."""
        value = getattr(self.args, flag, None)
        if value is not None:
            return value
        section, _, key = CONFIG_KEYS[flag].rpartition(".")
        return (self.provider_settings() if section else self.config).get(key, default)

    def provider_settings(self) -> dict:
        settings = self.config.get("provider_settings", {})
        if not isinstance(settings, dict):
            raise ConfigError("provider settings must be a JSON object")
        return settings

    def source_language(self) -> str:
        return self._language("source_language", "src")

    def target_language(self) -> str:
        return self._language("target_language", "tgt")

    def _language(self, name: str, default: str) -> str:
        value = self.get(name, default=default)
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
        return value

    def chain(self) -> ComparatorChain:
        spec = self.get("chain")
        if spec is None:
            spec = DEFAULT_CHAIN
        if isinstance(spec, str):
            return parse_chain_spec(spec)
        if not isinstance(spec, list):
            raise ConfigError("config chain must be a string spec or a list of objects")
        comparators = []
        for entry in spec:
            try:
                comparators.append(_lazy.Comparator(entry["kind"], entry["threshold"]))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"bad chain entry in config: {entry!r}") from exc
        return _lazy.ComparatorChain(tuple(comparators))

    def stopwords(self):
        path = self.get("stopwords")
        if not path:
            return _lazy.EMPTY_STOPWORDS
        _require_file(path, "stop-word file")
        return _lazy.load_stopwords(path)

    def lexicon(self):
        path = self.get("synonyms")
        if not path:
            return _lazy.EMPTY_LEXICON
        _require_file(path, "synonym file")
        return _lazy.load_synonyms(path)

    def cache(self) -> TranslationCache | None:
        directory = self.get("cache")
        if directory is not None and not isinstance(directory, str):
            raise ConfigError(f"cache_dir must be a path string, got {directory!r}")
        return _lazy.TranslationCache(directory) if directory else None

    def provider(self):
        """An ``HttpProvider``, or for ``file`` its translation file read as
        ``--trans`` is: a ``Corpus`` in the target language."""
        settings = self.provider_settings()
        kind = self.get("provider")
        if kind is None:
            raise ConfigError("no translation provider configured")
        if kind == "file":
            path = self.get("provider_path")
            if not path:
                raise ConfigError("file provider needs a path (--provider-path)")
            _require_file(path, "translation file")
            return load_corpus(path, self.target_language())
        if kind == "http":
            optional = ("response_path", "max_concurrency", "timeout", "retries", "backoff")
            given = {key: settings[key] for key in optional if key in settings}
            return _lazy.HttpProvider(endpoint=self.get("endpoint"), **given)
        raise ConfigError(f"unknown provider type {kind!r} (expected file or http)")

    def translation(self, provider, source: Corpus, stats: dict) -> Corpus:
        """``source`` translated by ``provider()``'s result, counts in ``stats``;
        a ``file`` corpus is taken as it is, with no provider call and no cache."""
        if not isinstance(provider, Corpus):
            return _lazy.translate_corpus(source, provider, self.cache(), self.target_language(), stats)
        _require_translation(provider, source, self.get("provider_path"))
        stats.update(lines=len(source), provider_calls=0, cache_hits=0)
        return provider

    def alignment_config(self) -> AlignmentConfig:
        given = {
            CONFIG_KEYS[flag]: self.get(flag)
            for flag in ("window", "lookahead", "cap")
            if getattr(self.args, flag, None) is not None or CONFIG_KEYS[flag] in self.config
        }
        return _lazy.AlignmentConfig(
            chain=self.chain(), stopwords=self.stopwords(), lexicon=self.lexicon(), **given
        )


def _require_file(path, description: str) -> None:
    if not isinstance(path, str):
        raise ConfigError(f"{description} must be a path string, got {path!r}")
    if not Path(path).is_file():
        raise ConfigError(f"{description} not found: {path}")


def _require_translation(trans: Corpus, source: Corpus, path) -> None:
    """The one check, and message, for a translation file of another length."""
    if len(trans) != len(source):
        raise DataError(f"translation file {path} has {len(trans)} lines "
                        f"but the source corpus has {len(source)}")


def _write_output(write, *args) -> None:
    """Run one output writer; a path that cannot be written is a ConfigError."""
    try:
        write(*args)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from exc


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _log_warnings() -> None:
    """Print warnings to stderr: for the commands whose code logs."""
    import logging  # not at the top: align and evaluate never log

    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")


# -- commands -------------------------------------------------------------


def cmd_translate(args) -> int:
    settings = Settings(args)
    _require_file(args.source, "source file")
    provider = settings.provider()
    corpus = load_corpus(args.source, settings.source_language())
    stats: dict = {}
    translated = settings.translation(provider, corpus, stats)
    _write_output(save_corpus, translated, args.out)
    if args.stats:
        _print_json(stats)
    return EXIT_OK


def cmd_align(args) -> int:
    settings = Settings(args)
    config = settings.alignment_config()  # reject bad thresholds before any I/O
    _require_file(args.source, "source file")
    _require_file(args.target, "target file")
    source = load_corpus(args.source, settings.source_language())
    target = load_corpus(args.target, settings.target_language())

    trans_path = settings.get("trans")
    if trans_path:
        _require_file(trans_path, "translation file")
        trans = load_corpus(trans_path, settings.target_language())
        _require_translation(trans, source, trans_path)  # align()'s first check, naming the file
    else:
        trans = settings.translation(settings.provider(), source, {})

    result = _lazy.align(source, target, trans, config)
    _write_output(
        _lazy.write_alignment, result, source, args.out_source, args.out_target, args.report
    )
    _print_json({**result.counts(), "unmatched_targets": len(result.unmatched_target_indices)})
    return EXIT_OK


def cmd_score(args) -> int:
    _log_warnings()  # a score outside 1..100
    _require_file(args.report, "report file")
    result = _lazy.read_report(args.report)
    _require_file(args.gold, "gold file")
    gold = load_corpus(args.gold, "gold").lines
    card = _lazy.evaluate_against_gold(result, gold)
    _print_json(card.as_json_dict())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    settings = Settings(args)
    _require_file(args.hyp, "hypothesis file")
    _require_file(args.ref, "reference file")
    hyp = load_corpus(args.hyp, "hyp")
    ref = load_corpus(args.ref, "ref")
    report = _lazy.evaluate_corpus(
        hyp, ref, max_order=args.max_order,
        bp_form=settings.get("bp_form", default=_lazy.BP_STANDARD),
    )
    _print_json(report)
    return EXIT_OK


def cmd_tune(args) -> int:
    _log_warnings()  # a dev set below the recommended size
    settings = Settings(args)
    config = settings.alignment_config()  # reject bad thresholds before any I/O
    for path, what in (
        (args.source, "dev source"),
        (args.target, "dev target"),
        (args.trans, "dev translation"),
        (args.gold, "gold"),
    ):
        _require_file(path, f"{what} file")
    source = load_corpus(args.source, settings.source_language())
    target = load_corpus(args.target, settings.target_language())
    trans = load_corpus(args.trans, settings.target_language())
    gold = load_corpus(args.gold, "gold").lines

    bounds = ()
    if args.bounds:
        parsed = []
        for part in args.bounds.split(","):
            lo, _, hi = part.partition(":")
            try:
                parsed.append((float(lo), float(hi)))
            except ValueError:
                raise ConfigError(f"bad bounds entry {part!r}, expected lo:hi") from None
        bounds = tuple(parsed)

    try:
        job = _lazy.TuningJob(
            source=source,
            target=target,
            trans=trans,
            gold=gold,
            config=config,
            bounds=bounds,
            resolution=args.resolution,
        )
    except DataError:
        # the job's first data check is the translation's length: name the file
        _require_translation(trans, source, args.trans)
        raise
    report = _lazy.tune_chain(job)
    payload = report.as_json_dict()
    payload["config_fragment"] = report.config_fragment()
    if args.out:
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        _write_output(Path(args.out).write_text, text, "utf-8")
    _print_json(payload)
    return EXIT_OK


# -- argument wiring -------------------------------------------------------


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--source-language", dest="source_language")
    parser.add_argument("--target-language", dest="target_language")


def _add_chain_options(parser: _Parser) -> None:
    parser.add_argument("--chain", help="comparator chain, kind:threshold[,...]")
    parser.add_argument("--window", type=int, help="candidate window half-width (0 = full scan)")
    parser.add_argument("--lookahead", type=int, help="lookahead depth (0 = off)")
    parser.add_argument("--cap", type=int, help="synonym variant cap per sentence")
    parser.add_argument("--stopwords", help="stop-word file")
    parser.add_argument("--synonyms", help="synonym lexicon file")


def _add_provider_options(parser: _Parser) -> None:
    parser.add_argument("--provider", choices=["file", "http"], help="translation provider")
    parser.add_argument("--provider-path", dest="provider_path", help="file provider: translation file")
    parser.add_argument("--endpoint", help="http provider: URL template with {text},{src},{tgt}")
    parser.add_argument("--cache", help="translation cache directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="transalign", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("translate", help="write the intermediate translated corpus")
    _add_common(p)
    _add_provider_options(p)
    p.add_argument("--source", required=True, help="source corpus file")
    p.add_argument("--out", required=True, help="output translation file")
    p.add_argument("--stats", action="store_true", help="print provider/cache statistics")
    p.set_defaults(func=cmd_translate)

    p = commands.add_parser("align", help="reconstruct the aligned parallel corpus")
    _add_common(p)
    _add_provider_options(p)
    _add_chain_options(p)
    p.add_argument("--source", required=True, help="source corpus file")
    p.add_argument("--target", required=True, help="target corpus file to realign")
    p.add_argument("--trans", help="intermediate translation file (else auto-translate)")
    p.add_argument("--out-source", required=True, help="aligned source output")
    p.add_argument("--out-target", required=True, help="aligned target output")
    p.add_argument("--report", required=True, help="JSON-lines decision report output")
    p.set_defaults(func=cmd_align)

    p = commands.add_parser("score", help="score an alignment report against gold")
    _add_common(p)
    p.add_argument("--report", required=True, help="alignment report (JSON lines)")
    p.add_argument("--gold", required=True, help="gold target file, one line per source line")
    p.set_defaults(func=cmd_score)

    p = commands.add_parser("evaluate", help="BLEU/TER/CER between two parallel files")
    _add_common(p)
    p.add_argument("--hyp", required=True, help="hypothesis file")
    p.add_argument("--ref", required=True, help="reference file")
    p.add_argument("--max-order", type=int, default=4, help="largest n-gram order")
    # evaluate_corpus checks the value, from a flag or the config alike
    p.add_argument("--bp-form", dest="bp_form", help="brevity penalty: standard or paper")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("tune", help="binary-search comparator thresholds on a dev set")
    _add_common(p)
    _add_chain_options(p)
    p.add_argument("--source", required=True, help="dev source file")
    p.add_argument("--target", required=True, help="dev target file")
    p.add_argument("--trans", required=True, help="dev translation file")
    p.add_argument("--gold", required=True, help="gold target file for the dev set")
    p.add_argument("--bounds", help="per-comparator search bounds lo:hi[,lo:hi...]")
    p.add_argument("--resolution", type=float, default=1 / 256)
    p.add_argument("--out", help="write the tuning report JSON here")
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


if __name__ == "__main__":
    sys.exit(main())
