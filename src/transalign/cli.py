"""Command-line surface: translate, align, score, evaluate, tune.

Settings come from an optional JSON config file; any flag given on the
command line wins over the config. Exit codes are stable: 0 success,
1 usage/config error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .corpus import load_corpus, save_corpus
from .errors import ConfigError, DataError, ProviderError
from .metrics import BP_PAPER, BP_STANDARD, evaluate_against_gold, evaluate_corpus

# These names are read from the package, which imports their submodule on
# first use (PEP 562): each command loads only the modules it runs.
# Commands read them through ``_lazy``, this module itself, at call time,
# so a wrapper set on this module (perfbench/tracer.py sets ``align``,
# ``write_alignment`` and ``tune_chain``) is the one that runs.
_LAZY = {
    "AlignmentConfig", "align", "read_report", "write_alignment",
    "EMPTY_LEXICON", "EMPTY_STOPWORDS", "load_stopwords", "load_synonyms",
    "Comparator", "ComparatorChain",
    "FileProvider", "HttpProvider", "TranslationCache", "translate_corpus",
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
    if not comparators:
        raise ConfigError(f"chain spec {spec!r} has no comparators")
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

    def get(self, flag_name: str, config_key: str | None = None, default=None):
        value = getattr(self.args, flag_name, None)
        if value is not None:
            return value
        return self.config.get(config_key or flag_name, default)

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
        if isinstance(spec, list):
            comparators = []
            for entry in spec:
                try:
                    comparators.append(_lazy.Comparator(entry["kind"], entry["threshold"]))
                except (KeyError, TypeError) as exc:
                    raise ConfigError(f"bad chain entry in config: {entry!r}") from exc
            if not comparators:
                raise ConfigError("config chain is empty")
            return _lazy.ComparatorChain(tuple(comparators))
        raise ConfigError("config chain must be a string spec or a list of objects")

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
        directory = self.get("cache", "cache_dir")
        if directory is not None and not isinstance(directory, str):
            raise ConfigError(f"cache_dir must be a path string, got {directory!r}")
        return _lazy.TranslationCache(directory) if directory else None

    def provider(self):
        kind = self.get("provider")
        settings = self.config.get("provider_settings", {})
        if not isinstance(settings, dict):
            raise ConfigError("provider settings must be a JSON object")
        if kind is None:
            raise ConfigError("no translation provider configured")
        if kind == "file":
            path = self.get("provider_path", default=settings.get("path"))
            if not path:
                raise ConfigError("file provider needs a path (--provider-path)")
            _require_file(path, "translation file")
            return _lazy.FileProvider(path)
        if kind == "http":
            endpoint = self.get("endpoint", default=settings.get("endpoint"))
            optional = ("response_path", "max_concurrency", "timeout", "retries", "backoff")
            given = {key: settings[key] for key in optional if key in settings}
            return _lazy.HttpProvider(endpoint=endpoint, **given)
        raise ConfigError(f"unknown provider type {kind!r} (expected file or http)")

    def alignment_config(self) -> AlignmentConfig:
        given = {
            field: self.get(flag, field)
            for flag, field in (("window", "window"), ("lookahead", "lookahead_depth"), ("cap", "cap"))
            if getattr(self.args, flag, None) is not None or field in self.config
        }
        return _lazy.AlignmentConfig(
            chain=self.chain(), stopwords=self.stopwords(), lexicon=self.lexicon(), **given
        )


def _require_file(path, description: str) -> None:
    if not isinstance(path, str):
        raise ConfigError(f"{description} must be a path string, got {path!r}")
    if not Path(path).is_file():
        raise ConfigError(f"{description} not found: {path}")


def _write_output(write, *args) -> None:
    """Run one output writer; a path that cannot be written is a ConfigError."""
    try:
        write(*args)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from exc


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False))


# -- commands -------------------------------------------------------------


def cmd_translate(args) -> int:
    settings = Settings(args)
    _require_file(args.source, "source file")
    provider = settings.provider()
    corpus = load_corpus(args.source, settings.source_language())
    stats: dict = {}
    translated = _lazy.translate_corpus(
        corpus,
        provider,
        cache=settings.cache(),
        target_language=settings.target_language(),
        stats_out=stats,
    )
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

    trans_path = args.trans or settings.config.get("trans")
    if trans_path:
        _require_file(trans_path, "translation file")
        trans = load_corpus(trans_path, settings.target_language())
    else:
        trans = _lazy.translate_corpus(
            source,
            settings.provider(),
            cache=settings.cache(),
            target_language=settings.target_language(),
        )

    result = _lazy.align(source, target, trans, config)
    _write_output(_lazy.write_alignment, result, args.out_source, args.out_target, args.report)
    _print_json(
        {
            "A": result.aligned_count,
            "T": result.translated_count,
            "D": result.disproportion_count,
            "L": result.total,
            "unmatched_targets": len(result.unmatched_target_indices),
        }
    )
    return EXIT_OK


def cmd_score(args) -> int:
    _require_file(args.report, "report file")
    result = _lazy.read_report(args.report)
    _require_file(args.gold, "gold file")
    gold = load_corpus(args.gold, "gold").lines
    card = evaluate_against_gold(result, gold)
    _print_json(card.as_json_dict())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    settings = Settings(args)
    _require_file(args.hyp, "hypothesis file")
    _require_file(args.ref, "reference file")
    hyp = load_corpus(args.hyp, "hyp")
    ref = load_corpus(args.ref, "ref")
    report = evaluate_corpus(
        hyp, ref, max_order=args.max_order,
        bp_form=settings.get("bp_form", default=BP_STANDARD),
    )
    _print_json(report)
    return EXIT_OK


def cmd_tune(args) -> int:
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

    job = _lazy.TuningJob(
        source=source,
        target=target,
        trans=trans,
        gold=gold,
        config=config,
        bounds=bounds,
        resolution=args.resolution,
    )
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
    p.add_argument("--bp-form", dest="bp_form", choices=[BP_STANDARD, BP_PAPER])
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
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
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
