"""Traced CLI run and the per-layer metrics derived from it.

Run as a script, this is the child process of a traced run:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_JSON RUN_ID -- align --source ...

It wraps the package's public functions at the attribute where each caller
looks them up (modules import names directly, so ``transalign.align`` sees
``evaluate_chain`` through its own namespace), calls ``cli.main(argv)``
in-process and writes the trace to TRACE_JSON. One process per run, because
``similarity._cached_tokens`` is a process-wide cache.

Coarse layer calls are kept as spans (name, start, end, parent, run id).
Hot leaf calls (ratio, edit_distance, ...) happen up to a few hundred
thousand times per run, so they are only summed per name: calls, total
time and self time, where self time is the call's duration minus the time
spent in wrapped calls it made.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# Per-layer metrics: name, unit, which direction is better, and the
# end-to-end metric and workload each one is expected to move.
LAYER_METRICS = (
    ("cli.main.self_s", "s", "lower", "lines_per_s everywhere, small"),
    ("corpus.load_corpus.s", "s", "lower", "setup_s on every workload, most on align-scale"),
    ("corpus.tokenize.calls", "count", "lower", "lines_per_s on align-scale"),
    ("corpus.tokenize.self_s", "s", "lower", "lines_per_s on align-scale"),
    ("lexicon.expand_sentence.calls", "count", "lower", "lines_per_s on align-drift"),
    ("lexicon.expand_sentence.variants", "count", "lower", "lines_per_s on align-drift"),
    ("lexicon.expand_sentence.self_s", "s", "lower", "lines_per_s on align-drift"),
    ("similarity.evaluate_chain.calls", "count", "lower", "lines_per_s on align-* and tune-dev"),
    ("similarity.evaluate_chain.accept_ratio", "ratio", "higher", "lines_per_s on align-* and tune-dev"),
    ("similarity.tier.token_overlap.accepted", "count", "higher", "lines_per_s on align-* and tune-dev"),
    ("similarity.tier.matching_blocks_ratio.accepted", "count", "higher", "lines_per_s on align-* and tune-dev"),
    ("similarity.tier.synonym_ratio.accepted", "count", "higher", "lines_per_s on align-* and tune-dev"),
    ("similarity.ratio.calls", "count", "lower", "lines_per_s on align-drift and tune-dev; 0 on align-scale"),
    ("similarity.ratio.us_per_call", "us", "lower", "lines_per_s on align-drift and tune-dev"),
    ("similarity.synonym_ratio.calls", "count", "lower", "lines_per_s on align-drift"),
    ("similarity.synonym_ratio.self_s", "s", "lower", "lines_per_s on align-drift"),
    ("similarity.token_overlap.calls", "count", "lower", "lines_per_s on align-scale"),
    ("similarity.token_overlap.us_per_call", "us", "lower", "lines_per_s on align-scale"),
    ("align.align.self_s", "s", "lower", "lines_per_s on align-scale; not evaluate-mt"),
    ("align.select_candidate.candidates", "count", "lower", "lines_per_s on align-scale; not evaluate-mt"),
    ("align.lookahead_resolve.calls", "count", "lower", "lines_per_s on align-scale; not evaluate-mt"),
    ("align.lookahead_resolve.deferrals", "count", "lower", "lines_per_s on align-scale; not evaluate-mt"),
    ("align.write_alignment.s", "s", "lower", "lines_per_s on align-scale; not evaluate-mt"),
    ("tuning.evaluations", "count", "lower", "lines_per_s on tune-dev; not align-drift"),
    ("tuning.align_s_per_evaluation", "s", "lower", "lines_per_s on tune-dev; not align-drift"),
    ("tuning.evaluate_chain_calls_per_evaluation", "count", "lower", "lines_per_s on tune-dev; not align-drift"),
    ("metrics.evaluate_against_gold.s", "s", "lower", "lines_per_s on tune-dev; not align-drift"),
    ("metrics.ter_edits.ms_p50", "ms", "lower", "lines_per_s on evaluate-mt only"),
    ("metrics.ter_edits.ms_p95", "ms", "lower", "lines_per_s on evaluate-mt only"),
    ("metrics.edit_distance.tokens.calls", "count", "lower", "lines_per_s on evaluate-mt only"),
    ("metrics.edit_distance.tokens.us_per_call", "us", "lower", "lines_per_s on evaluate-mt only"),
    ("metrics.edit_distance.chars.calls", "count", "lower", "lines_per_s on evaluate-mt only"),
    ("metrics.edit_distance.chars.us_per_call", "us", "lower", "lines_per_s on evaluate-mt only"),
    ("metrics.bleu_stats.us_per_pair", "us", "lower", "lines_per_s on evaluate-mt only"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced wall time of the CLI process"),
)

SPAN, LEAF = True, False


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.spans: list = []
        # Each frame: [time spent in wrapped children, index of nearest span].
        self.stack: list[list] = [[0.0, -1]]
        self.missing: list[str] = []

    def record(self, name, fn, args, kwargs, span):
        parent = self.stack[-1]
        frame = [0.0, len(self.spans) if span else parent[1]]
        if span:
            self.spans.append(None)
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            parent[0] += duration
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[0]
            if span:
                self.spans[frame[1]] = (name, start, end, parent[1], self.run_id)
        return result, duration

    def wrap(self, module, attr: str, name, span: bool = LEAF, after=None):
        """Replace ``module.attr`` with a timed wrapper. ``name`` may be a
        function of the call's arguments; ``after(args, kwargs, result, seconds)``
        updates counters."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            result, seconds = self.record(key, fn, args, kwargs, span)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        setattr(module, attr, wrapper)

    def install(self):
        cli, align, similarity, tuning, metrics = (
            importlib.import_module(f"transalign.{name}")
            for name in ("cli", "align", "similarity", "tuning", "metrics")
        )
        c = self.counters

        def on_chain(args, kwargs, decision, _):
            if decision.accepted:
                c["similarity.evaluate_chain.accepted"] += 1
                c[f"similarity.tier.{decision.comparator.kind}.accepted"] += 1

        def on_select(args, kwargs, result, _):
            c["align.select_candidate.candidates"] += len(kwargs.get("pool", args[1] if len(args) > 1 else ()))

        def on_lookahead(args, kwargs, keep, _):
            c["align.lookahead_resolve.deferrals"] += not keep

        def on_tuning_align(args, kwargs, result, seconds):
            c["tuning.evaluations"] += 1
            c["tuning.align_s"] += seconds

        def on_expand(args, kwargs, variants, _):
            c["lexicon.expand_sentence.variants"] += len(variants)

        def on_ter(args, kwargs, result, seconds):
            self.samples["metrics.ter_edits.ms"].append(seconds * 1e3)

        def edit_distance_kind(args):
            return "metrics.edit_distance." + ("chars" if isinstance(args[0], str) else "tokens")

        self.wrap(cli, "load_corpus", "corpus.load_corpus", SPAN)
        self.wrap(cli, "align", "align.align", SPAN)
        self.wrap(cli, "write_alignment", "align.write_alignment", SPAN)
        self.wrap(cli, "tune_chain", "tuning.tune_chain", SPAN)
        self.wrap(cli, "evaluate_corpus", "metrics.evaluate_corpus", SPAN)
        self.wrap(tuning, "align", "align.align", SPAN, on_tuning_align)
        self.wrap(tuning, "evaluate_against_gold", "metrics.evaluate_against_gold", SPAN)
        self.wrap(align, "select_candidate", "align.select_candidate", LEAF, on_select)
        self.wrap(align, "lookahead_resolve", "align.lookahead_resolve", LEAF, on_lookahead)
        self.wrap(align, "evaluate_chain", "similarity.evaluate_chain", LEAF, on_chain)
        self.wrap(similarity, "token_overlap", "similarity.token_overlap")
        self.wrap(similarity, "ratio", "similarity.ratio")
        self.wrap(similarity, "synonym_ratio", "similarity.synonym_ratio")
        self.wrap(similarity, "expand_sentence", "lexicon.expand_sentence", LEAF, on_expand)
        self.wrap(similarity, "tokenize", "corpus.tokenize")
        self.wrap(metrics, "ter_edits", "metrics.ter_edits", LEAF, on_ter)
        self.wrap(metrics, "edit_distance", edit_distance_kind)
        self.wrap(metrics, "bleu_stats", "metrics.bleu_stats")
        return cli

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "stats": self.stats,
            "counters": dict(self.counters),
            "samples": dict(self.samples),
            "spans": self.spans,
            "missing": self.missing,
        }


def _percentile(values: list, share: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def derive(trace: dict) -> dict:
    """Per-layer metric values from one trace (``trace.overhead_ratio`` is
    filled in by the caller, which also times untraced runs)."""
    stats, counters = trace["stats"], trace["counters"]

    def calls(name):
        return stats.get(name, [0])[0]

    def total(name):
        return stats.get(name, [0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def us_per_call(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    chain_calls = calls("similarity.evaluate_chain")
    evaluations = counters.get("tuning.evaluations", 0)
    ter_ms = trace["samples"].get("metrics.ter_edits.ms", [])
    values = {
        "cli.main.self_s": self_s("cli.main"),
        "corpus.load_corpus.s": total("corpus.load_corpus"),
        "corpus.tokenize.calls": calls("corpus.tokenize"),
        "corpus.tokenize.self_s": self_s("corpus.tokenize"),
        "lexicon.expand_sentence.calls": calls("lexicon.expand_sentence"),
        "lexicon.expand_sentence.variants": counters.get("lexicon.expand_sentence.variants", 0),
        "lexicon.expand_sentence.self_s": self_s("lexicon.expand_sentence"),
        "similarity.evaluate_chain.calls": chain_calls,
        "similarity.evaluate_chain.accept_ratio": (
            counters.get("similarity.evaluate_chain.accepted", 0) / chain_calls if chain_calls else 0.0
        ),
        "similarity.ratio.calls": calls("similarity.ratio"),
        "similarity.ratio.us_per_call": us_per_call("similarity.ratio"),
        "similarity.synonym_ratio.calls": calls("similarity.synonym_ratio"),
        "similarity.synonym_ratio.self_s": self_s("similarity.synonym_ratio"),
        "similarity.token_overlap.calls": calls("similarity.token_overlap"),
        "similarity.token_overlap.us_per_call": us_per_call("similarity.token_overlap"),
        "align.align.self_s": self_s("align.align"),
        "align.select_candidate.candidates": counters.get("align.select_candidate.candidates", 0),
        "align.lookahead_resolve.calls": calls("align.lookahead_resolve"),
        "align.lookahead_resolve.deferrals": counters.get("align.lookahead_resolve.deferrals", 0),
        "align.write_alignment.s": total("align.write_alignment"),
        "tuning.evaluations": evaluations,
        # On tune-dev every chain evaluation happens inside a tuner evaluation.
        "tuning.align_s_per_evaluation": (
            counters.get("tuning.align_s", 0.0) / evaluations if evaluations else 0.0
        ),
        "tuning.evaluate_chain_calls_per_evaluation": chain_calls / evaluations if evaluations else 0.0,
        "metrics.evaluate_against_gold.s": total("metrics.evaluate_against_gold"),
        "metrics.ter_edits.ms_p50": _percentile(ter_ms, 0.50),
        "metrics.ter_edits.ms_p95": _percentile(ter_ms, 0.95),
        "metrics.edit_distance.tokens.calls": calls("metrics.edit_distance.tokens"),
        "metrics.edit_distance.tokens.us_per_call": us_per_call("metrics.edit_distance.tokens"),
        "metrics.edit_distance.chars.calls": calls("metrics.edit_distance.chars"),
        "metrics.edit_distance.chars.us_per_call": us_per_call("metrics.edit_distance.chars"),
        "metrics.bleu_stats.us_per_pair": us_per_call("metrics.bleu_stats"),
    }
    for kind in ("token_overlap", "matching_blocks_ratio", "synonym_ratio"):
        key = f"similarity.tier.{kind}.accepted"
        values[key] = counters.get(key, 0)
    return values


def span_tree(spans: list) -> list[str]:
    """Spans grouped by their path from the root, one line per path."""
    paths: dict[int, str] = {}
    totals: dict[str, list] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        paths[index] = f"{paths[parent]} > {name}" if parent >= 0 else name
        entry = totals.setdefault(paths[index], [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    return [
        f"{'  ' * path.count(' > ')}{path.rsplit(' > ', 1)[-1]}: {count} x, {seconds:.4f} s"
        for path, (count, seconds) in totals.items()
    ]


def main(argv: list[str]) -> int:
    trace_path, run_id, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON RUN_ID -- CLI_ARGS...")
    tracer = Tracer(int(run_id))
    cli = tracer.install()
    result, _ = tracer.record("cli.main", cli.main, (cli_argv,), {}, SPAN)
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({**tracer.dump(), "exit_code": result}, handle)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
