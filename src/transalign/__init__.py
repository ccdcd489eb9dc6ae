"""Bilingual sentence alignment via an intermediate machine translation.

Given a source corpus, a scrambled or partially matching target corpus,
and a line-for-line translation of the source into the target language,
the aligner rebuilds an ordered parallel corpus without losing a single
source line: every line comes out aligned to a real target sentence or
carried by its own translation.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A submodule is
# imported the first time one of its names is read (PEP 562), so
# ``import transalign.corpus`` or one CLI command loads only what it runs.
_EXPORTS = {
    name: module
    for module, names in (
        ("align", ("align", "ALIGNED", "FILLED", "TRANSLATED", "AlignmentConfig",
                   "AlignmentDecision", "AlignmentResult", "read_report", "write_alignment")),
        ("corpus", ("Corpus", "load_corpus", "normalize", "save_corpus", "tokenize")),
        ("errors", ("ConfigError", "CorpusFormatError", "DataError", "GoldMismatchError",
                    "LexiconFormatError", "ProviderError", "TransalignError",
                    "TranslationFailedError")),
        ("lexicon", ("EMPTY_LEXICON", "EMPTY_STOPWORDS", "expand_sentence", "load_stopwords",
                     "load_synonyms")),
        ("metrics", ("BP_PAPER", "BP_STANDARD", "NgramStats", "ScoreCard", "alignment_score",
                     "bleu", "bleu_stats", "brevity_penalty", "cer", "edit_distance",
                     "evaluate_against_gold", "evaluate_corpus", "ter", "ter_edits")),
        ("similarity", ("MATCHING_BLOCKS_RATIO", "SYNONYM_RATIO", "TOKEN_OVERLAP",
                        "ChainContext", "ChainDecision", "Comparator", "ComparatorChain",
                        "PairScores", "evaluate_chain", "lcs_length", "ratio",
                        "synonym_ratio", "token_overlap")),
        ("translate", ("HttpProvider", "TranslationCache", "TranslationProvider",
                       "translate_corpus")),
        ("tuning", ("TuningJob", "TuningOutcome", "TuningReport", "tune_chain",
                    "tune_threshold")),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    # Importing the ``transalign.align`` submodule sets the package's
    # ``align`` to it; ignoring that keeps ``transalign.align`` the
    # function, whichever of the two is imported first.
    def __setattr__(self, name, value):
        if name == "align" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
