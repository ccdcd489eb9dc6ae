"""Bilingual sentence alignment via an intermediate machine translation.

Given a source corpus, a scrambled or partially matching target corpus,
and a line-for-line translation of the source into the target language,
the aligner rebuilds an ordered parallel corpus without losing a single
source line: every line comes out aligned to a real target sentence or
carried by its own translation.
"""

import types

from .align import (
    ALIGNED,
    FILLED,
    TRANSLATED,
    AlignmentConfig,
    AlignmentDecision,
    AlignmentResult,
    align,
    read_report,
    write_alignment,
)
from .corpus import Corpus, Sentence, load_corpus, normalize, save_corpus, split_tokens
from .errors import (
    ConfigError,
    CorpusFormatError,
    DataError,
    GoldMismatchError,
    LexiconFormatError,
    ProviderError,
    TransalignError,
    TranslationFailedError,
)
from .lexicon import (
    EMPTY_LEXICON,
    EMPTY_STOPWORDS,
    StopWordList,
    SynonymLexicon,
    expand_sentence,
    load_stopwords,
    load_synonyms,
)
from .metrics import (
    BP_PAPER,
    BP_STANDARD,
    NgramStats,
    ScoreCard,
    alignment_score,
    bleu,
    bleu_stats,
    brevity_penalty,
    cer,
    edit_distance,
    evaluate_against_gold,
    evaluate_corpus,
    ter,
    ter_edits,
)
from .similarity import (
    MATCHING_BLOCKS_RATIO,
    SYNONYM_RATIO,
    TOKEN_OVERLAP,
    ChainContext,
    ChainDecision,
    Comparator,
    ComparatorChain,
    PairScores,
    evaluate_chain,
    lcs_length,
    matching_blocks,
    ratio,
    ratio_bound,
    synonym_ratio,
    token_overlap,
)
from .translate import (
    FileProvider,
    HttpProvider,
    TranslationCache,
    TranslationProvider,
    translate_corpus,
)
from .tuning import TuningJob, TuningOutcome, TuningReport, tune_chain, tune_threshold

__version__ = "0.1.0"

# Every name imported above, plus the version; submodules are not exported.
__all__ = [name for name, value in globals().items() if not name.startswith("_")
           and not isinstance(value, types.ModuleType)] + ["__version__"]
