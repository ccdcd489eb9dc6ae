"""Value semantics of the public types: constructor keywords, equality,
hashing, repr, copies and pickles, refused field assignment and the errors
of bad values."""

import copy
import math
import pickle

import pytest

from transalign.align import AlignmentConfig, AlignmentDecision, AlignmentResult, align
from transalign.corpus import Corpus
from transalign.errors import ConfigError
from transalign.metrics import NgramStats, ScoreCard
from transalign.similarity import (
    ChainContext,
    ChainDecision,
    Comparator,
    ComparatorChain,
    PairScores,
)
from transalign.translate import HttpProvider
from transalign.tuning import TuningOutcome

COMPARATOR = Comparator(kind="token_overlap", threshold=0.5)
CHAIN = ComparatorChain(comparators=(COMPARATOR,))


def stopwords():
    return frozenset({"the"})


def lexicon():
    return {"cat": ("kitty",)}


def context(cap=8):
    return ChainContext(stopwords=stopwords(), lexicon=lexicon(), cap=cap)


def test_equal_corpora_are_equal_and_hash_equal():
    loaded = Corpus(language="en", lines=["a", "b"])
    built = Corpus("en", ("a", "b"))
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded.lines == ("a", "b")
    assert loaded != Corpus("de", ("a", "b")) and loaded != Corpus("en", ("a",))
    assert len({loaded, built}) == 1


def test_context_stopwords_and_lexicon_compare_by_value():
    assert context() == context() and context() != context(cap=9)
    assert context() != ChainContext(frozenset({"a"}), lexicon(), 8)
    assert context() != ChainContext(stopwords(), {"cat": ("tom",)}, 8)
    assert ChainContext() == ChainContext(frozenset(), {})
    with pytest.raises(TypeError):
        hash(context())  # its lexicon is a dict


def test_align_accepts_a_table_built_with_an_equal_context():
    corpus = Corpus("en", ("the cat sat", "a dog ran"))
    config = AlignmentConfig(CHAIN, stopwords=stopwords(), lexicon=lexicon(), cap=8)
    table = PairScores(corpus.normalized, corpus.normalized, context())
    assert align(corpus, corpus, corpus, config, table) == align(corpus, corpus, corpus, config)
    other = PairScores(corpus.normalized, corpus.normalized, context(cap=9))
    with pytest.raises(ConfigError):
        align(corpus, corpus, corpus, config, other)


def test_equal_values_and_their_hashes():
    assert Comparator("token_overlap", 1) == Comparator("token_overlap", 1.0)
    assert hash(COMPARATOR) == hash(Comparator("token_overlap", 0.5))
    assert hash(CHAIN) == hash(ComparatorChain([Comparator("token_overlap", 0.5)]))
    assert AlignmentConfig(CHAIN, window=3) == AlignmentConfig(CHAIN, window=3)
    assert AlignmentConfig(CHAIN, window=3) != AlignmentConfig(CHAIN, window=4)
    provider = HttpProvider(endpoint="http://localhost/{text}", timeout=2)
    assert provider == HttpProvider("http://localhost/{text}", timeout=2)
    with pytest.raises(TypeError):
        hash(provider)


FROZEN = [
    (Corpus("en", ("a",)), "lines"),
    (COMPARATOR, "threshold"),
    (CHAIN, "comparators"),
    (context(), "cap"),
    (AlignmentConfig(CHAIN), "window"),
    (AlignmentDecision(source_index=0, outcome="translated", text="a"), "text"),
    (AlignmentResult(decisions=(), unmatched_target_indices=()), "decisions"),
    (ChainDecision(accepted=True, score=1.0, comparator=COMPARATOR), "score"),
    (ScoreCard(1, 0, 0, 0, 1, 100), "score"),
    (NgramStats(matches=(1,), totals=(1,), hyp_len=1, ref_len=1), "hyp_len"),
]


@pytest.mark.parametrize("value, field", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_fields_of_immutable_types_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize(
    "build",
    [
        lambda: Comparator(kind="token_overlap", threshold=True),
        lambda: Comparator("token_overlap", math.nan),
        lambda: Comparator("token_overlap", "0.5"),
        lambda: AlignmentConfig(chain=CHAIN, lookahead_depth=True),
        lambda: HttpProvider(""),
        lambda: HttpProvider(endpoint="http://localhost/{nope}"),
        lambda: HttpProvider("http://localhost/{text}", response_path=5),
        lambda: HttpProvider("http://localhost/{text}", max_concurrency=0),
        lambda: HttpProvider("http://localhost/{text}", timeout=0),
        lambda: HttpProvider("http://localhost/{text}", retries=True),
        lambda: HttpProvider("http://localhost/{text}", backoff=math.inf),
    ],
)
def test_bad_values_raise_config_error(build):
    with pytest.raises(ConfigError):
        build()


def test_records_show_their_fields():
    assert repr(ScoreCard(1, 0, 0, 0, 1, 100)) == (
        "ScoreCard(aligned=1, misaligned=0, translated=0, disproportion=0, total=1, score=100)"
    )
    assert repr(AlignmentDecision(0, "translated", "a")) == (
        "AlignmentDecision(source_index=0, outcome='translated', text='a', "
        "target_index=None, score=None, comparator=None)"
    )
    assert repr(TuningOutcome(0, 0.5, 90, 3, ((0.5, 90),))) == (
        "TuningOutcome(position=0, threshold=0.5, score=90, evaluations=3, trace=((0.5, 90),))"
    )
    assert repr(COMPARATOR) == "Comparator(kind='token_overlap', threshold=0.5)"


@pytest.mark.parametrize("value", [
    Corpus("en", ("a", "b")), stopwords(), lexicon(), COMPARATOR, CHAIN, context(),
    AlignmentConfig(CHAIN, window=3, stopwords=stopwords()),
    HttpProvider("http://localhost/{text}", retries=0),
])
def test_copies_and_pickles_are_equal_values(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
