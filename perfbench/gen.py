"""Seeded input generator for the benchmark workloads.

Every file comes from ``random.Random(f"{workload}:{seed}")``, so the same
seed and workload give byte-identical inputs. Text is already in the form
``transalign.corpus.normalize`` produces (lowercase ASCII words joined by
single spaces), so the checks can split lines with ``str.split`` and need
none of the package's own tokenizer.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

LETTERS = "abcdefghijklmnopqrstuvwxyz"
N_STOPWORDS = 24


class Vocabulary:
    """Zipf-ish vocabulary: short stop words at the top ranks, content words
    below, drawn with weight 1/rank so a few words dominate like in text."""

    def __init__(self, rng: random.Random, size: int = 3000):
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < size:
            # Word length follows rank, not chance, so the text's character
            # count (which sets the character tiers' cost) is the same for
            # every seed.
            rank = len(words)
            length = 2 + rank % 2 if rank < N_STOPWORDS else 3 + rank % 7
            word = "".join(rng.choice(LETTERS) for _ in range(length))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self.stopwords = words[:N_STOPWORDS]
        self._cum = list(itertools.accumulate(1.0 / rank for rank in range(1, size + 1)))
        self._seen = seen

    def sentence(self, rng: random.Random, length: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=length)

    def new_word(self, rng: random.Random) -> str:
        """A fresh word outside the vocabulary (used as a synonym)."""
        while True:
            word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(4, 9)))
            if word not in self._seen:
                self._seen.add(word)
                return word


def unique_sentences(vocab: Vocabulary, rng: random.Random, n: int, lo: int, hi: int):
    """n distinct sentences whose lengths cycle evenly through lo..hi, so
    the total work barely changes from one seed to the next."""
    lengths = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(lengths)
    seen: set[str] = set()
    out: list[list[str]] = []
    for length in lengths:
        while True:
            tokens = vocab.sentence(rng, length)
            line = " ".join(tokens)
            if line not in seen:
                seen.add(line)
                out.append(tokens)
                break
    return out


def window_shuffle(items: list, rng: random.Random, width: int = 10) -> list:
    out = []
    for start in range(0, len(items), width):
        block = items[start : start + width]
        rng.shuffle(block)
        out.extend(block)
    return out


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def parallel_corpus(
    workdir: Path,
    seed: int,
    name: str,
    lines: int,
    synonym_share: float,
    tokens: tuple[int, int] = (7, 14),
    lexicon_words: int = 400,
) -> dict:
    """Source, drifted target, noisy translation, gold, stop words, lexicon.

    The target keeps 95% of the true target lines, shuffled in width-10
    windows. Each translation is its true target with one word dropped, and
    a ``synonym_share`` of them also have one lexicon word swapped for its
    seeded synonym, which only the synonym tier can undo. The source side is
    the target with every word reversed; only its line count matters.
    """
    rng = random.Random(f"{name}:{seed}")
    vocab = Vocabulary(rng)
    truth = unique_sentences(vocab, rng, lines, *tokens)

    # Symmetric lexicon over the most frequent content words: every such
    # word can be swapped, and every sentence holding one expands.
    synonym_of = {
        word: vocab.new_word(rng) for word in vocab.words[N_STOPWORDS : N_STOPWORDS + lexicon_words]
    }
    lexicon_lines = []
    for word, synonym in synonym_of.items():
        lexicon_lines.append(f"{word}\t{synonym}")
        lexicon_lines.append(f"{synonym}\t{word}")

    swapped = set(rng.sample(range(lines), round(synonym_share * lines)))
    trans = []
    for i, tokens_ in enumerate(truth):
        noisy = list(tokens_)
        del noisy[rng.randrange(len(noisy))]
        if i in swapped:
            swappable = [k for k, tok in enumerate(noisy) if tok in synonym_of]
            if swappable:
                k = rng.choice(swappable)
                noisy[k] = synonym_of[noisy[k]]
        trans.append(" ".join(noisy))

    gold = [" ".join(t) for t in truth]
    # One drop in every block of 20 lines: the gap between a line's expected
    # and actual target position stays small, so the candidate pools, and
    # with them the work, hardly change from one seed to the next.
    dropped = {start + rng.randrange(20) for start in range(0, lines - 19, 20)}
    target = window_shuffle([g for i, g in enumerate(gold) if i not in dropped], rng)
    source = [" ".join(tok[::-1] for tok in t) for t in truth]

    files = {
        "source": workdir / "source.txt",
        "target": workdir / "target.txt",
        "trans": workdir / "trans.txt",
        "gold": workdir / "gold.txt",
        "stopwords": workdir / "stopwords.txt",
        "synonyms": workdir / "synonyms.tsv",
    }
    write_lines(files["source"], source)
    write_lines(files["target"], target)
    write_lines(files["trans"], trans)
    write_lines(files["gold"], gold)
    write_lines(files["stopwords"], vocab.stopwords)
    write_lines(files["synonyms"], lexicon_lines)
    return files


def mt_pairs(workdir: Path, seed: int, name: str, pairs: int, tokens: tuple[int, int]) -> dict:
    """Reference sentences and MT-like hypotheses.

    Each hypothesis drops a word (if it has more than four), substitutes
    one word (two in every other pair) and moves a 2-word block elsewhere,
    so TER has a shift worth taking and its hill-climbing search runs more
    than one round on most pairs.
    """
    rng = random.Random(f"{name}:{seed}")
    vocab = Vocabulary(rng)
    refs, hyps = [], []
    for i, ref in enumerate(unique_sentences(vocab, rng, pairs, *tokens)):
        hyp = list(ref)
        if len(hyp) > 4:
            del hyp[rng.randrange(len(hyp))]
        for _ in range(1 + i % 2):
            hyp[rng.randrange(len(hyp))] = vocab.sentence(rng, 1)[0]
        start = rng.randrange(len(hyp) - 1)
        block = hyp[start : start + 2]
        rest = hyp[:start] + hyp[start + 2 :]
        dest = rng.choice([d for d in range(len(rest) + 1) if d != start])
        hyp = rest[:dest] + block + rest[dest:]
        refs.append(" ".join(ref))
        hyps.append(" ".join(hyp))
    files = {"hyp": workdir / "hyp.txt", "ref": workdir / "ref.txt"}
    write_lines(files["hyp"], hyps)
    write_lines(files["ref"], refs)
    return files
