"""The four benchmark workloads: inputs, CLI arguments and output checks.

Sizes are chosen so that one CLI run takes one to two seconds at the
seed commit on a 2-core machine, which leaves room for a dozen timed runs
in one benchmark run. Every workload passes ``--trans``, so no translation
provider is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

DRIFT_CHAIN = "token_overlap:0.99,matching_blocks_ratio:0.85,synonym_ratio:0.85"
TUNE_BOUNDS = (0.5, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int  # source lines, or hypothesis/reference pairs
    make_inputs: Callable[[Path, int, int], dict]
    argv: Callable[[dict, Path], list]
    # (loader, input key) pairs a fresh process runs before its first
    # comparator or metric call; timed as setup_s.
    setup_loads: tuple[tuple[str, str], ...]
    # Input key whose line count is the workload's "lines" for lines_per_s.
    lines_key: str


def _align_argv(chain: str, lexicon: bool):
    def argv(files: dict, out: Path) -> list:
        args = [
            "align",
            "--source", str(files["source"]),
            "--target", str(files["target"]),
            "--trans", str(files["trans"]),
            "--chain", chain,
            "--window", "20",
            "--lookahead", "1",
            "--stopwords", str(files["stopwords"]),
            "--out-source", str(out / "aligned.src"),
            "--out-target", str(out / "aligned.tgt"),
            "--report", str(out / "report.jsonl"),
        ]
        if lexicon:
            args += ["--synonyms", str(files["synonyms"])]
        return args

    return argv


def _tune_argv(files: dict, out: Path) -> list:
    return [
        "tune",
        "--source", str(files["source"]),
        "--target", str(files["target"]),
        "--trans", str(files["trans"]),
        "--gold", str(files["gold"]),
        "--chain", "matching_blocks_ratio:0.85",
        "--bounds", "%g:%g" % TUNE_BOUNDS,
        "--resolution", "0.0625",
        "--out", str(out / "tune.json"),
    ]


def _evaluate_argv(files: dict, out: Path) -> list:
    return ["evaluate", "--hyp", str(files["hyp"]), "--ref", str(files["ref"])]


_CORPUS_LOADS = (("corpus", "source"), ("corpus", "target"), ("corpus", "trans"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="align-drift",
            why="most pairs fall through to the character tiers, so ratio, "
            "synonym_ratio and expand_sentence do most of the work",
            size=160,
            make_inputs=lambda d, seed, size: gen.parallel_corpus(
                d, seed, "align-drift", size, synonym_share=0.4, tokens=(5, 10), lexicon_words=150,
            ),
            argv=_align_argv(DRIFT_CHAIN, lexicon=True),
            setup_loads=_CORPUS_LOADS + (("stopwords", "stopwords"), ("synonyms", "synonyms")),
            lines_key="source",
        ),
        Workload(
            name="align-scale",
            why="token Dice only, so the quadratic window-pool scan in align() "
            "dominates; the largest input for setup_s and memory",
            size=3000,
            make_inputs=lambda d, seed, size: gen.parallel_corpus(
                d, seed, "align-scale", size, synonym_share=0.0,
            ),
            argv=_align_argv("token_overlap:0.8", lexicon=False),
            setup_loads=_CORPUS_LOADS + (("stopwords", "stopwords"),),
            lines_key="source",
        ),
        Workload(
            name="tune-dev",
            why="the tuner rescores the same pairs for every threshold, so "
            "sharing scores across evaluations shows here and nowhere else",
            size=120,
            make_inputs=lambda d, seed, size: gen.parallel_corpus(
                d, seed, "tune-dev", size, synonym_share=0.4, tokens=(5, 10),
            ),
            argv=_tune_argv,
            setup_loads=_CORPUS_LOADS,
            lines_key="source",
        ),
        Workload(
            name="evaluate-mt",
            why="all metrics (TER hill-climbing at about n^4, plus CER); "
            "align and similarity are never touched",
            size=300,
            make_inputs=lambda d, seed, size: gen.mt_pairs(d, seed, "evaluate-mt", size, tokens=(4, 9)),
            argv=_evaluate_argv,
            setup_loads=(("corpus", "hyp"), ("corpus", "ref")),
            lines_key="hyp",
        ),
    )
}


def output_files(workload: Workload, out: Path) -> dict:
    if workload.name.startswith("align"):
        return {
            "out_source": out / "aligned.src",
            "out_target": out / "aligned.tgt",
            "report": out / "report.jsonl",
        }
    if workload.name == "tune-dev":
        return {"tune": out / "tune.json"}
    return {}


class Checker:
    """Checks one workload's outputs; reference figures that depend only on
    the inputs are computed once, when the checker is built."""

    def __init__(self, workload: Workload, files: dict, oracles):
        self.workload = workload
        self.oracles = oracles
        self.inputs = {
            key: checks.read_lines(path)
            for key, path in files.items()
            if key in ("source", "target", "trans", "gold", "hyp", "ref")
        }
        if workload.name == "evaluate-mt":
            self.expected = checks.expected_evaluate(self.inputs, oracles)

    def __call__(self, out: Path, stdout: str) -> tuple[list[str], float]:
        outputs = output_files(self.workload, out)
        if self.workload.name.startswith("align"):
            return checks.check_align(self.inputs, outputs, stdout, self.oracles)
        if self.workload.name == "tune-dev":
            return checks.check_tune(stdout, outputs["tune"], TUNE_BOUNDS)
        return checks.check_evaluate(self.expected, stdout)
