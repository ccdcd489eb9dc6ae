"""Output checks for every timed run, against the brute-force oracles in
``tests/oracles.py``.

Each check returns ``(problems, quality)``: a list of what was wrong (empty
when the run is correct) and the run's exact quality figure. The generated
text is already normalized, so lines are compared as written and split into
tokens with ``str.split``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def sha256_of(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def check_align(inputs: dict, outputs: dict, stdout: str, oracles) -> tuple[list[str], int]:
    """One pair per source line, targets used once, texts traceable to their
    inputs, A+T+D=L, and S recomputed with ``score_oracle``."""
    source, target, trans, gold = (inputs[k] for k in ("source", "target", "trans", "gold"))
    problems: list[str] = []
    records = [json.loads(line) for line in read_lines(outputs["report"])]
    trailer, decisions = records[-1], records[:-1]
    out_source = read_lines(outputs["out_source"])
    out_target = read_lines(outputs["out_target"])

    if [d.get("source_index") for d in decisions] != list(range(len(source))):
        problems.append("report does not hold exactly one record per source line, in order")
    if out_source != source or len(out_target) != len(source):
        problems.append("aligned source file is not the source corpus, line for line")
    counts = {"aligned": 0, "translated": 0, "filled": 0}
    used: set[int] = set()
    correct = 0
    for i, (decision, text) in enumerate(zip(decisions, out_target)):
        outcome = decision.get("outcome")
        if outcome not in counts or decision.get("text") != text:
            problems.append(f"line {i}: bad outcome {outcome!r} or text differs from output")
            continue
        counts[outcome] += 1
        if outcome == "aligned":
            j = decision.get("target_index")
            if not isinstance(j, int) or not 0 <= j < len(target) or j in used:
                problems.append(f"line {i}: target index {j!r} out of range or reused")
                continue
            used.add(j)
            if text != target[j]:
                problems.append(f"line {i}: aligned text is not target line {j}")
            correct += text == gold[i]
        elif text != trans[i]:
            problems.append(f"line {i}: fill is not the line's own translation")

    a, t, d, total = counts["aligned"], counts["translated"], counts["filled"], len(source)
    if (trailer.get("A"), trailer.get("T"), trailer.get("D"), trailer.get("L")) != (a, t, d, total):
        problems.append(f"trailer counts {trailer} do not match the records")
    if a + t + d != total:
        problems.append(f"A+T+D={a + t + d} but L={total}")
    if trailer.get("unmatched_targets") != sorted(set(range(len(target))) - used):
        problems.append("trailer unmatched_targets is not the set of unused target lines")
    summary = json.loads(stdout)
    if summary != {**{k: trailer.get(k) for k in "ATDL"}, "unmatched_targets": len(target) - len(used)}:
        problems.append(f"stdout summary {summary} disagrees with the report")
    score = oracles.score_oracle(correct, a - correct, t, d, total)
    return problems, score


def expected_evaluate(inputs: dict, oracles) -> dict:
    """Reference figures for one evaluate input, computed once per run."""
    hyps, refs = inputs["hyp"], inputs["ref"]
    pairs = [(h.split(), r.split()) for h, r in zip(hyps, refs)]
    return {
        "bleu": oracles.bleu_direct(pairs),
        "cer": sum(oracles.levenshtein_matrix(h, r) for h, r in zip(hyps, refs))
        / sum(len(r) for r in refs),
        "ter_upper": sum(oracles.levenshtein_matrix(h, r) for h, r in pairs),
        "ter_lower": sum(abs(len(h) - len(r)) for h, r in pairs),
        "c": sum(len(h) for h, _ in pairs),
        "r": sum(len(r) for _, r in pairs),
    }


def check_evaluate(expected: dict, stdout: str) -> tuple[list[str], float]:
    """CER and BLEU equal their oracles; TER edits lie between the length
    difference and the shift-free word edit distance."""
    problems: list[str] = []
    report = json.loads(stdout)
    if (report.get("c"), report.get("r")) != (expected["c"], expected["r"]):
        problems.append(f"token totals c={report.get('c')} r={report.get('r')} are wrong")
    if abs(report.get("cer", -1.0) - expected["cer"]) > 1e-12:
        problems.append(f"CER {report.get('cer')} != oracle {expected['cer']}")
    if abs(report.get("bleu", -1.0) - expected["bleu"]) > 1e-9 * max(expected["bleu"], 1e-9):
        problems.append(f"BLEU {report.get('bleu')} != oracle {expected['bleu']}")
    ter = report.get("ter", -1.0)
    edits = round(ter * expected["r"])
    if abs(edits - ter * expected["r"]) > 1e-6:
        problems.append(f"TER {ter} is not a whole number of edits")
    if not expected["ter_lower"] <= edits <= expected["ter_upper"]:
        problems.append(
            f"TER edits {edits} outside [{expected['ter_lower']}, {expected['ter_upper']}]"
        )
    return problems, 100.0 * (1.0 - ter)


def check_tune(stdout: str, out_path: Path, bounds: tuple[float, float]) -> tuple[list[str], int]:
    """With one comparator the assembled chain is the best probe's chain, so
    the achieved score must equal that probe's score; the probes stay in
    bounds and the written report equals the printed one."""
    problems: list[str] = []
    report = json.loads(stdout)
    if json.loads(out_path.read_text(encoding="utf-8")) != report:
        problems.append("--out file differs from the printed report")
    (outcome,) = report["per_comparator"]
    trace = outcome["trace"]
    best_threshold, best_score = max(trace, key=lambda point: (point[1], -point[0]))
    if (outcome["threshold"], outcome["score"]) != (best_threshold, best_score):
        problems.append(f"chosen point {outcome['threshold']} is not the best probe")
    if report["thresholds"] != [best_threshold] or report["achieved_score"] != best_score:
        problems.append(f"achieved score {report['achieved_score']} != best probe {best_score}")
    if outcome["evaluations"] != len(trace) or report["evaluations"] != len(trace) + 1:
        problems.append("evaluation counts disagree with the trace")
    if not all(bounds[0] <= threshold <= bounds[1] for threshold, _ in trace):
        problems.append("a probe lies outside the search bounds")
    return problems, report["achieved_score"]
