import re
import shutil
from pathlib import Path

from transalign.cli import main
from transalign.corpus import Corpus, load_corpus

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def library_use_blocks():
    """The Python code blocks of README's "Library use" section, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_readme_library_use_runs_and_scores_like_the_cli(tmp_path, monkeypatch, capsys):
    # The fixture's source and target are one language, so the source is
    # its own translation and its own gold.
    source, target = FIXTURES / "parallel_1005.src", FIXTURES / "parallel_1005.tgt"
    for name, fixture in (("corpus.pl", source), ("corpus.en", target),
                          ("corpus.trans", source), ("gold.en", source)):
        shutil.copyfile(fixture, tmp_path / name)
    (tmp_path / "dev.gold.en").write_text(
        "".join(line + "\n" for line in load_corpus(source, "en").lines[:40]), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    namespace = {}
    first, shared_table, tuning = library_use_blocks()
    exec(compile(first, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    exec(compile(shared_table, "README.md", "exec"), namespace)
    # The tuning block runs on the first 40 lines, which is fast enough here.
    for name in ("src", "tgt", "trans"):
        corpus = namespace[name]
        namespace[name] = Corpus(corpus.language, corpus.lines[:40])
    exec(compile(tuning, "README.md", "exec"), namespace)
    assert namespace["report"].achieved_score > 90  # S, in points out of 100
    capsys.readouterr()

    # The block's chain and window are the CLI defaults.
    argv = ["align", "--source", "corpus.pl", "--target", "corpus.en",
            "--trans", "corpus.trans", "--out-source", "out.pl", "--out-target", "out.en",
            "--report", "report.jsonl"]
    assert main(argv) == 0
    assert main(["score", "--report", "report.jsonl", "--gold", "gold.en"]) == 0
    score = re.search(r'"S": (-?\d+)', capsys.readouterr().out).group(1)
    assert printed == [score]
