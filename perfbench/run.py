"""Benchmark of the transalign CLI on seeded, generated workloads.

    python3 perfbench/run.py --workload align-drift --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout. Each timed run is a fresh
``python -m transalign.cli`` child with the checkout's ``src`` on
``PYTHONPATH``, one at a time: a closed loop with one client. Every run's
outputs are checked against the oracles in ``tests/oracles.py``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of separate traced runs (see ``tracer.py``), alternating traced
and untraced runs so the tracing overhead is measured too. ``--workload
all`` interleaves the workloads round by round, so machine drift hits them
alike, and reports both kinds of metric, each name prefixed with its
workload. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric's spread and sample count, and a ``record`` line with
the environment, the seed, the raw timings and the sha256 of inputs and
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, Checker, output_files

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_RUNS = 3
CAL_ROUNDS = 2500
# calibrate() on an idle core of the 2-core Xeon the sizes were tuned on.
CAL_REFERENCE_S = 0.3

# Everything a fresh process does before its first comparator or metric call.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
from transalign.corpus import load_corpus
from transalign.lexicon import load_stopwords, load_synonyms
loaders = {"corpus": lambda p: load_corpus(p, "x"), "stopwords": load_stopwords,
           "synonyms": load_synonyms}
for spec in sys.argv[1:]:
    kind, _, path = spec.partition(":")
    loaders[kind](path)
print(time.perf_counter() - start)
"""


# Starts the measured command and reports its wall time, exit code and peak
# RSS. On Linux a child's ru_maxrss also counts the peak RSS of the process
# that spawned it, so the command is spawned from this small interpreter
# rather than from the benchmark, whose own memory would otherwise show.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as out:
    out.write(f"{wall} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


def spawn(argv: list, cwd: Path, stdout_path: Path) -> tuple[float, int, int, str]:
    """Run one command to completion: wall seconds, exit code, peak RSS
    (KiB) and its stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stderr_path = stdout_path.with_suffix(".err")
    usage_path = stdout_path.with_suffix(".usage")
    usage_path.unlink(missing_ok=True)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launcher = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER, str(usage_path), *argv],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        try:
            launcher.wait()
        except BaseException:
            os.killpg(launcher.pid, signal.SIGKILL)  # the command too
            launcher.wait()
            raise
    stderr = stderr_path.read_text(errors="replace")
    if launcher.returncode != 0 or not usage_path.is_file():
        return 0.0, launcher.returncode or 1, 0, stderr
    wall, code, rss_kib = usage_path.read_text().split()
    return float(wall), int(code), int(rss_kib), stderr


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop shaped like the program's hot
    paths: a longest common block through a position index (the character
    ratio), a word edit-distance DP (TER) and multiset counting (token
    Dice)."""
    start = time.perf_counter()
    text = "the quick brown fox jumps over the lazy dog and runs far away"
    for shift in range(CAL_ROUNDS):
        other = text[shift % 11 :] + text[: shift % 11]
        positions: dict[str, list[int]] = {}
        for j, ch in enumerate(other):
            positions.setdefault(ch, []).append(j)
        lengths: dict[int, int] = {}
        for ch in text:
            lengths = {j: lengths.get(j - 1, 0) + 1 for j in positions.get(ch, ())}
        words, other_words = text.split(), other.split()
        previous = list(range(len(other_words) + 1))
        for i, word in enumerate(words, 1):
            current = [i] + [0] * len(other_words)
            for j, other_word in enumerate(other_words, 1):
                current[j] = min(previous[j] + 1, current[j - 1] + 1,
                                 previous[j - 1] + (word != other_word))
            previous = current
        counts: dict[str, int] = {}
        for word in words + other_words:
            counts[word] = counts.get(word, 0) + 1
    return time.perf_counter() - start


class SpeedMeter:
    """Scales wall times to a reference CPU speed.

    On a shared machine the same run's wall time moves by up to 2x over
    minutes as neighbours load the physical cores; no steal time shows and
    CPU time moves with wall time, so only the speed itself can be measured.
    ``calibrate()`` runs right before and after each measured child, on the
    same pinned CPU, and a child's wall time is scaled by CAL_REFERENCE_S
    over the mean of the two: the time it would have taken with the CPU at
    its reference speed. A change to the program moves the scaled time as
    much as the raw one, because the calibration loop does not change.
    """

    def __init__(self):
        self.times = [calibrate()]

    def factor(self) -> float:
        """Reference over current speed; call right after a measured child."""
        self.times.append(calibrate())
        return 2 * CAL_REFERENCE_S / (self.times[-2] + self.times[-1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2 or not median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


class Bench:
    """One workload's inputs, its timed runs and their checks."""

    def __init__(self, workload, seed: int, workdir: Path, oracles, meter: SpeedMeter):
        self.workload = workload
        self.meter = meter
        self.dir = workdir / workload.name
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True)
        self.files = workload.make_inputs(inputs, seed, workload.size)
        self.check = Checker(workload, self.files, oracles)
        self.lines = len(checks.read_lines(self.files[workload.lines_key]))
        self.input_sha = checks.sha256_of(self.files[k] for k in sorted(self.files))
        self.out = self.dir / "out"
        self.out.mkdir()
        self.runs: list[dict] = []  # untraced, for the end-to-end metrics
        self.baseline: list[dict] = []  # untraced, paired with traced runs
        self.traced: list[dict] = []
        self.setup: list[float] = []
        self.setup_raw: list[float] = []
        self.output_sha: str | None = None

    def _cli(self, traced: bool) -> list:
        if traced:
            head = [sys.executable, str(HERE / "tracer.py"), str(self.dir / "trace.json"),
                    str(len(self.traced) + 1), "--"]
        else:
            head = [sys.executable, "-m", "transalign.cli"]
        return head + self.workload.argv(self.files, self.out)

    def run_once(self, into: list, traced: bool = False) -> None:
        """One CLI run, checked; a timed run is followed by a set-up probe,
        so both share the calibrations around them."""
        for path in self.out.iterdir():
            path.unlink()
        stdout_path = self.dir / "stdout.txt"
        wall, code, rss_kib, stderr = spawn(self._cli(traced), self.dir, stdout_path)
        setup = self.probe_setup() if into is self.runs else None
        factor = self.meter.factor()
        if setup is not None:
            self.setup_raw.append(setup)
            self.setup.append(setup * factor)
        run = {"wall_s": wall, "scaled_s": wall * factor, "rss_mib": rss_kib / 1024,
               "problems": []}
        into.append(run)
        if code != 0:
            run["problems"].append(f"exit code {code}: {stderr.strip()[-500:]}")
            return
        try:
            stdout = stdout_path.read_text(encoding="utf-8")
            run["problems"], run["quality"] = self.check(self.out, stdout)
            outputs = sorted(output_files(self.workload, self.out).values())
            run["sha256"] = checks.sha256_of(outputs + [stdout_path])
            if self.output_sha is None:
                self.output_sha = run["sha256"]
                run["problems"] += self._score_cli(run["quality"])
            elif run["sha256"] != self.output_sha:
                run["problems"].append("output bytes differ from the first run")
            if traced:
                run["trace"] = json.loads((self.dir / "trace.json").read_text(encoding="utf-8"))
        except Exception as exc:  # a malformed output is a failed run, not a crash
            run["problems"].append(f"check raised {exc!r}")

    def _score_cli(self, oracle_score) -> list:
        """The CLI's own ``score`` must agree with the oracle's S."""
        if not self.workload.name.startswith("align"):
            return []
        argv = [sys.executable, "-m", "transalign.cli", "score",
                "--report", str(self.out / "report.jsonl"), "--gold", str(self.files["gold"])]
        _, code, _, stderr = spawn(argv, self.dir, self.dir / "score.txt")
        if code != 0:
            return [f"score exited {code}: {stderr.strip()[-300:]}"]
        card = json.loads((self.dir / "score.txt").read_text(encoding="utf-8"))
        return [] if card.get("S") == oracle_score else [f"score S={card.get('S')} != oracle {oracle_score}"]

    def probe_setup(self) -> float:
        specs = [f"{kind}:{self.files[key]}" for kind, key in self.workload.setup_loads]
        _, code, _, stderr = spawn([sys.executable, "-c", SETUP_PROBE, *specs], self.dir,
                                   self.dir / "setup.txt")
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {stderr.strip()[-500:]}")
        return float((self.dir / "setup.txt").read_text())

    def end_to_end(self) -> dict:
        """Medians over the runs that finished and were checked."""
        done = [run for run in self.runs if "quality" in run]
        return {
            "lines_per_s": ([self.lines / run["scaled_s"] for run in done], "lines/s"),
            "setup_s": (self.setup, "s"),
            "peak_rss_mib": ([run["rss_mib"] for run in done], "MiB"),
            "quality_score": ([run["quality"] for run in done], "points"),
        }

    def per_layer(self) -> tuple[dict, list]:
        """Median of each traced time; counts must repeat exactly."""
        problems = []
        derived = [tracer.derive(run["trace"]) for run in self.traced if "trace" in run]
        values: dict = {}
        for name, unit, _, _ in tracer.LAYER_METRICS:
            series = [d[name] for d in derived if name in d]
            if unit == "count" and len(set(series)) > 1:
                problems.append(f"{name} differs between traced runs: {series}")
            values[name] = (series, unit)
        untraced = median([r["scaled_s"] for r in self.baseline])
        overhead = median([r["scaled_s"] for r in self.traced]) / untraced if untraced else 0.0
        values["trace.overhead_ratio"] = ([overhead], "ratio")
        missing = sorted({m for run in self.traced for m in run.get("trace", {}).get("missing", ())})
        if missing:
            problems.append(f"functions not found to trace: {missing}")
        return values, problems


def measure(steps, seconds: float, min_rounds: int) -> None:
    """Call ``steps`` round after round until ``seconds`` are used: another
    round starts only if a typical round still fits."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        steps()
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_rounds and elapsed + median(durations) > seconds:
            return


def report(prefix: str, metrics: dict, out: dict, notes: dict | None = None) -> None:
    for name, (values, unit) in metrics.items():
        value = median(values)
        note = f" -> {notes[name]}" if notes else ""
        print(f"  {prefix}{name:<48} {value:>14.6g} {unit:<8} "
              f"(median of {len(values)}, IQR spread {100 * spread(values):.1f}%){note}")
        out[prefix + name] = {"value": value, "unit": unit}


def git_sha() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "transalign" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    oracles = checks.load_oracles(ROOT)
    # SIGTERM unwinds like an exception, so the running child is killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for the benchmark and its children, so the calibration runs
    # where the measured child runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prefixed = args.workload == "all"
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / f"{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        meter = SpeedMeter()
        benches = [Bench(WORKLOADS[n], args.seed, workdir, oracles, meter) for n in names]
        for bench in benches:
            bench.probe_setup()  # untimed: lets the interpreter write bytecode caches
        if prefixed or not args.trace:
            measure(lambda: [b.run_once(b.runs) for b in benches],
                    args.seconds * len(benches), MIN_RUNS)
        if args.trace:
            for bench in benches:
                measure(lambda: (bench.run_once(bench.baseline),
                                 bench.run_once(bench.traced, traced=True)),
                        args.seconds, 1)
        return summarize(benches, args, prefixed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workroot.is_dir() and not any(workroot.iterdir()):
            workroot.rmdir()


def summarize(benches, args, prefixed: bool) -> int:
    print(f"perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          "loop=closed clients=1")
    metrics: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    record = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git": git_sha(),
        "seed": args.seed,
        "cal_reference_s": CAL_REFERENCE_S,
        "cal_s": benches[0].meter.times if benches else [],
        "workloads": {},
    }
    for bench in benches:
        w = bench.workload
        prefix = f"{w.name}/" if prefixed else ""
        runs = bench.runs + bench.baseline + bench.traced
        bad = [run for run in runs if run["problems"]]
        attempted += len(runs)
        failed += len(bad)
        for run in bad:
            problems += [f"{w.name}: {p}" for p in run["problems"]]
        print(f"{w.name}: {bench.lines} lines; {w.why}")
        print(f"  runs {len(bench.runs)} timed, {len(bench.baseline)} untraced + "
              f"{len(bench.traced)} traced; failed_share {len(bad)}/{len(runs)} = "
              f"{len(bad) / len(runs):.3f}")
        if bench.runs:
            walls = [run["wall_s"] for run in bench.runs]
            print(f"  unscaled: median wall {median(walls):.4g} s, "
                  f"{bench.lines / median(walls):.6g} lines/s; "
                  f"CPU speed factor median {median([r['scaled_s'] / r['wall_s'] for r in bench.runs]):.3f}")
        if not args.trace or prefixed:
            report(prefix, bench.end_to_end(), metrics)
        if args.trace:
            layer, layer_problems = bench.per_layer()
            problems += [f"{w.name}: {p}" for p in layer_problems]
            report(prefix, layer, metrics, {m[0]: m[3] for m in tracer.LAYER_METRICS})
            first = next((run["trace"] for run in bench.traced if "trace" in run), None)
            if first:
                print("  spans of the first traced run (count, total s):")
                for line in tracer.span_tree(first["spans"]):
                    print("    " + line)
        record["workloads"][w.name] = {
            "lines": bench.lines,
            "input_sha256": bench.input_sha,
            "output_sha256": bench.output_sha,
            "runs": len(bench.runs),
            "traced_runs": len(bench.traced),
            "failed": len(bad),
            "wall_s": [run["wall_s"] for run in bench.runs],
            "scaled_s": [run["scaled_s"] for run in bench.runs],
            "setup_s_unscaled": bench.setup_raw,
        }
    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
