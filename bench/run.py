"""Benchmark of the riverscape command line, end to end and per layer.

Each workload is a short session of ``riverscape`` commands.  Every
command runs as a user runs it, in a fresh interpreter, so module-level
caches never carry over between commands or runs.  Every output is
checked against answers the benchmark knows without riverscape, and the
bytes of every artifact must repeat across runs of one seed and one
version of the sources.

Run one workload (the last stdout line is the JSON result)::

    python3 bench/run.py --workload doubling --seed 1 --seconds 50 --trace 0

``--trace 0`` times the commands and reports the end-to-end metrics: a
run repeats the workload while a whole pass fits in ``--seconds``, then
repeats its verify commands on the last outputs while they fit, and
reports medians.  A whole doubling pass takes most of a 50-s run, so
there ``construct_s`` and ``peak_rss_mb`` come from a single pass and
only ``verify_s`` and ``setup_s`` are medians of several samples.
``--trace 1`` runs the workload once plain and once with every public
riverscape function wrapped (see ``trace_cli.py``) and reports the
per-layer metrics of BENCHMARK.json; the result file also keeps, under
``detail``, the figures of functions that one workload never calls.
Print every metric and detail figure of every workload, with the
output-check verdicts and the interaction map (``interactions.json``)::

    python3 bench/run.py --report --seed 1

Outputs, traces and the artifact digests live in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatch
from importlib import metadata
from pathlib import Path
from typing import Callable

from trace_cli import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS = 5


# --- answers known without riverscape --------------------------------------

def f2_ball_size(radius: int) -> int:
    """|B_R(F_2)| = 2 * 3^R - 1."""
    return 2 * 3**radius - 1


def z_ball_size(radius: int) -> int:
    return 2 * radius + 1


def river_height_counts(radius: int) -> dict[int, int]:
    """Words of F_2 of length <= radius - 1, counted by river height.

    Height is 1 + the graph distance to the river, the words made of
    doubled letters (a a b b ...).  A nearest river point of a word w is
    its longest doubled prefix or one letter past w's paired prefix, so
    it has length <= |w| + 1 <= radius, and a breadth-first search from
    the river points of B_radius is exact on B_(radius - 1).
    """
    letters = (1, -1, 2, -2)
    words, sphere = [()], [()]
    for _ in range(radius):
        sphere = [w + (a,) for w in sphere for a in letters
                  if not w or w[-1] != -a]
        words.extend(sphere)
    dist = {w: 0 for w in words
            if len(w) % 2 == 0 and w[::2] == w[1::2]}
    queue = deque(dist)
    while queue:
        w = queue.popleft()
        nbrs = [w[:-1]] if w else []
        if len(w) < radius:
            nbrs += [w + (a,) for a in letters if not w or w[-1] != -a]
        for v in nbrs:
            if v not in dist:
                dist[v] = dist[w] + 1
                queue.append(v)
    counts: dict[int, int] = {}
    for w, d in dist.items():
        if len(w) <= radius - 1:
            counts[d + 1] = counts.get(d + 1, 0) + 1
    return counts


# --- workloads --------------------------------------------------------------

@dataclass
class Step:
    """One CLI command, the files it writes, and its output check."""

    name: str
    role: str                                   # "construct" or "verify"
    argv: list[str]
    artifacts: tuple[str, ...]
    check: Callable[[str, Path], list[str]]     # (stdout, cwd) -> problems


@dataclass
class Workload:
    steps: list[Step]
    target_sizes: Callable[[], list[int]]       # expected |T| per target


def missing_lines(stdout: str, wanted: list[str]) -> list[str]:
    lines = set(stdout.splitlines())
    return [f"missing output line {w!r}" for w in wanted if w not in lines]


def check_snapshot(path: Path, radius: int, size: int) -> list[str]:
    doc = json.loads(path.read_text())
    if doc["windowRef"]["radius"] != radius or len(doc["heights"]) != size:
        return [f"{path.name}: window of {len(doc['heights'])} vertices at "
                f"radius {doc['windowRef']['radius']}, expected {size} at "
                f"radius {radius}"]
    return []


def pipeline_steps(radius: int, targets: str, n_targets: int,
                   out: str) -> list[Step]:
    """paradoxicalize into ``out``, then check what it wrote."""
    def check_pipeline(stdout: str, cwd: Path) -> list[str]:
        problems = missing_lines(
            stdout, [f"certificate {i}: pass" for i in range(n_targets)]
            + [f"matrix: {n_targets}x{n_targets} all-pass"])
        problems += check_snapshot(cwd / out / "final_snapshot.json", radius,
                                   f2_ball_size(radius))
        bundle = json.loads((cwd / out / "certificates.json").read_text())
        verdicts = [c["verification"]["pass"] for c in bundle["certificates"]]
        if verdicts != [True] * n_targets:
            problems.append(f"certificates.json verdicts {verdicts}")
        return problems

    def check_check(stdout: str, cwd: Path) -> list[str]:
        problems = missing_lines(
            stdout, [f"certificate {i}: pass" for i in range(n_targets)])
        if "FAIL" in stdout:
            problems.append("check reports FAIL")
        return problems

    return [
        Step("paradoxicalize", "construct",
             ["paradoxicalize", "--group", "f2", "--radius", str(radius),
              "--target-heights", targets, "--out", out],
             (f"{out}/certificates.json", f"{out}/final_snapshot.json"),
             check_pipeline),
        Step("check", "verify",
             ["check", "--snapshot", f"{out}/final_snapshot.json",
              "--certificate", f"{out}/certificates.json"],
             (), check_check),
    ]


def doubling(seed: int, sparse_radius: int = 9,
             dense_radius: int = 10) -> Workload:
    """Two pipelines, each checked.  Sparse: three small height targets
    in an order the seed picks (read-heavy: coloring, theta, verify).
    Dense: one target holding every core vertex, heights 1..11
    (write-heavy: relabel and the largest matching)."""
    sparse = random.Random(seed).sample([1, 2, 3], 3)
    dense = range(1, 12)
    steps = pipeline_steps(sparse_radius, ";".join(map(str, sparse)), 3,
                           "sparse") \
        + pipeline_steps(dense_radius, ",".join(map(str, dense)), 1, "dense")

    def sizes():
        counts = river_height_counts(sparse_radius)
        want = [counts.get(h, 0) for h in sparse]
        counts = river_height_counts(dense_radius)
        return want + [sum(counts.get(h, 0) for h in dense)]

    return Workload(steps, sizes)


def landscape(seed: int, z_radius: int = 100_000, river_radius: int = 8,
              amenability_radius: int = 9,
              m_values: tuple[int, ...] = (5, 10, 20)) -> Workload:
    """Both landscape builds and the river defect table; no seeded input."""
    def build_check(radius: int, size: int):
        def check(stdout: str, cwd: Path) -> list[str]:
            out = cwd / f"build-{radius}"
            return missing_lines(
                stdout, [f"window: {size} vertices at radius {radius}",
                         "axioms: pass"]
            ) + check_snapshot(out / "snapshot.json", radius, size)
        return check

    rows = 4 * f2_ball_size(amenability_radius - 1) * len(m_values)

    def amenability_check(stdout: str, cwd: Path) -> list[str]:
        problems = missing_lines(
            stdout, [f"defect rows: {rows}; bound violations: 0"])
        with open(cwd / "defects.csv", newline="") as fh:
            got = sum(1 for _ in csv.reader(fh)) - 1
        if got != rows:
            problems.append(f"defects.csv has {got} rows, expected {rows}")
        return problems

    return Workload([
        Step("build", "construct",
             ["build", "--group", "z", "--landscape", "ternary",
              "--radius", str(z_radius), "--out", f"build-{z_radius}"],
             (f"build-{z_radius}/snapshot.json",),
             build_check(z_radius, z_ball_size(z_radius))),
        Step("build", "construct",
             ["build", "--group", "f2", "--landscape", "river",
              "--radius", str(river_radius), "--out", f"build-{river_radius}"],
             (f"build-{river_radius}/snapshot.json",),
             build_check(river_radius, f2_ball_size(river_radius))),
        Step("amenability", "verify",
             ["amenability", "--group", "f2",
              "--radius", str(amenability_radius),
              "--m-values", ",".join(map(str, m_values)), "--out", "."],
             ("defects.csv",), amenability_check),
    ], lambda: [])


WORKLOADS = {
    "doubling": doubling,
    "landscape": landscape,
}


# --- running commands -------------------------------------------------------

@dataclass
class Outcome:
    step: Step
    seconds: float
    cpu_s: float
    rss_mb: float
    returncode: int
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


def command_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], cwd: Path, stdout, stderr):
    """Run cmd to completion; return (wall seconds, exit code, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=command_env(),
                            stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage


def execute(step: Step, index: int, cwd: Path, trace_id: str | None
            ) -> Outcome:
    base = cwd / f"{index}-{step.name}"
    trace_path = base.with_suffix(".trace.json")
    if trace_id is None:
        cmd = [sys.executable, "-m", "riverscape.cli", *step.argv]
    else:
        cmd = [sys.executable, "-X", "importtime", str(BENCH / "trace_cli.py"),
               str(trace_path), trace_id, *step.argv]
    with open(base.with_suffix(".out"), "w") as out, \
            open(base.with_suffix(".err"), "w") as err:
        seconds, code, usage = spawn(cmd, cwd, out, err)
    outcome = Outcome(step, seconds, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, code)
    stdout = base.with_suffix(".out").read_text()
    if code != 0:
        outcome.problems.append(f"exit code {code}")
    else:
        try:
            outcome.problems += step.check(stdout, cwd)
        except (OSError, ValueError, KeyError) as exc:
            outcome.problems.append(f"output unreadable: {exc!r}")
    if trace_id is not None and trace_path.exists():
        outcome.trace = json.loads(trace_path.read_text())
        outcome.trace["imports"] = import_times(base.with_suffix(".err"))
    return outcome


def import_times(stderr_path: Path) -> dict[str, float]:
    """Self import time in seconds per riverscape module (-X importtime)."""
    out = {}
    for line in stderr_path.read_text().splitlines():
        if line.startswith("import time:") and "riverscape." in line:
            self_us, _, name = (x.strip() for x in line[12:].split("|"))
            out[name.split(".", 1)[1]] = int(self_us) / 1e6
    return out


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest(src: Path) -> str:
    """sha256 over the names and bytes of every source file under src."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            name = path.relative_to(src).as_posix().encode()
            data = path.read_bytes()
            h.update(b"%d:%s%d:" % (len(name), name, len(data)) + data)
    return h.hexdigest()


class DigestBook:
    """sha256 of each artifact per command line, kept across runs of one
    source tree.

    The book lives at ``<root>/digests/<source digest>.json``, so every
    version of the sources starts its own book.  The first run of a
    command line records the digests; every later run of the same
    sources, plain or traced, must reproduce them byte for byte.
    """

    def __init__(self, root: Path, src: Path):
        self.path = root / "digests" / f"{source_digest(src)}.json"
        self.book = json.loads(self.path.read_text()) \
            if self.path.exists() else {}

    def compare(self, outcome: Outcome, cwd: Path) -> None:
        for name in outcome.step.artifacts:
            if not (cwd / name).exists():
                continue
            key = " ".join(outcome.step.argv) + " -> " + name
            got = digest(cwd / name)
            want = self.book.setdefault(key, got)
            if got != want:
                outcome.problems.append(f"{name} bytes differ from an "
                                        f"earlier run of this command")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.book, indent=1, sort_keys=True))


def run_pass(workload: Workload, cwd: Path, book: DigestBook,
             trace_id: str | None = None,
             roles: tuple[str, ...] = ("construct", "verify")
             ) -> list[Outcome]:
    """Run the steps of the given roles; a pass that constructs starts
    from an empty directory, a verify-only pass reads what is there."""
    if "construct" in roles:
        if cwd.exists():
            shutil.rmtree(cwd)
        cwd.mkdir(parents=True)
    outcomes = []
    for i, step in enumerate(workload.steps):
        if step.role not in roles:
            continue
        outcome = execute(step, i, cwd, trace_id)
        if outcome.returncode == 0:
            book.compare(outcome, cwd)
        outcomes.append(outcome)
    return outcomes


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tracks this CPU's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def measure_setup(name: str, seed: int, sizes: dict) -> float:
    """Input generation plus a fresh interpreter importing riverscape."""
    start = time.perf_counter()
    WORKLOADS[name](seed, **sizes)
    spawn([sys.executable, "-c", "import riverscape.cli"], ROOT,
          subprocess.DEVNULL, subprocess.DEVNULL)
    return time.perf_counter() - start


# --- metrics ----------------------------------------------------------------

def benchmark_metrics(kind: str) -> list[str]:
    """Names of the metrics of one kind (``end_to_end`` or ``per_layer``)
    in BENCHMARK.json, in its order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[kind]]


def prediction(metric: str, interactions: dict) -> str:
    """The interaction-map key that holds a metric's prediction: the
    longest key that is the metric's name or a prefix of it ending
    before a ``.`` or ``_``, as ``groups`` for ``groups.ball_s``."""
    keys = [k for k in interactions
            if metric == k or metric.startswith((k + ".", k + "_"))]
    return max(keys, key=len)


def end_to_end(passes: list[list[Outcome]], setups: list[float]) -> dict:
    """Medians over the passes of one run.

    ``construct_s`` is both paradoxicalize commands on doubling and both
    builds on landscape, a median over the whole passes (on doubling a
    50-s run holds one, so it is a single sample, as is ``peak_rss_mb``);
    ``verify_s`` is both checks on doubling and amenability on landscape, a
    median over every pass; ``run_s`` is their sum, the time of the
    workload's session.
    """
    def med(values):
        return statistics.median(values)

    def role_s(outcomes, role):
        return sum(o.seconds for o in outcomes if o.step.role == role)

    whole = [p for p in passes if any(o.step.role == "construct" for o in p)]
    construct = med([role_s(p, "construct") for p in whole])
    verify = med([role_s(p, "verify") for p in passes])
    return {
        "setup_s": (med(setups), "s"),
        "run_s": (construct + verify, "s"),
        "construct_s": (construct, "s"),
        "verify_s": (verify, "s"),
        "peak_rss_mb": (med([max(o.rss_mb for o in p) for p in whole]),
                        "MB"),
    }


def per_layer(traced: list[Outcome], overhead_s: float) -> dict:
    """Every per-layer figure of a traced pass: the BENCHMARK.json
    per-layer metrics and the finer figures of single functions."""
    calls: dict[str, list] = {}
    counts: dict[str, int] = {}
    imports: dict[str, float] = {}
    for o in traced:
        for name, (n, self_s) in o.trace["calls"].items():
            got = calls.setdefault(name, [0, 0.0])
            got[0] += n
            got[1] += self_s
        for name, n in o.trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in o.trace["sizes"].items():
            counts[name] = counts.get(name, 0) + sum(n)
        for name, s in o.trace["imports"].items():
            imports[name] = imports.get(name, 0.0) + s

    def self_s(*patterns):
        return sum(v[1] for k, v in calls.items()
                   if any(fnmatch(k, p) for p in patterns))

    def n_calls(*patterns):
        return sum(v[0] for k, v in calls.items()
                   if any(fnmatch(k, p) for p in patterns))

    metrics = {
        f"{m}.self_s": (imports.get(m, 0.0) + self_s(f"{m}.*"), "s")
        for m in MODULES
    }
    heights = ("landscapes.*.height", "landscapes.ternary_height",
               "landscapes.is_ternary")
    channel_labels = ("paradox.PaddedLandscape.label",
                      "paradox.RelabeledLandscape.label")
    times = {
        "labels.color_s": ("labels.GreedyColoring.color",),
        "labels.label_s": ("labels.ProperLabelRule.label",),
        "landscapes.height_s": heights,
        "landscapes.verify_axioms_s": ("landscapes.verify_axioms",),
        "landscapes.components_leq_s": ("landscapes.components_leq",),
        "paradox.channel_label_s": channel_labels,
        "paradox.find_doubling_s": ("paradox.find_doubling",),
        "paradox.relabel_s": ("paradox.relabel",),
        "paradox.verify_s": ("paradox.verify_certificate",),
        "patterns.theta_s": ("patterns.theta",),
        "patterns.realize_s": ("patterns.realize",),
        "patterns.observed_patterns_s": ("patterns.observed_patterns",),
        "witness.kappa_s": ("witness.kappa",),
        "witness.defect_s": ("witness.defect",),
        "snapshots.snapshot_s": ("snapshots.snapshot_landscape",),
        "snapshots.bundle_s": ("snapshots.bundle_pipeline",),
        "snapshots.dump_json_s": ("snapshots.dump_json",),
        "snapshots.load_json_s": ("snapshots.load_json",),
        "checking.load_snapshot_s": ("checking.load_snapshot",),
        "checking.check_s": ("checking.check_certificate_dict",),
    }
    calls_of = {
        "groups.ball_calls": ("groups.ball",),
        "groups.sort_key_calls": ("groups.*.sort_key",),
        "groups.mul_calls": ("groups.*.mul",),
        "labels.color_calls": ("labels.GreedyColoring.color",),
        "labels.label_calls": ("labels.ProperLabelRule.label",),
        "landscapes.height_calls": ("landscapes.*.height",),
        "paradox.channel_label_calls": channel_labels,
        "paradox.verify_calls": ("paradox.verify_certificate",),
        "patterns.theta_calls": ("patterns.theta",),
        "witness.kappa_calls": ("witness.kappa",),
        "witness.defect_calls": ("witness.defect",),
        "checking.certificates": ("checking.check_certificate_dict",),
    }
    metrics["groups.ball_s"] = (stage_totals(traced).get("groups.ball", 0.0),
                                "s")
    metrics.update({k: (self_s(*p), "s") for k, p in times.items()})
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics.update({k: (n_calls(*p), "count") for k, p in calls_of.items()})
    for name in ("labels.label_words", "landscapes.height_words",
                 "landscapes.uncertified", "patterns.distinct_patterns",
                 "paradox.target_size", "paradox.k_attempts",
                 "paradox.pieces", "snapshots.bytes_written"):
        metrics[name] = (counts.get(name, 0), "count")
    return metrics


def stage_totals(traced: list[Outcome]) -> dict[str, float]:
    """Inclusive seconds per stage span name, summed over commands."""
    totals: dict[str, float] = {}
    for o in traced:
        for s in o.trace["spans"]:
            totals[s["name"]] = totals.get(s["name"], 0.0) \
                + s["end"] - s["start"]
    return totals


# --- one run ----------------------------------------------------------------

def machine_context() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_root: Path = OUT, **sizes) -> dict:
    """Run one workload; return the result with every check verdict."""
    out = out_root / name / f"seed{seed}"
    book = DigestBook(out_root, SRC)
    setups = [] if trace else [measure_setup(name, seed, sizes)
                               for _ in range(SETUPS)]
    workload = WORKLOADS[name](seed, **sizes)
    calibration = [calibrate()]
    start = time.perf_counter()
    cwd = out / "pass0"
    passes = [run_pass(workload, cwd, book)]
    while not trace:
        # repeat whole passes while one fits in the run, then only the
        # short verify commands on the last outputs: more samples of each
        elapsed = time.perf_counter() - start
        whole = sum(o.seconds for o in passes[0])
        verify = sum(o.seconds for o in passes[-1] if o.step.role == "verify")
        if elapsed + whole <= seconds:
            cwd = out / f"pass{len(passes)}"
            passes.append(run_pass(workload, cwd, book))
        elif verify and elapsed + verify <= seconds:
            passes.append(run_pass(workload, cwd, book, roles=("verify",)))
        else:
            break
    calibration.append(calibrate())
    if not trace:
        # set-ups before and after the passes, so that their median spans
        # the run as the command times do
        setups += [measure_setup(name, seed, sizes) for _ in range(SETUPS)]
    outcomes = [o for p in passes for o in p]
    problems: list[str] = []
    result = {"workload": name, "seed": seed, "trace": int(trace),
              "context": machine_context(), "calibration_s": calibration}
    if trace:
        traced = run_pass(workload, out / "traced", book,
                          trace_id=f"{name}.seed{seed}.{os.getpid()}")
        outcomes += traced
        overhead = sum(o.seconds for o in traced) \
            - sum(o.seconds for o in passes[0])
        if all(o.trace is not None for o in traced):
            metrics = per_layer(traced, overhead)
            want = workload.target_sizes()
            got = [n for o in traced
                   for n in o.trace["sizes"].get("paradox.target_size", [])]
            if got != want:
                problems.append(f"|T| per target {got}, expected {want}")
            result["stages_s"] = stage_totals(traced)
            spans = [dict(s, id=f"{i}:{s['id']}",
                          parent=None if s["parent"] is None
                          else f"{i}:{s['parent']}")
                     for i, o in enumerate(traced) for s in o.trace["spans"]]
            (out / "traced" / "spans.json").write_text(json.dumps(spans))
        else:
            metrics = {}
            problems.append("a traced command wrote no trace")
    else:
        metrics = end_to_end(passes, setups)
    # BENCHMARK.json names the metrics of the result; the finer figures of
    # functions that one workload never calls are kept beside them
    names = benchmark_metrics("per_layer" if trace else "end_to_end")
    detail = {k: v for k, v in metrics.items() if k not in names}
    metrics = {k: metrics[k] for k in names if k in metrics}
    book.save()
    failed = sum(1 for o in outcomes if o.problems) + len(problems)
    result.update({
        "correct": failed == 0,
        "attempted": len(outcomes) + len(problems),
        "failed": failed,
        "fail_share": failed / (len(outcomes) + len(problems)),
        "problems": problems,
        "commands": [{"command": o.step.name, "argv": o.step.argv,
                      "seconds": o.seconds, "cpu_s": o.cpu_s,
                      "rss_mb": o.rss_mb, "problems": o.problems}
                     for o in outcomes],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u}
                   for k, (v, u) in detail.items()},
    })
    (out / f"result-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def describe(result: dict) -> list[str]:
    """Human-readable lines: commands, verdicts, context, stage spans."""
    lines = [f"== {result['workload']} seed {result['seed']} "
             f"trace {result['trace']}"]
    for c in result["commands"]:
        verdict = "ok" if not c["problems"] else "; ".join(c["problems"])
        lines.append(f"  {c['command']:<15} {c['seconds']:8.3f} s  cpu "
                     f"{c['cpu_s']:8.3f} s  rss {c['rss_mb']:7.1f} MB  "
                     f"{verdict}")
    lines += [f"  problem: {p}" for p in result["problems"]]
    lines.append(f"  failed {result['failed']} of {result['attempted']} "
                 f"(fail_share {result['fail_share']:.3f})")
    lines.append("  context: " + json.dumps(result["context"]))
    lines.append("  calibration_s: " + ", ".join(
        f"{c:.4f}" for c in result["calibration_s"]))
    for name, s in sorted(result.get("stages_s", {}).items()):
        lines.append(f"  span {name:<34} {s:10.4f} s")
    return lines


def report(seed: int, seconds: float) -> int:
    """Every metric of every workload, with verdicts and the interaction
    map; exits 1 if any output check failed."""
    interactions = json.loads((BENCH / "interactions.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed, seconds, trace)
            ok &= result["correct"]
            print("\n".join(describe(result)))
            for kind in ("metrics", "detail"):
                for metric, m in result[kind].items():
                    value = m["value"]
                    shown = f"{value:18.6f}" if isinstance(value, float) \
                        else f"{value:18d}"
                    key = f"  [{prediction(metric, interactions)}]" \
                        if trace else ""
                    print(f"  {kind[:6]:<6} {metric:<30} {shown} "
                          f"{m['unit']:<5}{key}")
    print("== interaction map: a per-layer metric or detail figure follows "
          "the entry in [ ] after it")
    for key, entry in interactions.items():
        print(f"  {key}: moves {entry['moves']}; unchanged "
              f"{entry['unchanged']}; {entry['why']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    # a terminated benchmark still stops the command it is running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, traced and plain")
    args = parser.parse_args(argv)
    if not (SRC / "riverscape" / "cli.py").is_file():
        print(f"no riverscape sources under {SRC}", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print("\n".join(describe(result)))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
