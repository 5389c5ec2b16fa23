"""Checks that the benchmark measures what it claims and catches bad output.

Runs every workload at a tiny size, so the whole file takes about a
minute::

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "doubling": {"sparse_radius": 7, "dense_radius": 5},
    "landscape": {"z_radius": 1000, "river_radius": 5,
                  "amenability_radius": 5},
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((run.BENCH / "interactions.json").read_text())
# every per-layer figure a traced run reports, as a BENCHMARK.json metric
# or, where one workload never calls the function, as a detail figure
LAYER_FIGURES = {
    "groups.ball_s", "groups.ball_calls", "groups.sort_key_calls",
    "groups.mul_calls", "labels.color_s", "labels.color_calls",
    "labels.label_s", "labels.label_calls", "labels.label_words",
    "paradox.channel_label_s", "paradox.channel_label_calls",
    "patterns.theta_s", "patterns.theta_calls", "patterns.realize_s",
    "patterns.observed_patterns_s", "patterns.distinct_patterns",
    "paradox.find_doubling_s", "paradox.k_attempts", "paradox.target_size",
    "paradox.relabel_s", "paradox.pieces", "paradox.verify_s",
    "paradox.verify_calls", "landscapes.height_s", "landscapes.height_calls",
    "landscapes.height_words", "landscapes.verify_axioms_s",
    "landscapes.components_leq_s", "landscapes.uncertified",
    "witness.kappa_s", "witness.kappa_calls", "witness.defect_s",
    "witness.defect_calls", "snapshots.snapshot_s", "snapshots.bundle_s",
    "snapshots.dump_json_s", "snapshots.load_json_s",
    "snapshots.bytes_written", "checking.load_snapshot_s",
    "checking.check_s", "checking.certificates", "cli.self_s",
    "trace.overhead_s",
}


def metric_units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_with_every_metric(tmp_path, name, trace):
    result = run.run_workload(name, 4, 0, trace, out_root=tmp_path,
                              **TINY[name])
    assert result["correct"], run.describe(result)
    assert result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == metric_units(kind)
    # a metric reads non-zero on every workload, times and counts alike;
    # the tracer's overhead at this size can be lost in the noise
    for k, m in result["metrics"].items():
        if k != "trace.overhead_s":
            assert m["value"] > 0, k
    if trace:
        figures = set(result["metrics"]) | set(result["detail"])
        assert LAYER_FIGURES <= figures
        for k in figures:
            run.prediction(k, INTERACTIONS)   # raises if no entry holds k


def test_run_fills_its_time_with_verify_repeats(tmp_path):
    # a slow build and a quick amenability: no second whole pass fits
    sizes = {"z_radius": 30_000, "river_radius": 3, "amenability_radius": 3}
    result = run.run_workload("landscape", 1, 6.0, False, out_root=tmp_path,
                              **sizes)
    assert result["correct"]
    names = [c["command"] for c in result["commands"]]
    assert names[:3] == ["build", "build", "amenability"]
    assert names.count("amenability") > names.count("build") // 2


def test_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        result = run.run_workload("doubling", 2, 0, True, out_root=tmp_path,
                                  **TINY["doubling"])
        assert result["correct"]
        figures = {**result["metrics"], **result["detail"]}
        counts.append({k: m["value"] for k, m in figures.items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    # sparse: three step reports, six matrix entries, three checks;
    # dense: one of each
    assert counts[0]["paradox.verify_calls"] == 12 + 3


def run_steps(workload, cwd, tamper, after):
    """Run the steps one by one, letting ``tamper`` corrupt the output of
    step ``after``; return the fail share."""
    cwd.mkdir()
    failed = 0
    for i, step in enumerate(workload.steps):
        outcome = run.execute(step, i, cwd, None)
        if i == after:
            tamper(cwd)
            stdout = (cwd / f"{i}-{step.name}.out").read_text()
            outcome.problems = step.check(stdout, cwd)
        failed += bool(outcome.problems)
    return failed / len(workload.steps)


def test_flipped_translator_letter_fails(tmp_path):
    def flip(cwd):
        path = cwd / "dense" / "certificates.json"
        bundle = json.loads(path.read_text())
        word = next(t for t in bundle["certificates"][0]["translators"] if t)
        word[0] = -word[0]
        path.write_text(json.dumps(bundle))

    workload = run.doubling(1, **TINY["doubling"])
    assert run_steps(workload, tmp_path / "ok", lambda cwd: None, 2) == 0
    assert run_steps(workload, tmp_path / "bad", flip, 2) > 0


def test_wrong_window_count_fails(tmp_path):
    def miscount(cwd):
        path = cwd / "0-build.out"
        path.write_text(path.read_text().replace("window: 2001 ",
                                                 "window: 2000 "))

    workload = run.landscape(1, **TINY["landscape"])
    assert run_steps(workload, tmp_path / "ok", lambda cwd: None, 0) == 0
    assert run_steps(workload, tmp_path / "bad", miscount, 0) > 0


def digest_book(root):
    return root / "digests" / f"{run.source_digest(run.SRC)}.json"


def test_changed_artifact_bytes_fail(tmp_path):
    sizes = TINY["landscape"]
    assert run.run_workload("landscape", 1, 0, False, out_root=tmp_path,
                            **sizes)["correct"]
    book = digest_book(tmp_path)
    digests = json.loads(book.read_text())
    key = next(k for k in digests if k.endswith("defects.csv"))
    digests[key] = "0" * 64
    book.write_text(json.dumps(digests))
    result = run.run_workload("landscape", 1, 0, False, out_root=tmp_path,
                              **sizes)
    assert not result["correct"] and result["failed"] == 1


def test_changed_source_starts_a_new_book(tmp_path, monkeypatch):
    # bytes recorded for one version of the sources bind only that version
    sizes = TINY["landscape"]
    out = tmp_path / "out"
    assert run.run_workload("landscape", 1, 0, False, out_root=out,
                            **sizes)["correct"]
    book = digest_book(out)
    book.write_text(json.dumps(
        {k: "0" * 64 for k in json.loads(book.read_text())}))

    changed = tmp_path / "src"
    shutil.copytree(run.SRC, changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "riverscape" / "cli.py", "a") as fh:
        fh.write("# a changed line\n")
    assert run.source_digest(changed) != run.source_digest(run.SRC)
    monkeypatch.setattr(run, "SRC", changed)
    assert run.run_workload("landscape", 1, 0, False, out_root=out,
                            **sizes)["correct"]
    assert digest_book(out).exists() and digest_book(out) != book

    monkeypatch.undo()
    assert not run.run_workload("landscape", 1, 0, False, out_root=out,
                                **sizes)["correct"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "landscape",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_river_heights_match_known_target_sizes():
    counts = run.river_height_counts(9)
    assert [counts[h] for h in (1, 2, 3)] == [161, 160, 320]
    assert sum(counts.values()) == run.f2_ball_size(8)


def test_interaction_map_covers_every_per_layer_figure():
    figures = LAYER_FIGURES | set(metric_units("per_layer"))
    used = {run.prediction(k, INTERACTIONS) for k in figures}
    assert used == set(INTERACTIONS)
    assert run.prediction("groups.ball_calls", INTERACTIONS) == "groups"
    assert run.prediction("paradox.verify_calls", INTERACTIONS) \
        == "paradox.verify"
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = set(metric_units("end_to_end"))
    for entry in INTERACTIONS.values():
        for cited in entry["moves"] + entry["unchanged"]:
            metric, workload = cited.split("@")
            assert metric in metrics and workload in workloads
