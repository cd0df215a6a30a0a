"""Tests of the benchmark itself, at smoke-test sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets up the import path of the package)
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAMES = list(workloads.WORKLOADS)


def _run(name, trace, out, seed=3, **changes):
    wl = dataclasses.replace(workloads.get(name, tiny=True), **changes)
    return run.run_workload(wl, seed, 0.5, trace, out=out)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert END_TO_END == set(run.END_TO_END_UNITS)
    assert PER_LAYER == set(tracing.SELF_MS) | set(tracing.DERIVED) | {"trace.overhead_frac"}


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    result, record = _run(name, 0, tmp_path)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == END_TO_END
    assert 0.0 <= metrics["dev_quality"] <= 1.0 and metrics["success_rate"] == 1.0
    assert min(metrics["setup_s"], metrics["train_pairs_per_s"], metrics["eval_pairs_per_s"], metrics["peak_rss_mb"]) > 0
    assert record["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert not any((tmp_path / "work").glob("*")), "the run leaves its inputs and checkpoints behind"


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric_and_repeats_counts(name, tmp_path):
    first, record = _run(name, 1, tmp_path / "a")
    second, _ = _run(name, 1, tmp_path / "b")
    assert first["correct"], record["problems"]
    assert record["missing"] == []
    assert set(first["metrics"]) == PER_LAYER
    assert Path(record["spans"]).stat().st_size > 0
    for count in ("tensor.nodes_per_pair", "data.tokenize_calls", "trainer.steps", "embedding.ctx_lookups"):
        assert first["metrics"][count] == second["metrics"][count]


def test_failed_check_is_counted_and_fails_the_run(tmp_path):
    result, record = _run("desk_snli", 0, tmp_path, quality_floor=1.01)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("below the floor" in p for p in record["problems"])


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in NAMES:
        wl = workloads.get(name, tiny=True)
        a, b, c = (wl.generate(seed, tmp_path / name / tag) for seed, tag in ((5, "a"), (5, "b"), (6, "c")))
        assert a.train.read_bytes() == b.train.read_bytes() != c.train.read_bytes()
        assert a.dev.read_bytes() == b.dev.read_bytes()


def test_missing_target_is_reported_not_zero():
    tracer = tracing.Tracer()
    targets = [t for t in tracing.TARGETS if t.span != "encoder.align"]
    targets.append(tracing.Target("encoder.align", "encoder", "no_such_align"))
    tracer.install(targets)
    tracer.uninstall()
    assert tracer.missing == ["sentmatch.encoder.no_such_align"]
    metrics = tracing.layer_metrics(tracer, {"pair_forwards_trained": 1, "unk_id": 1})
    assert "encoder.align_ms" not in metrics
    assert "encoder.fuse_ms" in metrics


def test_wrappers_are_removed_after_the_traced_pass():
    from sentmatch import encoder, model

    before = (encoder.align, model.encode_pair, model.MatchModel.forward_pair)
    tracer = tracing.Tracer()
    tracer.install()
    assert encoder.align is not before[0] and model.MatchModel.forward_pair is not before[2]
    tracer.uninstall()
    assert (encoder.align, model.encode_pair, model.MatchModel.forward_pair) == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [(1, 0, "child", "train", 1.0, 3.0), (0, None, "parent", "train", 0.0, 10.0)]
    totals = tracer.self_times()
    assert totals[("parent", "train")] == 8.0 and totals[("child", "train")] == 2.0


def test_without_the_package_sources_the_command_fails(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk_snli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
