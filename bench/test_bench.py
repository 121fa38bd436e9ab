"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import checks
import probes
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def static_instance(tmp_path_factory):
    root = tmp_path_factory.mktemp("work")
    return workloads.generate("static-study", 7, root)[0]


def _run_op(op, tmp_path):
    shutil.rmtree(op.out, ignore_errors=True)
    return run.spawn(["-m", "beliefdyn.cli", *run.cli_argv(op)], tmp_path / "op.log")


def _rewrite(op, name, edit):
    """Apply ``edit`` to one output and fix its manifest hash to match."""
    path = op.out / name
    path.write_text(edit(path.read_text()))
    manifest_path = op.out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def _bump_first_value(text):
    lines = text.splitlines()
    values = lines[1].split(",")
    values[0] = repr(float(values[0]) + 1e-3)
    lines[1] = ",".join(values)
    return "\n".join(lines) + "\n"


def test_generation_is_seeded(tmp_path):
    a = workloads.generate("sample-ensemble", 3, tmp_path / "a")[0]
    b = workloads.generate("sample-ensemble", 3, tmp_path / "b")[0]
    c = workloads.generate("sample-ensemble", 4, tmp_path / "c")[0]
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert any((tmp_path / "a" / rel).read_bytes() != (tmp_path / "c" / rel).read_bytes()
               for rel in files)
    assert a.perm == b.perm != c.perm


def test_relabelled_outputs_match_reference(static_instance, tmp_path):
    checker = checks.OutputChecker(run.load_references("static-study"))
    for op in static_instance.ops:
        assert _run_op(op, tmp_path).exit_code == 0
        assert checker.check(static_instance, op, 0) == []


@pytest.mark.parametrize("name, edit", [
    ("q_final.csv", _bump_first_value),
    ("trace/q_0200.csv", _bump_first_value),
])
def test_corrupted_csv_fails(static_instance, tmp_path, name, edit):
    op = next(o for o in static_instance.ops if o.name == "evolve")
    assert _run_op(op, tmp_path).exit_code == 0
    _rewrite(op, name, edit)
    checker = checks.OutputChecker(run.load_references("static-study"))
    assert checker.check(static_instance, op, 0)


def test_corrupted_discrete_output_fails(static_instance, tmp_path):
    op = next(o for o in static_instance.ops if o.name == "certify")
    assert _run_op(op, tmp_path).exit_code == 0
    _rewrite(op, "certificate.txt", lambda t: t.replace("block=1", "block=2"))
    checker = checks.OutputChecker(run.load_references("static-study"))
    assert any("block" in p for p in checker.check(static_instance, op, 0))


def test_unlisted_edit_and_exit_code_fail(static_instance, tmp_path):
    op = next(o for o in static_instance.ops if o.name == "analyze")
    assert _run_op(op, tmp_path).exit_code == 0
    checker = checks.OutputChecker(run.load_references("static-study"))
    assert checker.check(static_instance, op, 2) == ["exit code 2"]
    path = op.out / "analysis.jsonl"
    path.write_text(path.read_text() + "\n")
    assert any("manifest hash" in p for p in checker.check(static_instance, op, 0))


def test_corrupted_artifact_is_counted_failed(static_instance, tmp_path, monkeypatch):
    """The measuring loop counts an op whose artifact is corrupted as failed."""
    spawn = run.spawn

    def corrupting_spawn(argv, log_path):
        child = spawn(argv, log_path)
        if any(arg.endswith("evolve.cfg") for arg in argv):
            _rewrite(next(o for o in static_instance.ops if o.name == "evolve"),
                     "q_limit.csv", _bump_first_value)
        return child

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    checker = checks.OutputChecker(run.load_references("static-study"))
    metrics, attempted, failed = run.run_untraced(
        "static-study", [static_instance], checker, 0, tmp_path)
    assert (attempted, failed) == (3, 1)
    assert metrics["run_s"] > 0


def test_tracer_self_time_and_folded_leaves():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("homophily.kl_divergence", lambda: sum(range(1000)))
    inner = tracer.wrap("homophily.softmax_weights", lambda: [leaf() for _ in range(3)])

    def outer_body():
        inner()
        leaf()
        raise ValueError("boom")

    outer = tracer.wrap("homophily.build_network", outer_body)
    tracer.op = "op-1"
    with pytest.raises(ValueError):
        outer()
    stats = tracer.stats
    assert stats["homophily.kl_divergence"].calls == 4
    assert stats["homophily.softmax_weights"].calls == 1
    assert stats["homophily.build_network"].errors == 1
    outer_span, inner_span = tracer.spans
    assert inner_span["parent"] == outer_span["id"] and outer_span["parent"] is None
    assert {s["op"] for s in tracer.spans} == {"op-1"}
    assert inner_span["folded"]["homophily.kl_divergence"][0] == 3
    assert outer_span["folded"]["homophily.kl_divergence"][0] == 1
    total = outer_span["end"] - outer_span["start"]
    children = (inner_span["end"] - inner_span["start"]
                + outer_span["folded"]["homophily.kl_divergence"][1])
    assert outer_span["self_s"] == pytest.approx(total - children)
    assert stats["homophily.build_network"].total_s == pytest.approx(total)


def test_tracer_rebinds_every_namespace_and_restores():
    import beliefdyn.cli
    import beliefdyn.clusters
    import beliefdyn.homophily
    from beliefdyn.rng import Xoshiro256StarStar

    original = beliefdyn.homophily.kl_divergence
    tracer = tracing.Tracer()
    with tracer.installed():
        assert beliefdyn.clusters.kl_divergence is beliefdyn.homophily.kl_divergence
        assert beliefdyn.homophily.kl_divergence is not original
        assert beliefdyn.cli.run_homophily is beliefdyn.homophily.run_homophily
        Xoshiro256StarStar(1).next_index([1.0, 2.0])
    assert beliefdyn.clusters.kl_divergence is original
    assert tracer.stats["rng.next_index"].calls == 1
    assert tracer.stats["rng.seed"].calls == 1


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    per_layer = run.per_layer_units(probes.build(run.WORK))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "static-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
