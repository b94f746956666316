"""Self-test of the benchmark: tiny runs of every workload, and negative
controls proving the response oracle says no.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import factor_stream  # noqa: E402
import modular_oracle  # noqa: E402
import reconstruct_audit  # noqa: E402
import suite_quick  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# short enough that every workload sends its minimum request count
TINY = {"factor-stream": 0.1, "reconstruct-audit": 0.1, "modular-oracle": 0.1, "suite-quick": 1}


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(TINY[workload]), "--trace", str(trace)]  # fmt: skip
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(record_line)
    assert record["failed_frac"] == 0.0
    assert record["environment"]["blas_threads"] == 1
    if trace:
        assert "trace.overhead_frac" in result["metrics"]
    else:
        assert result["metrics"]["correct_frac"]["value"] == 1.0


def test_refuses_to_run_without_library_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )  # fmt: skip
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("module", [factor_stream, reconstruct_audit, modular_oracle, suite_quick])
def test_same_seed_same_inputs(module):
    first = module.generate(np.random.default_rng(3), 0.1)
    second = module.generate(np.random.default_rng(3), 0.1)
    other = module.generate(np.random.default_rng(4), 0.1)
    assert [r.text for r in first] == [r.text for r in second]
    assert [r.text for r in first] != [r.text for r in other]


def _answered(module, kind, seed=5):
    request = next(r for r in module.generate(np.random.default_rng(seed), 0.1) if r.kind == kind)
    response = json.loads(module.handle(request.text, NULL_TRACER))
    assert module.check(request, json.dumps(response)) is None
    return request, response


def test_oracle_rejects_perturbed_factor():
    request, response = _answered(factor_stream, "generic")
    response["payload"]["reflections"][0]["matrix"][5] += 1e-6
    assert factor_stream.check(request, json.dumps(response)) is not None


def test_oracle_rejects_wrong_wedge_answers():
    request, response = _answered(factor_stream, "high-rapidity")
    response["payload"]["localized"] = False
    assert factor_stream.check(request, json.dumps(response)) is not None
    request, response = _answered(factor_stream, "stability")
    response["payload"]["wedge"]["l1"][1] += 1e-6
    assert factor_stream.check(request, json.dumps(response)) is not None


def test_oracle_requires_rejection_with_the_right_error():
    request, response = _answered(factor_stream, "reject-improper")
    response["payload"]["error"] = "ValueError"
    assert factor_stream.check(request, json.dumps(response)) is not None


def test_oracle_rejects_flipped_audit_status():
    request, response = _answered(reconstruct_audit, "spinorial-negative")
    response["status"] = "ok"
    response["payload"]["axioms"]["pass"] = True
    assert reconstruct_audit.check(request, json.dumps(response)) is not None
    request, response = _answered(reconstruct_audit, "tautological")
    response["status"] = "fail"
    assert reconstruct_audit.check(request, json.dumps(response)) is not None


@pytest.mark.parametrize("kind", ["tensor", "random"])
def test_oracle_rejects_wrong_delta(kind):
    requests = modular_oracle.generate(np.random.default_rng(5), 0.1)
    request = next(r for r in requests if r.kind == kind and r.expect["d"] <= 9)
    response = json.loads(modular_oracle.handle(request.text, NULL_TRACER))
    assert modular_oracle.check(request, json.dumps(response)) is None
    response["payload"]["Delta"][0][0][0] *= 1.001
    assert modular_oracle.check(request, json.dumps(response)) is not None


def test_oracle_rejects_failed_suite_check():
    reports = [{"check": name, "samples": 1, "max_residual": 0.0, "pass": True} for name, *_ in suite_quick.CHECKS]
    response = {"payload": {"level": "quick", "seed": 1, "reports": reports}, "status": "ok"}
    request = suite_quick.generate(np.random.default_rng(1), 1)[0]
    assert suite_quick.check(request, json.dumps(response)) is None
    reports[3]["pass"] = False
    assert suite_quick.check(request, json.dumps(response)) is not None


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    calls, busy = tracer.summary()
    outer, inner = (tracer.ends[i] - tracer.starts[i] for i in range(2))
    assert list(tracer.parents) == [-1, 0]
    assert calls == {"outer": 1, "inner": 1}
    assert busy["inner"] == pytest.approx(inner)
    assert busy["outer"] == pytest.approx(outer - inner)
