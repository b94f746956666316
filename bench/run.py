"""Request benchmark for the wedgegroup library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
workload's inputs are generated from the seed and JSON-encoded before any
timing starts, then sent one at a time (a closed loop with one client, so no
request ever waits in a queue) and every response is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 sends the same inputs
untraced and traced in alternating chunks and prints the per-layer metrics
from the traced chunks, plus the tracing overhead.  The last line of stdout
is the result object; the line before it is the full record of the run.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

# Pinned before numpy loads: one process, one BLAS thread, so the load never
# uses more threads than the machine has cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import NULL_TRACER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "factor-stream": "factor_stream",
    "reconstruct-audit": "reconstruct_audit",
    "modular-oracle": "modular_oracle",
    "suite-quick": "suite_quick",
}
LAYER_SPANS = (
    "serialization.decode",
    "serialization.encode",
    "minkowski.validate",
    "minkowski.polar",
    "minkowski.classify",
    "reflections.factor",
    "reflections.verify",
    "reflections.for_wedge",
    "wedges.act",
    "wedges.equal",
    "wedges.localize",
    "reconstruction.build_map",
    "reconstruction.axioms",
    "reconstruction.homomorphism",
    "modular.closure",
    "modular.modular_data",
    "modular.invariants",
    "modular.commutant",
    "modular.duality",
    "modular.flow",
)
COUNTERS = (
    "minkowski.validate.rejected",
    "reconstruction.axioms.samples",
    "reconstruction.homomorphism.samples",
    "reconstruction.homomorphism.short_circuit",
    "modular.modular_data.rejected",
)
SETUP_PROBES = 3  # set-up is repeated in this many fresh processes
TRACE_CHUNKS = 10  # untraced and traced chunks alternate this many times
TAIL_CHUNK = 1000  # longer runs report the median tail of chunks this long
PHASE_DEADLINE_S = 140.0  # no new request is sent after this, from start
PROBE_TIMEOUT_S = 60.0
REPORTED_FAILURES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )  # internal: set up, print "ready", exit
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _set_up(module, seed, seconds):
    """Generate and encode every input, then warm up on separate inputs."""
    inputs_seq, warm_seq = np.random.SeedSequence(seed).spawn(2)
    requests = module.generate(np.random.default_rng(inputs_seq), seconds)
    module.warm_up(np.random.default_rng(warm_seq))
    return requests


def _probe_setup(args):
    """Wall time from process start to ready, in a fresh process each time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]  # fmt: skip
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline().strip()
                ready = time.perf_counter()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(ready - start)
    return times


def _past_deadline():
    return time.perf_counter() - _START > PHASE_DEADLINE_S


class _Log:
    """What came back for each request sent.  The log holds only strings,
    None and floats, which the garbage collector does not track, so a
    growing log adds next to nothing to collection pauses."""

    def __init__(self):
        self.indices = []
        self.responses = []
        self.errors = []
        self.latencies = array("d")

    def __len__(self):
        return len(self.indices)


def _send(module, requests, tracer, log, first_index=0, deadline=True):
    """Closed loop: send each request once the previous reply is back."""
    for i, request in enumerate(requests, first_index):
        if deadline and _past_deadline():
            break
        tracer.request = i
        t0 = time.perf_counter()
        try:
            response, error = module.handle(request.text, tracer), None
        except Exception as exc:  # an unexpected raise is a failed response
            response, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        log.indices.append(i)
        log.responses.append(response)
        log.errors.append(error)
        log.latencies.append(t1 - t0)


def _judge(module, requests, log):
    """Reasons for every wrong response, in request order."""
    reasons = []
    for i, response, error in zip(log.indices, log.responses, log.errors):
        if error is None:
            try:
                error = module.check(requests[i], response)
            except (KeyError, TypeError, ValueError) as exc:
                error = f"malformed response: {type(exc).__name__}: {exc}"
        if error is not None:
            reasons.append(error)
    return reasons


def _tail(latencies):
    """The highest percentile with at least ten requests beyond it, and that
    percentile.  Runs of two chunks or more report the median of the tails
    of TAIL_CHUNK-request chunks; under eleven requests, the slowest one."""
    n = len(latencies)
    if n < 11:
        return max(latencies), 100.0
    size = TAIL_CHUNK if n >= 2 * TAIL_CHUNK else n
    tails = [sorted(latencies[lo : lo + size])[size - 11] for lo in range(0, n - size + 1, size)]
    return statistics.median(tails), 100.0 * (size - 10) / size


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(module, requests, args):
    log = _Log()
    start = time.perf_counter()
    _send(module, requests, NULL_TRACER, log)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = _judge(module, requests, log)
    latencies = log.latencies
    attempted = len(log)
    correct = attempted - len(failures)
    tail, percentile = _tail(latencies)
    probes = _probe_setup(args)
    metrics = {
        "throughput_rps": _metric(correct / wall, "requests/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": _metric(tail * 1e3, "ms"),
        "setup_s": _metric(statistics.median(probes), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "correct_frac": _metric(correct / attempted, "ratio"),
    }
    record = {
        "timed_wall_s": wall,
        "tail_percentile": percentile,
        "failed_frac": len(failures) / attempted,
        "failed_frac_base": f"{attempted} requests attempted in the untraced run",
        "setup_probes_s": probes,
    }
    return attempted, failures, metrics, record


def _per_layer(module, requests, span_names):
    tracer = Tracer()
    untraced, traced = _Log(), _Log()
    walls = [0.0, 0.0]
    size = -(-len(requests) // min(TRACE_CHUNKS, len(requests)))
    for lo in range(0, len(requests), size):
        if _past_deadline():
            break
        chunk = requests[lo : lo + size]
        for slot, (tr, out) in enumerate(((NULL_TRACER, untraced), (tracer, traced))):
            start = time.perf_counter()
            _send(module, chunk, tr, out, lo, deadline=False)
            walls[slot] += time.perf_counter() - start
    failures = _judge(module, requests, untraced) + _judge(module, requests, traced)
    calls, busy = tracer.summary()
    wall = walls[1]
    metrics = {}
    for name in span_names:
        metrics[f"{name}.calls"] = _metric(calls[name], "count")
        metrics[f"{name}.busy_s"] = _metric(busy[name], "s")
        metrics[f"{name}.share"] = _metric(busy[name] / wall, "ratio")
    for name in COUNTERS:
        metrics[name] = _metric(tracer.counters[name], "count")
    sent = len(traced)
    audits = calls["reconstruction.homomorphism"]
    short = tracer.counters["reconstruction.homomorphism.short_circuit"]
    metrics["minkowski.rejected_frac"] = _metric(tracer.counters["minkowski.validate.rejected"] / sent, "ratio")
    metrics["modular.rejected_frac"] = _metric(tracer.counters["modular.modular_data.rejected"] / sent, "ratio")
    metrics["reconstruction.short_circuit_frac"] = _metric(short / audits if audits else 0.0, "ratio")
    metrics["trace.overhead_frac"] = _metric(walls[1] / walls[0] - 1.0, "ratio")
    record = {
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "chunk_requests": size,
        "failed_frac": len(failures) / (2 * sent),
        "failed_frac_base": f"{2 * sent} requests attempted, {sent} untraced and {sent} traced",
    }
    return 2 * sent, failures, metrics, record, tracer


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "wedgegroup" / "__init__.py").is_file():
        print(f"run.py: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from suite_quick import CHECKS

    module = importlib.import_module(WORKLOADS[args.workload])
    requests = _set_up(module, args.seed, args.seconds)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup_self = time.perf_counter() - _START

    if args.trace:
        span_names = LAYER_SPANS + tuple(f"suite.{name}" for name, *_ in CHECKS)
        attempted, failures, metrics, record, tracer = _per_layer(module, requests, span_names)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        attempted, failures, metrics, record = _end_to_end(module, requests, args)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_in_process_s=setup_self,
        failures=failures[:REPORTED_FAILURES],
        input=module.input_record(requests),
        environment=_environment(),
        metrics=metrics,
    )
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
