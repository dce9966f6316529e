"""Run one workload in this (fresh, single-threaded) process.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Prints one JSON object: the end-to-end measurements, or with TRACE=1
the per-layer ones.  Requests run one at a time in a closed loop; each
answer is checked after its timer stops.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import freeop  # noqa: E402
import freeop.cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Wall-clock limits on one loop over the pool, checks included, so that a
# much slower program still ends within the driver's time limit.
LOOP_CAP_S = 120.0
TRACED_LOOP_CAP_S = 70.0


@dataclass
class Result:
    latency: float  # scaled to nominal machine speed (see speed.py)
    raw: float  # as measured
    status: str
    objects: int
    digest: str
    out_bytes: int


def execute(req, rules: dict) -> tuple[int, str]:
    """Send one request to freeop in process, as a user would: (exit code,
    standard output); a library call answers with str() of its result."""
    if req.kind == "normal-form":
        sh = freeop.shuffle
        element = sh.parse_element(req.text)
        return 0, str(sh.normal_form(element, rules[req.expect["system"]]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = freeop.cli.main(req.argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def run_loop(requests, rules, checker, cap_s, tracer=None) -> list[Result]:
    # Keep the pool and the loaded modules out of the collector's way, so
    # that a request pays only for the objects it makes.
    gc.collect()
    gc.freeze()
    gauge = speed.Gauge()
    for _ in range(speed.WINDOW):
        gauge.sample()
    results = []
    loop_start = time.perf_counter()
    for i, req in enumerate(requests):
        if time.perf_counter() - loop_start > cap_s:
            break
        if tracer:
            tracer.begin(i)
        start = time.perf_counter()
        try:
            outcome = execute(req, rules)
        except Exception as exc:  # a crash fails this request, not the run
            outcome = None
            error = type(exc).__name__
        latency = time.perf_counter() - start
        if tracer:
            tracer.end()
        gauge.sample()  # the window now straddles the request
        scale = gauge.scale()
        status, objects = "ok", 0
        if outcome is None:
            status = "failed"
        elif checker is not None:
            try:
                status, objects = checker.check(req, outcome)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"{req.cell}: unreadable answer: {exc!r}", file=sys.stderr)
                status = "wrong"
        if status != "ok":
            print(f"{status}: {req.cell}: {req.argv or req.text}", file=sys.stderr)
        answer = f"{outcome[0]}\n{outcome[1]}" if outcome else error
        results.append(Result(latency * scale, latency, status, objects,
                              hashlib.sha1(answer.encode()).hexdigest(),
                              len(outcome[1]) if outcome else 0))
        del outcome, answer
    return results


def quantile(values: list[float], p: float) -> float:
    """Nearest-rank quantile of sorted values."""
    return values[max(0, math.ceil(p * len(values)) - 1)]


def timings(results: list[Result], scaled: bool = True) -> dict:
    """Throughput and latency quantiles; a failed request misses every
    latency limit, so it sorts as infinitely slow."""
    times = [r.latency if scaled else r.raw for r in results]
    ok = [r.status == "ok" for r in results]
    busy = sum(times)
    latencies = sorted(t if good else math.inf for t, good in zip(times, ok))
    return {
        "req_per_s": (sum(ok) / busy, "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "objects_per_s": (sum(r.objects for r, good in zip(results, ok) if good) / busy, "1/s"),
    }


def end_to_end(results: list[Result]) -> dict:
    ok = sum(r.status == "ok" for r in results)
    return {
        **timings(results),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": (ok / len(results), "ratio"),
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if not Path(freeop.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"freeop imported from {freeop.__file__}, not from this checkout", file=sys.stderr)
        return 2
    rules = {name: freeop.cli.load_rules(name) for name in ("lie", "lie-adm")}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=out_dir))
    try:
        requests = workloads.build(workload, seed, seconds, tmp)
        checker = checks.Checker(freeop, rules)
        if not traced:
            results = run_loop(requests, rules, checker, LOOP_CAP_S)
            metrics = end_to_end(results)
        else:
            tracer = tracing.Tracer()
            tracer.install(freeop)
            try:
                results = run_loop(requests, rules, checker, TRACED_LOOP_CAP_S, tracer)
            finally:
                tracer.uninstall()
            replay = run_loop(requests[: len(results)], rules, None, math.inf)
            tracer.counts["cli.out_bytes"] = sum(
                r.out_bytes for q, r in zip(requests, results) if q.argv)
            metrics = tracer.metrics()
            traced_rps = len(results) / sum(r.latency for r in results)
            plain_rps = len(replay) / sum(r.latency for r in replay)
            metrics["trace.traced_req_per_s"] = (traced_rps, "1/s")
            metrics["trace.untraced_req_per_s"] = (plain_rps, "1/s")
            metrics["trace.overhead_req_per_s"] = (plain_rps - traced_rps, "1/s")
            metrics["trace.spans"] = (len(tracer.spans), "count")
            mismatched = sum(a.digest != b.digest for a, b in zip(results, replay))
            metrics["trace.answers_mismatched"] = (mismatched, "count")
            tracer.write(out_dir / f"trace-{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "wrong": sum(r.status == "wrong" for r in results),
        "planned": len(requests),
        "busy_s": sum(r.raw for r in results),
        "raw": {k: v for k, (v, _) in timings(results, scaled=False).items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
