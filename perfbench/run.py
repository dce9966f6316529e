"""freeop benchmark: seeded closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/worker.py), one request at a time.  The summary
names every metric with its unit and sample count; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Without --workload all three workloads run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("count", "list", "rewrite")

# A fresh interpreter until freeop is imported and the bundled rules are
# loaded: what every CLI user pays before the first answer.
SETUP_CODE = "import freeop.cli as c; [c.load_rules(r) for r in ('lie', 'lie-adm')]"
SETUP_RUNS = 20
SETUP_WARMUP = 2
WORKER_TIMEOUT_S = 165

E2E = ("req_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mib", "ok_frac",
       "objects_per_s")


def start_time(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def measure_setup(env: dict) -> tuple[float, float]:
    """Set-up time scaled to nominal machine speed (speed.py), and as measured."""
    for _ in range(SETUP_WARMUP):
        start_time(speed.REFERENCE_START, env)
        start_time(SETUP_CODE, env)
    setup, reference = [], []
    for _ in range(SETUP_RUNS):
        reference.append(start_time(speed.REFERENCE_START, env))
        setup.append(start_time(SETUP_CODE, env))
    return speed.scaled_start(setup, reference), statistics.median(setup)


def run_workload(workload: str, args, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "freeop" / "__init__.py").is_file():
        print(f"error: no freeop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    setup_s, setup_raw = measure_setup(env)
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(workload, args, env)
        metrics = result["metrics"]
        if not args.trace:
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            metrics = {name: metrics[name] for name in (*E2E, "setup_s")}
        mismatched = metrics.pop("trace.answers_mismatched", {"value": 0})["value"]
        n = result["attempted"]
        print(f"workload {workload}, seed {args.seed}: {n} of {result['planned']} requests, "
              f"{result['failed']} failed (fail_frac {result['failed'] / n:.4f}), "
              f"{result['wrong']} wrong, {result['busy_s']:.2f} s busy, 1 client, closed loop")
        measured = {**result.get("raw", {}), "setup_s": setup_raw}
        for name, m in metrics.items():
            note = f"  ({n} samples)" if name.startswith("latency") else ""
            if name == "setup_s":
                note = f"  (median of {SETUP_RUNS} fresh interpreters, each after a reference one)"
            if name in measured and not args.trace:
                note += f"  [{measured[name]:.6g} as measured]"
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}{note}")
        print(json.dumps({
            "correct": result["wrong"] == 0 and mismatched == 0,
            "attempted": n,
            "failed": result["failed"],
            "metrics": metrics,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
